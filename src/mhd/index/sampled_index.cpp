#include "mhd/index/sampled_index.h"

#include <algorithm>

#include "mhd/index/index_object.h"
#include "mhd/index/mem_index.h"
#include "mhd/index/similarity/sampling.h"
#include "mhd/store/framing.h"
#include "mhd/store/store_errors.h"
#include "mhd/util/hex.h"

namespace mhd {

namespace {

constexpr std::uint32_t kMetaMagic = 0x314D534Du;   // "MSM1"
constexpr std::uint32_t kStateMagic = 0x3153534Du;  // "MSS1"
constexpr std::uint32_t kWarmMagic = 0x3157534Du;   // "MSW1"
constexpr std::uint32_t kFormatVersion = 1;

// The "sampled-" prefix keeps this family disjoint from the disk tier's
// objects inside the shared Ns::kIndex namespace: each family's clearing
// touches only its own names.
constexpr char kMetaName[] = "sampled-meta";
constexpr char kWarmName[] = "sampled-warm";
constexpr char kStatePrefix[] = "sampled-state-g";
constexpr char kAuxPrefix[] = "sampled-aux-";

std::string state_object_name(std::uint32_t gen) {
  return kStatePrefix + std::to_string(gen);
}

Digest read_digest(const Byte* p) {
  Digest d;
  std::copy(p, p + Digest::kSize, d.bytes.begin());
  return d;
}

using index_object::get_unsealed;
using index_object::unseal_all;

struct MetaView {
  std::uint32_t sample_bits = 0;
  std::uint32_t max_per_hook = 0;
  std::uint32_t generation = 0;
  std::uint64_t champion_loads = 0;
};

ByteVec serialize_meta(const MetaView& m) {
  ByteVec out;
  append_le(out, kMetaMagic);
  append_le(out, kFormatVersion);
  append_le(out, m.sample_bits);
  append_le(out, m.max_per_hook);
  append_le(out, m.generation);
  append_le(out, m.champion_loads);
  return out;
}

std::optional<MetaView> parse_meta(ByteSpan payload) {
  constexpr std::size_t kSize = 4 * 5 + 8;
  if (payload.size() != kSize) return std::nullopt;
  if (load_le<std::uint32_t>(payload.data()) != kMetaMagic) return std::nullopt;
  if (load_le<std::uint32_t>(payload.data() + 4) != kFormatVersion) {
    return std::nullopt;
  }
  MetaView m;
  m.sample_bits = load_le<std::uint32_t>(payload.data() + 8);
  m.max_per_hook = load_le<std::uint32_t>(payload.data() + 12);
  m.generation = load_le<std::uint32_t>(payload.data() + 16);
  m.champion_loads = load_le<std::uint64_t>(payload.data() + 20);
  if (m.sample_bits > 64 || m.max_per_hook == 0 || m.max_per_hook > 1024) {
    return std::nullopt;
  }
  return m;
}

}  // namespace

SampledIndex::SampledIndex(StorageBackend& backend, SampledIndexConfig config)
    : backend_(backend),
      cfg_(config),
      hooks_(config.max_manifests_per_hook) {
  // Normalize to what parse_meta accepts, so a flushed meta always reopens.
  cfg_.sample_bits = std::min<std::uint32_t>(cfg_.sample_bits, 64);
  cfg_.max_manifests_per_hook =
      std::clamp<std::uint32_t>(cfg_.max_manifests_per_hook, 1, 1024);
  open();
}

bool SampledIndex::present(const StorageBackend& backend) {
  return backend.exists(Ns::kIndex, kMetaName);
}

std::optional<std::uint32_t> SampledIndex::recorded_sample_bits(
    ByteSpan stored) {
  const auto payload = unseal_all(stored);
  const auto meta = payload ? parse_meta(*payload) : std::nullopt;
  if (!meta) return std::nullopt;
  return meta->sample_bits;
}

void SampledIndex::open() {
  const auto meta_payload = get_unsealed(backend_, kMetaName);
  const auto meta = meta_payload ? parse_meta(*meta_payload) : std::nullopt;
  if (meta) {
    // Geometry is owned by the repository: adopting it keeps the hook
    // predicate stable across reopen even when the caller passes different
    // knobs.
    cfg_.sample_bits = meta->sample_bits;
    cfg_.max_manifests_per_hook = meta->max_per_hook;
    hooks_ = similarity::HookTable(cfg_.max_manifests_per_hook);
    generation_ = meta->generation;
    champion_loads_ = meta->champion_loads;
    if (load_state(generation_)) {
      sweep_stale_states();
      note_ram();
      return;
    }
    // Committed meta pointing at an unreadable state: corruption, not a
    // crash window (state is written before the meta commit). Self-heal.
    rebuild_from_hooks();
    note_ram();
    return;
  }
  if (backend_.exists(Ns::kIndex, kMetaName)) {
    // Torn meta: the hooks namespace stays authoritative.
    rebuild_from_hooks();
  }
  // else: fresh tier — empty state, meta appears at the first flush().
  note_ram();
}

bool SampledIndex::load_state(std::uint32_t gen) {
  const std::string name = state_object_name(gen);
  if (!backend_.exists(Ns::kIndex, name)) {
    // A fresh index commits generation 0 with no state blob yet.
    return gen == 0;
  }
  const auto payload = get_unsealed(backend_, name);
  if (!payload || payload->size() < 8) return false;
  if (load_le<std::uint32_t>(payload->data()) != kStateMagic) return false;
  if (load_le<std::uint32_t>(payload->data() + 4) != kFormatVersion) {
    return false;
  }
  const Byte* p = payload->data() + 8;
  const Byte* end = payload->data() + payload->size();
  if (!hooks_.deserialize(p, end)) return false;
  if (!meter_.deserialize(p, end)) return false;
  return p == end;
}

void SampledIndex::sweep_stale_states() {
  const std::string live = state_object_name(generation_);
  for (const auto& name : backend_.list(Ns::kIndex)) {
    if (name.rfind(kStatePrefix, 0) != 0) continue;
    if (name == live) continue;
    backend_.remove(Ns::kIndex, name);
  }
}

void SampledIndex::flush() {
  const std::uint32_t next = generation_ + 1;
  ByteVec state;
  append_le(state, kStateMagic);
  append_le(state, kFormatVersion);
  hooks_.serialize(state);
  meter_.serialize(state);
  backend_.put(Ns::kIndex, state_object_name(next),
               framing::seal_object(state));
  MetaView m;
  m.sample_bits = cfg_.sample_bits;
  m.max_per_hook = cfg_.max_manifests_per_hook;
  m.generation = next;
  m.champion_loads = champion_loads_;
  backend_.put(Ns::kIndex, kMetaName, framing::seal_object(serialize_meta(m)));
  // Only after the commit point does the previous generation die.
  const std::string old_state = state_object_name(generation_);
  if (backend_.exists(Ns::kIndex, old_state)) {
    backend_.remove(Ns::kIndex, old_state);
  }
  generation_ = next;
}

std::optional<Digest> SampledIndex::lookup(const Digest& fp) {
  const auto found = resident_.find(fp);
  if (found == resident_.end()) return std::nullopt;
  return found->second;
}

void SampledIndex::put(const Digest& fp, const Digest& manifest) {
  resident_.insert_or_assign(fp, manifest);
  if (similarity::is_hook(fp, cfg_.sample_bits)) {
    hooks_.associate(fp.prefix64(), manifest);
  }
  note_ram();
}

bool SampledIndex::erase(const Digest& fp) {
  return resident_.erase(fp) > 0;
}

std::uint64_t SampledIndex::entry_count() const { return resident_.size(); }

std::uint64_t SampledIndex::ram_bytes() const {
  return resident_.size() * MemIndex::kEntryRamBytes + hooks_.ram_bytes();
}

std::uint64_t SampledIndex::ram_high_water() const { return ram_high_water_; }

void SampledIndex::note_ram() {
  ram_high_water_ = std::max(ram_high_water_, ram_bytes());
}

std::vector<Digest> SampledIndex::champions_for(const Digest& fp) const {
  if (!similarity::is_hook(fp, cfg_.sample_bits)) return {};
  return hooks_.champions(fp.prefix64(), cfg_.max_champions);
}

SampledStats SampledIndex::sampled_stats() const {
  SampledStats st;
  st.sample_bits = cfg_.sample_bits;
  st.hook_entries = hooks_.hook_count();
  st.hook_table_bytes = hooks_.ram_bytes();
  st.champion_loads = champion_loads_;
  st.missed_dup_bytes = meter_.missed_dup_bytes();
  st.missed_dup_chunks = meter_.missed_dup_chunks();
  return st;
}

void SampledIndex::save_aux(const std::string& name, ByteSpan payload) {
  backend_.put(Ns::kIndex, kAuxPrefix + name, framing::seal_object(payload));
}

std::optional<ByteVec> SampledIndex::load_aux(const std::string& name) const {
  return get_unsealed(backend_, kAuxPrefix + name);
}

void SampledIndex::save_warm_list(const std::vector<Digest>& names) {
  index_object::put_warm_list(backend_, kWarmName, kWarmMagic,
                              kFormatVersion, names);
}

std::vector<Digest> SampledIndex::load_warm_list() const {
  return index_object::get_warm_list(backend_, kWarmName, kWarmMagic,
                                     kFormatVersion);
}

void SampledIndex::rebuild_from_hooks() {
  hooks_.clear();
  meter_.clear();
  champion_loads_ = 0;
  generation_ = 0;
  for (const auto& name : backend_.list(Ns::kHook)) {
    const auto bytes = hex_decode(name);
    if (!bytes || bytes->size() != Digest::kSize) continue;
    const Digest fp = read_digest(bytes->data());
    // Chunks already stored must not read as future misses.
    meter_.seed(fp.prefix64());
    if (!similarity::is_hook(fp, cfg_.sample_bits)) continue;
    std::optional<ByteVec> target;
    try {
      target = backend_.get(Ns::kHook, name);
    } catch (const StoreError&) {
      continue;
    }
    if (!target || target->size() != Digest::kSize) continue;
    hooks_.associate(fp.prefix64(), read_digest(target->data()));
  }
  flush();
  sweep_stale_states();
  note_ram();
}

SampledCheckReport check_sampled_index(const StorageBackend& backend) {
  SampledCheckReport report;
  const auto meta_payload = get_unsealed(backend, kMetaName);
  const auto meta = meta_payload ? parse_meta(*meta_payload) : std::nullopt;
  if (!meta) {
    if (backend.exists(Ns::kIndex, kMetaName)) ++report.corrupt_objects;
    return report;
  }
  report.meta_ok = true;
  const std::string state_name = state_object_name(meta->generation);
  if (!backend.exists(Ns::kIndex, state_name)) {
    if (meta->generation != 0) ++report.corrupt_objects;
    return report;
  }
  const auto payload = get_unsealed(backend, state_name);
  similarity::HookTable hooks(meta->max_per_hook);
  similarity::LossMeter meter;
  bool ok = payload && payload->size() >= 8 &&
            load_le<std::uint32_t>(payload->data()) == kStateMagic &&
            load_le<std::uint32_t>(payload->data() + 4) == kFormatVersion;
  if (ok) {
    const Byte* p = payload->data() + 8;
    const Byte* end = payload->data() + payload->size();
    ok = hooks.deserialize(p, end) && meter.deserialize(p, end) && p == end;
  }
  if (!ok) {
    ++report.corrupt_objects;
    return report;
  }
  report.hook_entries = hooks.hook_count();
  report.champion_refs = hooks.champion_refs();
  hooks.for_each([&](std::uint64_t, const std::vector<Digest>& champions) {
    for (const Digest& m : champions) {
      if (!backend.exists(Ns::kManifest, m.hex())) ++report.stale_champions;
    }
  });
  return report;
}

void rebuild_sampled_index(StorageBackend& backend,
                           SampledIndexConfig config) {
  // Preserve the persisted geometry when the old meta is readable.
  if (const auto meta_payload = get_unsealed(backend, kMetaName)) {
    if (const auto meta = parse_meta(*meta_payload)) {
      config.sample_bits = meta->sample_bits;
      config.max_manifests_per_hook = meta->max_per_hook;
    }
  }
  // Clear only this family's objects (the disk tier may coexist under the
  // same namespace), keeping the meta until it is atomically overwritten:
  // were it removed first, a kill before the rewrite would make the next
  // rebuild invent the default geometry, a silent, permanent divergence.
  for (const auto& name : backend.list(Ns::kIndex)) {
    if (name.rfind("sampled-", 0) != 0) continue;
    if (name == kMetaName) continue;
    backend.remove(Ns::kIndex, name);
  }
  MetaView fresh;
  fresh.sample_bits = config.sample_bits;
  fresh.max_per_hook = config.max_manifests_per_hook;
  backend.put(Ns::kIndex, kMetaName,
              framing::seal_object(serialize_meta(fresh)));
  SampledIndex index(backend, config);
  index.rebuild_from_hooks();
}

}  // namespace mhd
