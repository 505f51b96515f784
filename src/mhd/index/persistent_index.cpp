#include "mhd/index/persistent_index.h"

#include <algorithm>
#include <cstdlib>

#include "mhd/store/framing.h"
#include "mhd/store/store_errors.h"
#include "mhd/util/hex.h"

namespace mhd {

namespace {

constexpr std::uint32_t kMetaMagic = 0x314D494Du;   // "MIM1"
constexpr std::uint32_t kPageMagic = 0x3150494Du;   // "MIP1"
constexpr std::uint32_t kJournalMagic = 0x314A494Du;  // "MIJ1"
constexpr std::uint32_t kWarmMagic = 0x3157494Du;   // "MIW1"
// v1 records were 48 bytes (fp, manifest, offset); v2 appends the 8-byte
// container location. The index is advisory and rebuildable, so a v1
// repository simply fails the version check and starts fresh — a missed
// duplicate at worst, never a wrong restore.
constexpr std::uint32_t kFormatVersion = 2;

constexpr char kMetaName[] = "meta";
constexpr char kBloomName[] = "bloom";
constexpr char kWarmName[] = "warm";

/// Serialized record size in pages (fp + manifest + offset + container).
constexpr std::size_t kRecBytes = Digest::kSize * 2 + 16;
/// Journal records carry a leading op byte (1 = put, 0 = erase).
constexpr std::size_t kJournalRecBytes = 1 + kRecBytes;

/// Estimated resident bytes per delta entry (node + key/value + bucket).
constexpr std::uint64_t kDeltaEntryRamBytes = 96;

std::string shard_object_name(std::uint32_t shard, std::uint32_t gen) {
  return "shard-" + std::to_string(shard) + "-g" + std::to_string(gen);
}

std::string journal_object_name(std::uint64_t seq) {
  return "journal-" + std::to_string(seq);
}

void append_digest(ByteVec& out, const Digest& d) { append(out, d.span()); }

Digest read_digest(const Byte* p) {
  Digest d;
  std::copy(p, p + Digest::kSize, d.bytes.begin());
  return d;
}

void append_rec(ByteVec& out, const index_detail::Rec& rec) {
  append_digest(out, rec.fp);
  append_digest(out, rec.manifest);
  append_le(out, rec.offset);
  append_le(out, rec.container);
}

index_detail::Rec read_rec(const Byte* p) {
  index_detail::Rec rec;
  rec.fp = read_digest(p);
  rec.manifest = read_digest(p + Digest::kSize);
  rec.offset = load_le<std::uint64_t>(p + 2 * Digest::kSize);
  rec.container = load_le<std::uint64_t>(p + 2 * Digest::kSize + 8);
  return rec;
}

bool rec_less(const index_detail::Rec& a, const index_detail::Rec& b) {
  return a.fp < b.fp;
}

/// Reads and unseals one index object, tolerating *double* framing: the
/// index seals its own payloads, and under FramedBackend the physical
/// bytes carry a second outer frame. Peeling frames until the payload no
/// longer unseals makes the same reader work on the raw backend (fsck) and
/// on the logical view (engines, GC) alike. A bare payload can't unseal by
/// accident: its tail would have to be a valid MTR1 trailer with a
/// matching CRC.
std::optional<ByteVec> get_unsealed(const StorageBackend& backend,
                                    const std::string& name) {
  std::optional<ByteVec> framed;
  try {
    framed = backend.get(Ns::kIndex, name);
  } catch (const StoreError&) {
    return std::nullopt;
  }
  if (!framed) return std::nullopt;
  auto payload = framing::unseal_object(*framed);
  if (!payload) return std::nullopt;
  while (auto inner = framing::unseal_object(*payload)) payload = inner;
  return payload;
}

struct MetaView {
  std::uint32_t shards = 0;
  std::uint64_t page_count = 0;
  std::uint64_t first_seq = 0;
  std::uint64_t next_seq = 0;
  std::vector<std::uint32_t> gens;
};

ByteVec serialize_meta(const MetaView& m) {
  ByteVec out;
  append_le(out, kMetaMagic);
  append_le(out, kFormatVersion);
  append_le(out, m.shards);
  append_le(out, m.page_count);
  append_le(out, m.first_seq);
  append_le(out, m.next_seq);
  for (const std::uint32_t g : m.gens) append_le(out, g);
  return out;
}

std::optional<MetaView> parse_meta(ByteSpan payload) {
  constexpr std::size_t kFixed = 4 + 4 + 4 + 8 + 8 + 8;
  if (payload.size() < kFixed) return std::nullopt;
  if (load_le<std::uint32_t>(payload.data()) != kMetaMagic) return std::nullopt;
  if (load_le<std::uint32_t>(payload.data() + 4) != kFormatVersion) {
    return std::nullopt;
  }
  MetaView m;
  m.shards = load_le<std::uint32_t>(payload.data() + 8);
  m.page_count = load_le<std::uint64_t>(payload.data() + 12);
  m.first_seq = load_le<std::uint64_t>(payload.data() + 20);
  m.next_seq = load_le<std::uint64_t>(payload.data() + 28);
  if (m.shards == 0 || m.shards > 4096) return std::nullopt;
  if (payload.size() != kFixed + m.shards * 4ull) return std::nullopt;
  m.gens.resize(m.shards);
  for (std::uint32_t s = 0; s < m.shards; ++s) {
    m.gens[s] = load_le<std::uint32_t>(payload.data() + kFixed + s * 4ull);
  }
  return m;
}

std::optional<std::vector<index_detail::Rec>> parse_page(
    ByteSpan payload, std::uint32_t expected_shard) {
  constexpr std::size_t kHeader = 4 + 4 + 4 + 8;
  if (payload.size() < kHeader) return std::nullopt;
  if (load_le<std::uint32_t>(payload.data()) != kPageMagic) return std::nullopt;
  if (load_le<std::uint32_t>(payload.data() + 4) != kFormatVersion) {
    return std::nullopt;
  }
  if (load_le<std::uint32_t>(payload.data() + 8) != expected_shard) {
    return std::nullopt;
  }
  const auto count = load_le<std::uint64_t>(payload.data() + 12);
  if (payload.size() != kHeader + count * kRecBytes) return std::nullopt;
  std::vector<index_detail::Rec> recs;
  recs.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    recs.push_back(read_rec(payload.data() + kHeader + i * kRecBytes));
  }
  if (!std::is_sorted(recs.begin(), recs.end(), rec_less)) return std::nullopt;
  return recs;
}

ByteVec serialize_page(std::uint32_t shard,
                       const std::vector<index_detail::Rec>& recs) {
  ByteVec out;
  out.reserve(20 + recs.size() * kRecBytes);
  append_le(out, kPageMagic);
  append_le(out, kFormatVersion);
  append_le(out, shard);
  append_le(out, static_cast<std::uint64_t>(recs.size()));
  for (const auto& rec : recs) append_rec(out, rec);
  return out;
}

struct JournalRec {
  Byte op = Byte{0};
  index_detail::Rec rec;
};

std::optional<std::vector<JournalRec>> parse_journal(ByteSpan payload) {
  constexpr std::size_t kHeader = 4 + 4 + 4;
  if (payload.size() < kHeader) return std::nullopt;
  if (load_le<std::uint32_t>(payload.data()) != kJournalMagic) {
    return std::nullopt;
  }
  if (load_le<std::uint32_t>(payload.data() + 4) != kFormatVersion) {
    return std::nullopt;
  }
  const auto count = load_le<std::uint32_t>(payload.data() + 8);
  if (payload.size() != kHeader + count * static_cast<std::uint64_t>(
                                              kJournalRecBytes)) {
    return std::nullopt;
  }
  std::vector<JournalRec> recs;
  recs.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const Byte* p = payload.data() + kHeader + i * kJournalRecBytes;
    JournalRec jr;
    jr.op = *p;
    jr.rec = read_rec(p + 1);
    recs.push_back(jr);
  }
  return recs;
}

int bloom_probes(std::uint32_t bits_per_key) {
  // k = ln2 * bits/key, the textbook optimum, at least one probe.
  return std::max(1, static_cast<int>(bits_per_key * 693 / 1000));
}

BloomFilter make_bloom(const PersistentIndexConfig& cfg) {
  const std::uint64_t bytes =
      std::max<std::uint64_t>(cfg.expected_keys * cfg.bloom_bits_per_key / 8,
                              1024);
  return BloomFilter(static_cast<std::size_t>(bytes),
                     bloom_probes(cfg.bloom_bits_per_key));
}

std::uint32_t normalize_shards(std::uint32_t shards) {
  shards = std::clamp<std::uint32_t>(shards, 1, 4096);
  std::uint32_t pow2 = 1;
  while (pow2 < shards) pow2 <<= 1;
  return pow2;
}

bool entry_equal(const IndexEntry& a, const IndexEntry& b) {
  return a.manifest == b.manifest && a.offset == b.offset &&
         a.container == b.container;
}

}  // namespace

PersistentIndex::PersistentIndex(StorageBackend& backend,
                                 PersistentIndexConfig config)
    : backend_(backend),
      cfg_([&config] {
        config.shards = normalize_shards(config.shards);
        config.journal_batch = std::max<std::uint32_t>(config.journal_batch, 1);
        config.compact_threshold =
            std::max<std::uint64_t>(config.compact_threshold, 1);
        return config;
      }()),
      bloom_(make_bloom(cfg_)),
      cache_(
          /*capacity=*/cfg_.shards,
          [this](const std::uint32_t& shard, Page& page) {
            // Pages are written synchronously during compaction, so a
            // dirty page reaching eviction means the shadow write was
            // interrupted; flushing it here keeps write-back semantics.
            if (page.dirty) write_page_at(shard, page.pending_gen, page);
          },
          cfg_.cache_bytes, [](const Page& page) { return page.weight(); }) {
  // The constructor is single-threaded by contract (nobody shares an index
  // that is still being opened); it uses the same locking helpers as
  // steady state, just without contention.
  const auto meta_payload = get_unsealed(backend_, kMetaName);
  const auto meta = meta_payload ? parse_meta(*meta_payload) : std::nullopt;
  if (meta) cfg_.shards = meta->shards;  // geometry owned by the repository
  init_shards();
  if (meta) {
    gens_ = meta->gens;
    first_seq_ = meta->first_seq;
    next_seq_ = meta->first_seq;  // re-discovered by the forward scan
    page_count_ = meta->page_count;
    count_.store(meta->page_count, std::memory_order_relaxed);
    bool bloom_loaded = false;
    if (const auto bloom_payload = get_unsealed(backend_, kBloomName)) {
      if (auto filter = BloomFilter::deserialize(*bloom_payload)) {
        bloom_ = std::move(*filter);
        bloom_loaded = true;
      }
    }
    if (!bloom_loaded) rebuild_bloom_from_pages();
    replay_journal();
    sweep_stale_objects();
  } else if ([this] {
               // Only THIS family's objects signal a torn commit point —
               // the sampled tier's "sampled-" objects share the namespace
               // and say nothing about the disk index's meta.
               for (const auto& name : backend_.list(Ns::kIndex)) {
                 if (name.rfind("sampled-", 0) != 0) return true;
               }
               return false;
             }()) {
    // Objects without a readable meta: the commit point was torn. The
    // hooks namespace is authoritative, so rebuild from it.
    rebuild_from_hooks();
  } else {
    gens_.assign(cfg_.shards, 0);
    write_meta();
  }
  if (gens_.size() != cfg_.shards) gens_.assign(cfg_.shards, 0);
  note_ram();
}

void PersistentIndex::init_shards() {
  shards_.clear();
  shards_.reserve(cfg_.shards);
  for (std::uint32_t s = 0; s < cfg_.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

bool PersistentIndex::present(const StorageBackend& backend) {
  return backend.exists(Ns::kIndex, kMetaName);
}

std::uint32_t PersistentIndex::shard_of(const Digest& fp) const {
  return static_cast<std::uint32_t>(fp.prefix64() & (cfg_.shards - 1));
}

std::optional<IndexEntry> PersistentIndex::probe_page(std::uint32_t shard,
                                                      const Digest& fp) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  Page* page = cache_.get(shard);
  if (!page) {
    Page fresh;
    const std::string name = shard_object_name(shard, gens_[shard]);
    bool exists = false;
    try {
      exists = backend_.exists(Ns::kIndex, name);
    } catch (const StoreError&) {
      exists = false;
    }
    if (exists) {
      const auto payload = get_unsealed(backend_, name);
      auto recs = payload ? parse_page(*payload, shard) : std::nullopt;
      if (recs) {
        fresh.recs = std::move(*recs);
      } else {
        // Damaged page: treat as empty — its entries degrade to missed
        // duplicates, which is always safe.
        ++corrupt_pages_;
      }
    }
    page = &cache_.put(shard, std::move(fresh));
    page_cache_high_water_ =
        std::max(page_cache_high_water_, cache_.total_weight());
  }
  index_detail::Rec probe;
  probe.fp = fp;
  const auto it = std::lower_bound(page->recs.begin(), page->recs.end(),
                                   probe, rec_less);
  if (it == page->recs.end() || !(it->fp == fp)) return std::nullopt;
  return IndexEntry{it->manifest, it->offset, it->container};
}

void PersistentIndex::write_page_at(std::uint32_t shard, std::uint32_t gen,
                                    const Page& page) {
  backend_.put(Ns::kIndex, shard_object_name(shard, gen),
               framing::seal_object(serialize_page(shard, page.recs)));
}

std::optional<IndexEntry> PersistentIndex::lookup_quiet(const Digest& fp) {
  const std::uint32_t s = shard_of(fp);
  {
    std::lock_guard<std::mutex> lock(shards_[s]->mu);
    const auto dit = shards_[s]->delta.find(fp);
    if (dit != shards_[s]->delta.end()) {
      if (!dit->second) return std::nullopt;  // tombstone
      return *dit->second;
    }
  }
  return probe_page(s, fp);
}

std::optional<IndexEntry> PersistentIndex::lookup(const Digest& fp) {
  std::shared_lock<std::shared_mutex> sl(struct_mu_);
  const std::uint32_t s = shard_of(fp);
  {
    std::lock_guard<std::mutex> lock(shards_[s]->mu);
    const auto dit = shards_[s]->delta.find(fp);
    if (dit != shards_[s]->delta.end()) {
      if (!dit->second) return std::nullopt;
      return *dit->second;
    }
  }
  {
    std::lock_guard<std::mutex> lock(bloom_mu_);
    if (!bloom_.maybe_contains(fp.prefix64())) return std::nullopt;
  }
  const auto hit = probe_page(s, fp);
  // A read-only workload still churns pages through the cache; the total
  // RAM high-water must cover that growth, not just mutation paths.
  note_ram();
  return hit;
}

void PersistentIndex::append_journal_record(Byte op, const Digest& fp,
                                            const IndexEntry& e) {
  std::lock_guard<std::mutex> lock(journal_mu_);
  pending_.push_back(op);
  append_digest(pending_, fp);
  append_digest(pending_, e.manifest);
  append_le(pending_, e.offset);
  append_le(pending_, e.container);
  ++pending_count_;
  journal_records_.fetch_add(1, std::memory_order_relaxed);
  // Group commit: whichever session fills the batch seals the whole
  // window — its own records and every other session's — as one segment.
  if (pending_count_ >= cfg_.journal_batch) write_pending_segment_locked();
}

void PersistentIndex::write_pending_segment_locked() {
  if (pending_count_ == 0) return;
  ByteVec payload;
  payload.reserve(12 + pending_.size());
  append_le(payload, kJournalMagic);
  append_le(payload, kFormatVersion);
  append_le(payload, pending_count_);
  append(payload, pending_);
  backend_.put(Ns::kIndex, journal_object_name(next_seq_),
               framing::seal_object(payload));
  ++next_seq_;
  journal_segments_.fetch_add(1, std::memory_order_relaxed);
  pending_.clear();
  pending_count_ = 0;
}

void PersistentIndex::put(const Digest& fp, const IndexEntry& entry) {
  bool want_compact = false;
  {
    std::shared_lock<std::shared_mutex> sl(struct_mu_);
    const std::uint32_t s = shard_of(fp);
    std::lock_guard<std::mutex> sg(shards_[s]->mu);
    auto& delta = shards_[s]->delta;

    std::optional<IndexEntry> prev;
    const auto dit = delta.find(fp);
    if (dit != delta.end()) {
      prev = dit->second;  // nullopt = tombstone
    } else {
      bool maybe;
      {
        std::lock_guard<std::mutex> bl(bloom_mu_);
        maybe = bloom_.maybe_contains(fp.prefix64());
      }
      if (maybe) prev = probe_page(s, fp);
    }
    if (prev && entry_equal(*prev, entry)) {
      return;  // no-op put: don't journal warm-restart re-learns
    }
    if (dit == delta.end()) delta_total_.fetch_add(1, std::memory_order_relaxed);
    delta[fp] = entry;
    if (!prev) count_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> bl(bloom_mu_);
      bloom_.insert(fp.prefix64());
    }
    append_journal_record(Byte{1}, fp, entry);
    want_compact =
        delta_total_.load(std::memory_order_relaxed) >= cfg_.compact_threshold;
    note_ram();
  }
  if (want_compact) {
    std::unique_lock<std::shared_mutex> ul(struct_mu_);
    if (delta_total_.load(std::memory_order_relaxed) >= cfg_.compact_threshold) {
      compact_exclusive();
    }
  }
}

bool PersistentIndex::erase(const Digest& fp) {
  bool want_compact = false;
  bool erased = false;
  {
    std::shared_lock<std::shared_mutex> sl(struct_mu_);
    const std::uint32_t s = shard_of(fp);
    std::lock_guard<std::mutex> sg(shards_[s]->mu);
    auto& delta = shards_[s]->delta;

    std::optional<IndexEntry> prev;
    const auto dit = delta.find(fp);
    if (dit != delta.end()) {
      prev = dit->second;
    } else {
      bool maybe;
      {
        std::lock_guard<std::mutex> bl(bloom_mu_);
        maybe = bloom_.maybe_contains(fp.prefix64());
      }
      if (maybe) prev = probe_page(s, fp);
    }
    if (!prev) return false;
    if (dit == delta.end()) delta_total_.fetch_add(1, std::memory_order_relaxed);
    delta[fp] = std::nullopt;
    count_.fetch_sub(1, std::memory_order_relaxed);
    append_journal_record(Byte{0}, fp, IndexEntry{});
    want_compact =
        delta_total_.load(std::memory_order_relaxed) >= cfg_.compact_threshold;
    note_ram();
    erased = true;
  }
  if (want_compact) {
    std::unique_lock<std::shared_mutex> ul(struct_mu_);
    if (delta_total_.load(std::memory_order_relaxed) >= cfg_.compact_threshold) {
      compact_exclusive();
    }
  }
  return erased;
}

bool PersistentIndex::maybe_contains(const Digest& fp) const {
  std::shared_lock<std::shared_mutex> sl(struct_mu_);
  auto* self = const_cast<PersistentIndex*>(this);
  const std::uint32_t s = self->shard_of(fp);
  {
    std::lock_guard<std::mutex> lock(self->shards_[s]->mu);
    const auto dit = self->shards_[s]->delta.find(fp);
    if (dit != self->shards_[s]->delta.end()) return dit->second.has_value();
  }
  std::lock_guard<std::mutex> bl(bloom_mu_);
  return bloom_.maybe_contains(fp.prefix64());
}

void PersistentIndex::flush() {
  std::unique_lock<std::shared_mutex> ul(struct_mu_);
  {
    std::lock_guard<std::mutex> jl(journal_mu_);
    write_pending_segment_locked();
  }
  write_bloom();
  write_meta();
}

std::uint64_t PersistentIndex::entry_count() const {
  return count_.load(std::memory_order_relaxed);
}

std::uint64_t PersistentIndex::ram_bytes() const {
  std::shared_lock<std::shared_mutex> sl(struct_mu_);
  return ram_bytes_estimate();
}

std::uint64_t PersistentIndex::ram_high_water() const {
  return ram_high_water_.load(std::memory_order_relaxed);
}

void PersistentIndex::compact() {
  std::unique_lock<std::shared_mutex> ul(struct_mu_);
  compact_exclusive();
}

std::uint64_t PersistentIndex::journal_segment_count() const {
  std::shared_lock<std::shared_mutex> sl(struct_mu_);
  std::lock_guard<std::mutex> jl(journal_mu_);
  return next_seq_ - first_seq_;
}

std::uint64_t PersistentIndex::compaction_count() const {
  std::shared_lock<std::shared_mutex> sl(struct_mu_);
  return compactions_;
}

std::uint64_t PersistentIndex::page_cache_ram_high_water() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return page_cache_high_water_;
}

std::uint64_t PersistentIndex::corrupt_page_reads() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return corrupt_pages_;
}

std::uint64_t PersistentIndex::journal_records_appended() const {
  return journal_records_.load(std::memory_order_relaxed);
}

std::uint64_t PersistentIndex::journal_segments_written() const {
  return journal_segments_.load(std::memory_order_relaxed);
}

void PersistentIndex::compact_exclusive() {
  // Exclusive on struct_mu_: every shard, the cache, the bloom and the
  // journal belong to this thread — the leaf locks are taken only where a
  // helper shared with the point-op path insists on them.
  if (delta_total_.load(std::memory_order_relaxed) == 0) return;
  // The pending batch becomes a segment first so the journal covers every
  // acknowledged op in the pre-commit crash window.
  {
    std::lock_guard<std::mutex> jl(journal_mu_);
    write_pending_segment_locked();
  }

  const std::uint64_t old_first = first_seq_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> replaced;  // shard,gen
  for (std::uint32_t shard = 0; shard < cfg_.shards; ++shard) {
    auto& delta = shards_[shard]->delta;
    if (delta.empty()) continue;
    // Prime the cache entry through the probe path (loads the page), then
    // mutate it in place under cache_mu_.
    probe_page(shard, delta.begin()->first);
    std::lock_guard<std::mutex> cl(cache_mu_);
    Page* page = cache_.get(shard);
    if (!page) {
      // Evicted between probe and lock (only possible if the cache budget
      // is absurdly small); reload through put of an empty page.
      page = &cache_.put(shard, Page{});
    }
    std::vector<index_detail::Rec> merged = page->recs;
    for (const auto& [fp, value] : delta) {
      index_detail::Rec probe;
      probe.fp = fp;
      const auto it = std::lower_bound(merged.begin(), merged.end(), probe,
                                       rec_less);
      const bool found = it != merged.end() && it->fp == fp;
      if (value) {
        index_detail::Rec rec{fp, value->manifest, value->offset,
                              value->container};
        if (found) {
          *it = rec;
        } else {
          merged.insert(it, rec);
        }
      } else if (found) {
        merged.erase(it);
      }
    }
    const std::uint32_t new_gen = gens_[shard] + 1;
    const std::uint64_t old_weight = page->weight();
    page->recs = std::move(merged);
    page->dirty = false;
    page->pending_gen = new_gen;
    write_page_at(shard, new_gen, *page);
    cache_.reweigh(shard, old_weight);
    page_cache_high_water_ =
        std::max(page_cache_high_water_, cache_.total_weight());
    replaced.emplace_back(shard, gens_[shard]);
  }

  // COMMIT: the meta names the new generations and discards the journal.
  for (const auto& [shard, old_gen] : replaced) gens_[shard] = old_gen + 1;
  first_seq_ = next_seq_;
  page_count_ = count_.load(std::memory_order_relaxed);
  write_meta();

  // Post-commit cleanup; a crash here only leaves sweepable garbage.
  for (const auto& [shard, old_gen] : replaced) {
    backend_.remove(Ns::kIndex, shard_object_name(shard, old_gen));
  }
  for (std::uint64_t seq = old_first; seq < first_seq_; ++seq) {
    backend_.remove(Ns::kIndex, journal_object_name(seq));
  }
  for (auto& shard : shards_) shard->delta.clear();
  delta_total_.store(0, std::memory_order_relaxed);
  ++compactions_;
  note_ram();
}

void PersistentIndex::write_meta() {
  MetaView m;
  m.shards = cfg_.shards;
  m.page_count = page_count_;
  m.first_seq = first_seq_;
  m.next_seq = next_seq_;
  m.gens = gens_;
  backend_.put(Ns::kIndex, kMetaName,
               framing::seal_object(serialize_meta(m)));
}

void PersistentIndex::write_bloom() {
  backend_.put(Ns::kIndex, kBloomName,
               framing::seal_object(bloom_.serialize()));
}

void PersistentIndex::rebuild_bloom_from_pages() {
  bloom_ = make_bloom(cfg_);
  for (std::uint32_t shard = 0; shard < cfg_.shards; ++shard) {
    const auto payload =
        get_unsealed(backend_, shard_object_name(shard, gens_[shard]));
    if (!payload) continue;
    const auto recs = parse_page(*payload, shard);
    if (!recs) continue;
    for (const auto& rec : *recs) bloom_.insert(rec.fp.prefix64());
  }
}

void PersistentIndex::replay_journal() {
  for (std::uint64_t seq = first_seq_;; ++seq) {
    bool exists = false;
    try {
      exists = backend_.exists(Ns::kIndex, journal_object_name(seq));
    } catch (const StoreError&) {
      exists = false;
    }
    if (!exists) {
      next_seq_ = seq;
      break;
    }
    const auto payload = get_unsealed(backend_, journal_object_name(seq));
    const auto recs = payload ? parse_journal(*payload) : std::nullopt;
    if (!recs) {
      // Torn tail: truncate here. Anything after the tear is unordered
      // relative to the lost segment and must go too.
      next_seq_ = seq;
      std::uint64_t later = seq;
      while (true) {
        bool more = false;
        try {
          more = backend_.remove(Ns::kIndex, journal_object_name(later));
        } catch (const StoreError&) {
          more = false;
        }
        if (!more) break;
        ++later;
      }
      break;
    }
    for (const auto& jr : *recs) {
      const auto prev = lookup_quiet(jr.rec.fp);
      auto& shard = *shards_[shard_of(jr.rec.fp)];
      if (jr.op == Byte{1}) {
        if (!prev) count_.fetch_add(1, std::memory_order_relaxed);
        if (shard.delta.find(jr.rec.fp) == shard.delta.end()) {
          delta_total_.fetch_add(1, std::memory_order_relaxed);
        }
        shard.delta[jr.rec.fp] =
            IndexEntry{jr.rec.manifest, jr.rec.offset, jr.rec.container};
        bloom_.insert(jr.rec.fp.prefix64());
      } else {
        if (prev) count_.fetch_sub(1, std::memory_order_relaxed);
        if (shard.delta.find(jr.rec.fp) == shard.delta.end()) {
          delta_total_.fetch_add(1, std::memory_order_relaxed);
        }
        shard.delta[jr.rec.fp] = std::nullopt;
      }
    }
  }
}

void PersistentIndex::sweep_stale_objects() {
  // Remove generations not named by meta and journal segments outside the
  // live window — leftovers of a crash between commit and cleanup.
  std::vector<std::string> stale;
  for (const auto& name : backend_.list(Ns::kIndex)) {
    if (name.rfind("shard-", 0) == 0) {
      const auto dash = name.find("-g");
      if (dash == std::string::npos) continue;
      const std::uint32_t shard = static_cast<std::uint32_t>(
          std::strtoul(name.c_str() + 6, nullptr, 10));
      const std::uint32_t gen = static_cast<std::uint32_t>(
          std::strtoul(name.c_str() + dash + 2, nullptr, 10));
      if (shard >= cfg_.shards || gen != gens_[shard]) stale.push_back(name);
    } else if (name.rfind("journal-", 0) == 0) {
      const std::uint64_t seq = std::strtoull(name.c_str() + 8, nullptr, 10);
      if (seq < first_seq_ || seq >= next_seq_) stale.push_back(name);
    }
  }
  for (const auto& name : stale) backend_.remove(Ns::kIndex, name);
}

void PersistentIndex::rebuild_from_hooks() {
  // The meta must never be absent: it carries the shard geometry, which is
  // owned by the repository, so it survives the clear and is atomically
  // overwritten below. A kill anywhere in this function leaves a readable
  // meta with the right geometry; the next rebuild starts over cleanly.
  for (const auto& name : backend_.list(Ns::kIndex)) {
    if (name == kMetaName) continue;
    if (name.rfind("sampled-", 0) == 0) continue;  // the sampled tier's
    backend_.remove(Ns::kIndex, name);
  }
  gens_.assign(cfg_.shards, 0);
  first_seq_ = next_seq_ = 0;
  page_count_ = 0;
  for (auto& shard : shards_) shard->delta.clear();
  delta_total_.store(0, std::memory_order_relaxed);
  pending_.clear();
  pending_count_ = 0;
  count_.store(0, std::memory_order_relaxed);
  write_meta();
  bloom_ = make_bloom(cfg_);

  std::vector<std::vector<index_detail::Rec>> pages(cfg_.shards);
  for (const auto& name : backend_.list(Ns::kHook)) {
    const auto bytes = hex_decode(name);
    if (!bytes || bytes->size() != Digest::kSize) continue;
    const Digest fp = read_digest(bytes->data());
    std::optional<ByteVec> target;
    try {
      target = backend_.get(Ns::kHook, name);
    } catch (const StoreError&) {
      continue;  // damaged hook: the entry degrades to a missed duplicate
    }
    if (!target || target->size() != Digest::kSize) continue;
    index_detail::Rec rec;
    rec.fp = fp;
    rec.manifest = read_digest(target->data());
    rec.offset = 0;  // unknown after rebuild; engines confirm via manifest
    pages[shard_of(fp)].push_back(rec);
  }
  std::uint64_t total = 0;
  for (std::uint32_t shard = 0; shard < cfg_.shards; ++shard) {
    auto& recs = pages[shard];
    std::sort(recs.begin(), recs.end(), rec_less);
    recs.erase(std::unique(recs.begin(), recs.end(),
                           [](const index_detail::Rec& a,
                              const index_detail::Rec& b) {
                             return a.fp == b.fp;
                           }),
               recs.end());
    total += recs.size();
    for (const auto& rec : recs) bloom_.insert(rec.fp.prefix64());
    if (!recs.empty()) {
      Page page;
      page.recs = std::move(recs);
      write_page_at(shard, 0, page);
    }
  }
  count_.store(total, std::memory_order_relaxed);
  page_count_ = total;
  write_meta();
  write_bloom();
}

std::uint64_t PersistentIndex::ram_bytes_estimate() const {
  std::uint64_t total =
      delta_total_.load(std::memory_order_relaxed) * kDeltaEntryRamBytes;
  {
    std::lock_guard<std::mutex> bl(bloom_mu_);
    total += bloom_.size_bytes();
  }
  {
    std::lock_guard<std::mutex> cl(cache_mu_);
    total += cache_.total_weight();
  }
  {
    std::lock_guard<std::mutex> jl(journal_mu_);
    total += pending_.capacity();
  }
  return total;
}

void PersistentIndex::note_ram() {
  const std::uint64_t now = ram_bytes_estimate();
  std::uint64_t seen = ram_high_water_.load(std::memory_order_relaxed);
  while (now > seen &&
         !ram_high_water_.compare_exchange_weak(seen, now,
                                                std::memory_order_relaxed)) {
  }
}

void PersistentIndex::save_warm_list(const std::vector<Digest>& names) {
  std::unique_lock<std::shared_mutex> ul(struct_mu_);
  ByteVec payload;
  payload.reserve(16 + names.size() * Digest::kSize);
  append_le(payload, kWarmMagic);
  append_le(payload, kFormatVersion);
  append_le(payload, static_cast<std::uint64_t>(names.size()));
  for (const auto& name : names) append_digest(payload, name);
  backend_.put(Ns::kIndex, kWarmName, framing::seal_object(payload));
}

std::vector<Digest> PersistentIndex::load_warm_list() const {
  std::shared_lock<std::shared_mutex> sl(struct_mu_);
  const auto payload = get_unsealed(backend_, kWarmName);
  if (!payload) return {};
  constexpr std::size_t kHeader = 4 + 4 + 8;
  if (payload->size() < kHeader) return {};
  if (load_le<std::uint32_t>(payload->data()) != kWarmMagic) return {};
  if (load_le<std::uint32_t>(payload->data() + 4) != kFormatVersion) return {};
  const auto count = load_le<std::uint64_t>(payload->data() + 8);
  if (payload->size() != kHeader + count * Digest::kSize) return {};
  std::vector<Digest> names;
  names.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    names.push_back(read_digest(payload->data() + kHeader + i * Digest::kSize));
  }
  return names;
}

void PersistentIndex::save_aux(const std::string& name, ByteSpan payload) {
  std::unique_lock<std::shared_mutex> ul(struct_mu_);
  backend_.put(Ns::kIndex, "aux-" + name, framing::seal_object(payload));
}

std::optional<ByteVec> PersistentIndex::load_aux(
    const std::string& name) const {
  std::shared_lock<std::shared_mutex> sl(struct_mu_);
  return get_unsealed(backend_, "aux-" + name);
}

IndexCheckReport check_index(const StorageBackend& backend) {
  IndexCheckReport report;
  const auto meta_payload = get_unsealed(backend, kMetaName);
  const auto meta = meta_payload ? parse_meta(*meta_payload) : std::nullopt;
  if (!meta) {
    if (backend.exists(Ns::kIndex, kMetaName)) ++report.corrupt_objects;
    return report;
  }
  report.meta_ok = true;

  std::unordered_map<Digest, Digest, DigestHasher> live;
  for (std::uint32_t shard = 0; shard < meta->shards; ++shard) {
    const std::string name = shard_object_name(shard, meta->gens[shard]);
    if (!backend.exists(Ns::kIndex, name)) continue;
    const auto payload = get_unsealed(backend, name);
    const auto recs = payload ? parse_page(*payload, shard) : std::nullopt;
    if (!recs) {
      ++report.corrupt_objects;
      continue;
    }
    for (const auto& rec : *recs) live.insert_or_assign(rec.fp, rec.manifest);
  }
  for (std::uint64_t seq = meta->first_seq;; ++seq) {
    if (!backend.exists(Ns::kIndex, journal_object_name(seq))) break;
    const auto payload = get_unsealed(backend, journal_object_name(seq));
    const auto recs = payload ? parse_journal(*payload) : std::nullopt;
    if (!recs) {
      ++report.corrupt_objects;
      break;
    }
    for (const auto& jr : *recs) {
      if (jr.op == Byte{1}) {
        live.insert_or_assign(jr.rec.fp, jr.rec.manifest);
      } else {
        live.erase(jr.rec.fp);
      }
    }
  }

  report.entries = live.size();
  for (const auto& [fp, manifest] : live) {
    if (!backend.exists(Ns::kManifest, manifest.hex())) ++report.stale_entries;
  }
  for (const auto& name : backend.list(Ns::kHook)) {
    const auto bytes = hex_decode(name);
    if (!bytes || bytes->size() != Digest::kSize) continue;
    if (live.find(read_digest(bytes->data())) == live.end()) {
      ++report.unindexed_hooks;
    }
  }
  return report;
}

void rebuild_index(StorageBackend& backend, PersistentIndexConfig config) {
  // Preserve the persisted geometry when the old meta is readable.
  if (const auto meta_payload = get_unsealed(backend, kMetaName)) {
    if (const auto meta = parse_meta(*meta_payload)) {
      config.shards = meta->shards;
    }
  }
  // Clear everything except the meta, then atomically overwrite it with a
  // fresh empty meta. The meta carries the shard geometry, which is owned
  // by the repository; were it removed first, a kill before the rewrite
  // would make the next rebuild invent the default geometry — a silent,
  // permanent divergence. With this ordering every kill window leaves a
  // readable meta, and the repository stays a deterministic function of
  // its hooks and its geometry.
  for (const auto& name : backend.list(Ns::kIndex)) {
    if (name == kMetaName) continue;
    // The sampled similarity tier shares Ns::kIndex under a "sampled-"
    // prefix; its objects belong to rebuild_sampled_index, not to us.
    if (name.rfind("sampled-", 0) == 0) continue;
    backend.remove(Ns::kIndex, name);
  }
  MetaView fresh;
  fresh.shards = normalize_shards(config.shards);
  fresh.gens.assign(fresh.shards, 0);
  backend.put(Ns::kIndex, kMetaName,
              framing::seal_object(serialize_meta(fresh)));
  // A fresh PersistentIndex over the cleared namespace, re-fed from the
  // hooks (the authoritative fingerprint source), then compacted so the
  // result is pure bucket pages with an empty journal.
  PersistentIndex index(backend, config);
  for (const auto& name : backend.list(Ns::kHook)) {
    const auto bytes = hex_decode(name);
    if (!bytes || bytes->size() != Digest::kSize) continue;
    Digest fp;
    std::copy(bytes->begin(), bytes->end(), fp.bytes.begin());
    std::optional<ByteVec> target;
    try {
      target = backend.get(Ns::kHook, name);
    } catch (const StoreError&) {
      continue;
    }
    if (!target || target->size() != Digest::kSize) continue;
    Digest manifest;
    std::copy(target->begin(), target->end(), manifest.bytes.begin());
    index.put(fp, IndexEntry{manifest, 0});
  }
  index.compact();
  index.flush();
}

}  // namespace mhd
