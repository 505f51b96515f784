#include "mhd/repo/repository.h"

#include <array>
#include <fstream>
#include <iterator>

#include "mhd/store/framing.h"

namespace mhd {

namespace fs = std::filesystem;

namespace {

constexpr const char* kDescriptorFile = "descriptor";
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kPayloadBytes = 4 + 8 + 4 + 4 + 1 + 1 + 1;

const char* const kIndexNames[] = {"mem", "disk", "sampled"};

/// A repository written before descriptors: its markers give framing and
/// container size, and index/ the tier, disk first (`meta` or a tenant's
/// `<tenant>.meta`), then sampled (`[<tenant>.]sampled-meta`). Nothing
/// older records the chunking, so `cfg` keeps the flags' values for it.
void adopt_legacy(const fs::path& root, EngineConfig& cfg) {
  cfg.framed = fs::exists(root / "framed");
  cfg.container_bytes = 0;
  std::ifstream(root / "container-size") >> cfg.container_bytes;
  cfg.index_impl = IndexImpl::kMem;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(root / "index", ec)) {
    const std::string name = "." + e.path().filename().string();
    if (name.ends_with(".meta")) {
      cfg.index_impl = IndexImpl::kDisk;
    } else if (name.ends_with(".sampled-meta") &&
               cfg.index_impl == IndexImpl::kMem) {
      cfg.index_impl = IndexImpl::kSampled;
    }
  }
}

/// The six creation-time values as (flag, descriptor field=value).
std::array<std::pair<const char*, std::string>, 6> creation_values(
    const EngineConfig& c) {
  return {{{"framed", std::string("framed=") + (c.framed ? "true" : "false")},
           {"container-mb",
            "container_bytes=" + std::to_string(c.container_bytes)},
           {"index-impl", std::string("index_impl=") +
                              kIndexNames[static_cast<int>(c.index_impl)]},
           {"chunker", std::string("chunker=") + chunker_kind_name(c.chunker)},
           {"ecs", "ecs=" + std::to_string(c.ecs)},
           {"sd", "sd=" + std::to_string(c.sd)}}};
}

/// The descriptor's bytes: `cfg`'s six values after the format version,
/// sealed with a CRC32C trailer.
ByteVec encode_descriptor(const EngineConfig& cfg) {
  ByteVec p;
  append_le(p, kVersion);
  append_le(p, cfg.container_bytes);
  append_le(p, cfg.ecs);
  append_le(p, cfg.sd);
  p.push_back(cfg.framed ? 1 : 0);
  p.push_back(static_cast<Byte>(cfg.index_impl));
  p.push_back(static_cast<Byte>(cfg.chunker));
  return framing::seal_object(p);
}

/// Sets the six values of `cfg`; throws StoreError on damaged, truncated or
/// other-version bytes.
void decode_descriptor(ByteSpan sealed, EngineConfig& cfg) {
  const auto p = framing::unseal_object(sealed);
  if (p && p->size() >= 4 && load_le<std::uint32_t>(p->data()) != kVersion) {
    throw StoreError("repository descriptor has format version " +
                     std::to_string(load_le<std::uint32_t>(p->data())) +
                     ", not " + std::to_string(kVersion));
  }
  const Byte* b = p ? p->data() + 4 : nullptr;
  if (!p || p->size() != kPayloadBytes || b[16] > 1 || b[17] > 2 ||
      b[18] > 3) {
    throw StoreError("repository descriptor is damaged or truncated");
  }
  cfg.container_bytes = load_le<std::uint64_t>(b);
  cfg.ecs = load_le<std::uint32_t>(b + 8);
  cfg.sd = load_le<std::uint32_t>(b + 12);
  cfg.framed = b[16] == 1;
  cfg.index_impl = static_cast<IndexImpl>(b[17]);
  cfg.chunker = static_cast<ChunkerKind>(b[18]);
}

}  // namespace

EngineConfig read_ecs_sd_flags(const Flags& flags, EngineConfig cfg) {
  // ChunkerConfig::from_expected cuts between max(64, ECS/4) and 8*ECS in
  // 32 bits: an ECS below 8 puts max under min, above UINT32_MAX/8 wraps.
  cfg.ecs = static_cast<std::uint32_t>(
      flags.get_uint("ecs", cfg.ecs, 8, UINT32_MAX / 8));
  cfg.sd = static_cast<std::uint32_t>(
      flags.get_uint("sd", cfg.sd, 1, UINT32_MAX));
  return cfg;
}

EngineConfig read_engine_flags(const Flags& flags, EngineConfig cfg) {
  cfg = read_ecs_sd_flags(flags, cfg);
  cfg.chunker = chunker_kind_from_string(flags.get_choice(
      "chunker", {"rabin", "tttd", "gear", "fixed"},
      chunker_kind_name(cfg.chunker)));
  cfg.chunker_impl = chunker_impl_from_string(flags.get_choice(
      "chunker-impl", {"auto", "scalar", "simd"},
      chunker_impl_name(cfg.chunker_impl)));
  cfg.hash_impl = sha1_impl_from_string(
      flags.get_choice("hash-impl", {"auto", "shani", "simd", "portable"},
                       sha1_impl_name(cfg.hash_impl)));
  const std::string index = flags.get_choice(
      "index-impl", {"mem", "disk", "sampled"},
      kIndexNames[static_cast<int>(cfg.index_impl)]);
  cfg.index_impl = index == "disk"      ? IndexImpl::kDisk
                   : index == "sampled" ? IndexImpl::kSampled
                                        : IndexImpl::kMem;
  cfg.index_cache_bytes =
      flags.get_size("index-cache-mb", cfg.index_cache_bytes, 64ull << 10,
                     1ull << 40, /*unit=*/1ull << 20);
  cfg.sample_bits = static_cast<std::uint32_t>(
      flags.get_uint("sample-bits", cfg.sample_bits, 0, 64));
  cfg.max_champions = static_cast<std::uint32_t>(
      flags.get_uint("champions", cfg.max_champions, 1, 1024));
  cfg.framed = flags.get_bool("framed", cfg.framed);
  cfg.fault_plan = flags.get("fault-plan", cfg.fault_plan);
  cfg.container_bytes = flags.get_size("container-mb", cfg.container_bytes,
                                       0, 1ull << 40, /*unit=*/1ull << 20);
  cfg.restore_cache_bytes =
      flags.get_size("restore-cache-mb", cfg.restore_cache_bytes, 64ull << 10,
                     1ull << 40, /*unit=*/1ull << 20);
  cfg.rewrite = *parse_rewrite_mode(
      flags.get_choice("rewrite", {"none", "cbr", "capping", "har"},
                       rewrite_mode_name(cfg.rewrite)));
  return cfg;
}

BackendStack::BackendStack(StorageBackend& bottom, const EngineConfig& cfg)
    : top_(&bottom) {
  if (!cfg.fault_plan.empty()) {
    faulty_.emplace(*top_, FaultPlan::parse(cfg.fault_plan));
    top_ = &*faulty_;
  }
  if (cfg.framed) {
    framed_.emplace(*top_);
    top_ = &*framed_;
  }
  if (cfg.container_bytes != 0) {
    ContainerConfig cc;
    cc.container_bytes = cfg.container_bytes;
    cc.cache_bytes = cfg.restore_cache_bytes;
    containers_.emplace(*top_, cc);
    top_ = &*containers_;
  }
}

FileBackend& Repository::file() {
  if (!file_ && write_descriptor_) {
    write_file_atomically(root_ / kDescriptorFile, encode_descriptor(cfg_));
  }
  if (!file_) file_.emplace(root_);
  return *file_;
}

BackendStack& Repository::stack() {
  if (!stack_) stack_.emplace(file(), cfg_);
  return *stack_;
}

Repository open_repository(const fs::path& root, const Flags& flags,
                           OpenMode mode) {
  EngineConfig defaults;
  defaults.ecs = 4096;
  defaults.sd = 64;
  const EngineConfig given = read_engine_flags(flags, defaults);

  // FileBackend creates every namespace, so an older repository always
  // has diskchunks/; a new one gets its descriptor first. Checked before
  // the lock, which creates the directory.
  const fs::path path = root / kDescriptorFile;
  const bool legacy = fs::is_directory(root / "diskchunks");
  if (mode != OpenMode::kCreate && !fs::exists(path) && !legacy) {
    throw FlagError("no repository at " + root.string());
  }
  std::optional<StoreLock> lock;
  if (mode != OpenMode::kRead) lock.emplace(StoreLock::acquire(root));

  EngineConfig cfg = given;
  const bool stored = fs::exists(path);
  if (stored) {
    std::ifstream in(path, std::ios::binary);
    decode_descriptor(ByteVec{std::istreambuf_iterator<char>(in), {}}, cfg);
  } else if (legacy) {
    adopt_legacy(root, cfg);
  }
  const auto have = creation_values(cfg), want = creation_values(given);
  for (std::size_t i = 0; i < have.size(); ++i) {
    if (flags.has(have[i].first) && have[i].second != want[i].second) {
      throw FlagError("--" + std::string(have[i].first) + ": repository " +
                      root.string() + " was created with " + have[i].second +
                      ", the flag gives " + want[i].second +
                      " (omit it to use the repository's value)");
    }
  }
  return Repository(root, std::move(lock), std::move(cfg),
                    !stored && mode != OpenMode::kRead);
}

}  // namespace mhd
