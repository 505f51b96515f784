// dedup_cli — a real deduplicating backup tool built on the library.
//
// Stores actual files from your filesystem into an on-disk hash-addressable
// repository (FileBackend: diskchunks/ hooks/ manifests/ filemanifests/
// directories, exactly the paper's Ext3 user-space layout) using the
// BF-MHD engine, and restores them byte-exactly.
//
//   ./dedup_cli store   <repo_dir> <file...>     add files to the repo
//   ./dedup_cli restore <repo_dir> <name> <out>  restore one file
//   ./dedup_cli verify  <repo_dir> <file...>     store-then-verify files
//   ./dedup_cli delete  <repo_dir> <name...>     forget files (then gc)
//   ./dedup_cli gc      <repo_dir>               reclaim unreferenced data
//   ./dedup_cli scrub   <repo_dir>               full integrity check
//   ./dedup_cli stats   <repo_dir>               repository statistics
//
// Daemon mode (the multi-tenant server, see src/mhd/server/):
//
//   ./dedup_cli serve <repo_dir>                 run the dedup daemon
//       --listen=unix:<path>|tcp:<port>  (default unix:<repo>/daemon.sock)
//       --max-sessions=8 --retry-after-ms=100
//       --tenant-quota-mb=N --tenant-quota-files=N   per-tenant limits
//       --serve-seconds=N                stop after N seconds (tests)
//       --idle-timeout-ms=N              reap sessions idle for N ms
//                                        (default 30000, 0 = never)
//       --fsck-on-start                  repair crash residue (offline
//                                        fsck with repair) before
//                                        accepting traffic; refuses to
//                                        serve a still-damaged repo;
//                                        exits 2 on an unframed repo
//       --net-fault-plan=SPEC            deterministic network chaos on
//                                        accepted connections, e.g.
//                                        torn@3,reset@7,seed:42 (see
//                                        server/fault_conn.h grammar)
//   ./dedup_cli put   <spec> <tenant> <file...>  ingest via a daemon
//   ./dedup_cli get   <spec> <tenant> <name> <out>
//       put/get/ls/dstats/maintain take --retries=N --retry-budget-ms=N:
//       with retries the client absorbs Busy/Retry responses and
//       transport failures by reconnecting and re-sending (PUTs replay
//       the file from the start; GETs retry only while nothing has been
//       written yet).
//   ./dedup_cli ls    <spec> <tenant>            tenant's files (JSON)
//   ./dedup_cli dstats <spec> [--reset]          daemon stats (JSON);
//                                                --reset zeroes latency
//                                                histograms atomically
//   ./dedup_cli maintain <spec> <gc|fsck>        online maintenance
//   (<spec> is the daemon's listen spec, e.g. unix:/repo/daemon.sock)
//
// Mutating commands (store/verify/delete/gc/serve) take the repository's
// store.lock: two writers on one repo fail fast with a typed error
// instead of corrupting each other (see store/store_lock.h).
//
// Exit codes: 0 success, 1 failure, 2 usage or flag mistake, 3 daemon
// busy, 4 repository locked by another writer.
//
// Options: --ecs=4096 --sd=64 --chunker=rabin|tttd|gear
//          --chunker-impl=auto|scalar|simd
//          --hash-impl=auto|shani|simd|portable   SHA-1 kernel selection
//          --index-impl=mem|disk|sampled   fingerprint-index routing.
//          `disk` persists the index under the repo's index/ namespace
//          with a bounded page cache, so a reopened repo deduplicates
//          against its history without rebuilding an in-RAM map.
//          `sampled` keeps only a sparse similarity hook table resident
//          (fingerprints with --sample-bits low zero bits); hook hits
//          load up to --champions similar segments, and the dedup loss
//          from sampling is counted, never hidden. Like --framed, the
//          choice is sticky: later commands detect an existing on-disk
//          or sampled index and keep using it without the flag.
//          --index-cache-mb=8   hot bucket-page cache budget (K/M/G
//          suffixes accepted; bare number means MB)
//          --sample-bits=6 --champions=10   sampled-tier geometry (the
//          sample rate is fixed at repo creation; the meta object wins
//          over a conflicting flag on reopen)
//          --framed    store with CRC32C self-verification framing.
//          A framed repository is self-describing (a `framed` marker in
//          the repo root): later commands detect it and read through the
//          verifying layer without the flag — a framed repo can never be
//          misread as raw bytes. examples/fsck_cli checks and repairs
//          such repositories.
//          --fault-plan=SPEC   inject deterministic storage faults below
//          the framing, e.g. --fault-plan=torn@120:0.5,readerr@3x2,seed:7
//          (see store/fault_backend.h for the mini-language)
//          --container-mb=N   pack chunk data into fixed-size containers
//          (the fragmentation-aware layout). Sticky like --framed: store
//          drops a `container-size` marker recording the size and
//          every later command reads through the container layer without
//          the flag. --restore-cache-mb budgets the restore path's
//          whole-container LRU cache.
//          --rewrite=none|cbr|har   dedup-time fragmentation control on
//          container repos: cbr caps distinct old containers per segment,
//          har rewrites duplicates out of containers that went sparse.
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <optional>
#include <thread>

#include "mhd/core/mhd_engine.h"
#include "mhd/dedup/rewrite.h"
#include "mhd/index/persistent_index.h"
#include "mhd/index/sampled_index.h"
#include "mhd/metrics/metrics.h"
#include "mhd/server/client.h"
#include "mhd/server/daemon.h"
#include "mhd/store/container_store.h"
#include "mhd/store/fault_backend.h"
#include "mhd/store/file_backend.h"
#include "mhd/store/framed_backend.h"
#include "mhd/store/maintenance.h"
#include "mhd/store/restore_reader.h"
#include "mhd/store/scrub.h"
#include "mhd/store/store_lock.h"
#include "mhd/util/flags.h"

namespace {

using namespace mhd;

/// ByteSource over an ifstream.
class FileSource final : public ByteSource {
 public:
  explicit FileSource(const std::string& path)
      : in_(path, std::ios::binary) {}
  bool ok() const { return static_cast<bool>(in_) || in_.eof(); }

  std::size_t read(MutByteSpan out) override {
    in_.read(reinterpret_cast<char*>(out.data()),
             static_cast<std::streamsize>(out.size()));
    return static_cast<std::size_t>(in_.gcount());
  }

 private:
  std::ifstream in_;
};

/// The durability stack every command talks to:
///   FileBackend -> [FaultInjectingBackend] -> [FramedBackend]
/// Faults are injected on the physical layer, below the framing that
/// exists to detect them. `active()` is the top of whatever was enabled.
class BackendStack {
 public:
  BackendStack(const std::string& root, const Flags& flags) : file_(root) {
    StorageBackend* top = &file_;
    const auto plan = flags.get("fault-plan", "");
    if (!plan.empty()) {
      faulty_.emplace(*top, FaultPlan::parse(plan));
      top = &*faulty_;
    }
    // Framing is a property of the repository, not of the invocation:
    // `store --framed` drops a marker file so every later command reads
    // through the verifying layer without the flag. Otherwise a restore
    // that forgot --framed would return the framed bytes as payload.
    bool framed = flags.get_bool("framed", false);
    if (framed) {
      write_framed_marker(root);
    } else {
      framed = has_framed_marker(root);
    }
    if (framed) {
      framed_.emplace(*top);
      top = &*framed_;
    }
    // The container layout is likewise a repository property: the
    // `container-size` marker records the container size chosen at store
    // time, so restores/gc/scrub always resolve chunk names through the
    // extent maps instead of expecting per-chunk objects. (It cannot be
    // named `containers` — FileBackend owns a directory of that name.)
    const std::string cmarker = root + "/container-size";
    std::uint64_t container_bytes =
        flags.get_size("container-mb", 0, 0, 1ull << 40, /*unit=*/1ull << 20);
    if (container_bytes == 0) {
      if (std::FILE* f = std::fopen(cmarker.c_str(), "rb")) {
        unsigned long long v = 0;
        if (std::fscanf(f, "%llu", &v) == 1) container_bytes = v;
        std::fclose(f);
      }
    } else if (std::FILE* f = std::fopen(cmarker.c_str(), "wb")) {
      std::fprintf(f, "%llu\n",
                   static_cast<unsigned long long>(container_bytes));
      std::fclose(f);
    }
    if (container_bytes != 0) {
      ContainerConfig cc;
      cc.container_bytes = container_bytes;
      cc.cache_bytes =
          flags.get_size("restore-cache-mb", cc.cache_bytes, 64ull << 10,
                         1ull << 40, /*unit=*/1ull << 20);
      containers_.emplace(*top, cc);
      top = &*containers_;
    }
    active_ = top;
  }

  StorageBackend& active() { return *active_; }
  FileBackend& file() { return file_; }
  ContainerBackend* containers() {
    return containers_ ? &*containers_ : nullptr;
  }

 private:
  FileBackend file_;
  std::optional<FaultInjectingBackend> faulty_;
  std::optional<FramedBackend> framed_;
  std::optional<ContainerBackend> containers_;
  StorageBackend* active_ = nullptr;
};

EngineConfig config_from(const Flags& flags, const StorageBackend& backend) {
  EngineConfig cfg;
  // The index implementation is a property of the repository: once a
  // persistent (disk or sampled) index exists, keep maintaining it even
  // without the flag (an ignored on-disk index would silently go stale).
  if (flags.has("index-impl")) {
    const std::string impl =
        flags.get_choice("index-impl", {"mem", "disk", "sampled"}, "mem");
    cfg.index_impl = impl == "disk"      ? IndexImpl::kDisk
                     : impl == "sampled" ? IndexImpl::kSampled
                                         : IndexImpl::kMem;
  } else if (index_present(backend)) {
    cfg.index_impl = IndexImpl::kDisk;
  } else if (sampled_index_present(backend)) {
    cfg.index_impl = IndexImpl::kSampled;
  } else {
    cfg.index_impl = IndexImpl::kMem;
  }
  cfg.sample_bits = static_cast<std::uint32_t>(
      flags.get_uint("sample-bits", cfg.sample_bits, 0, 64));
  cfg.max_champions = static_cast<std::uint32_t>(
      flags.get_uint("champions", cfg.max_champions, 1, 1024));
  cfg.index_cache_bytes =
      flags.get_size("index-cache-mb", cfg.index_cache_bytes, 64ull << 10,
                     1ull << 40, /*unit=*/1ull << 20);
  cfg.ecs = static_cast<std::uint32_t>(flags.get_int("ecs", 4096));
  cfg.sd = static_cast<std::uint32_t>(flags.get_int("sd", 64));
  cfg.chunker = chunker_kind_from_string(
      flags.get_choice("chunker", {"rabin", "tttd", "gear", "fixed"}, "rabin"));
  cfg.chunker_impl = chunker_impl_from_string(
      flags.get_choice("chunker-impl", {"auto", "scalar", "simd"}, "auto"));
  cfg.hash_impl = sha1_impl_from_string(flags.get_choice(
      "hash-impl", {"auto", "shani", "simd", "portable"}, "auto"));
  cfg.rewrite = *parse_rewrite_mode(
      flags.get_choice("rewrite", {"none", "cbr", "capping", "har"}, "none"));
  return cfg;
}

int cmd_store(const Flags& flags, bool verify_after) {
  const auto& args = flags.positional();
  if (args.size() < 3) {
    std::fprintf(stderr, "usage: dedup_cli store <repo> <file...>\n");
    return 2;
  }
  const StoreLock lock = StoreLock::acquire(args[1]);
  BackendStack stack(args[1], flags);
  ObjectStore store(stack.active());
  MhdEngine engine(store, config_from(flags, stack.active()));

  for (std::size_t i = 2; i < args.size(); ++i) {
    FileSource src(args[i]);
    if (!src.ok()) {
      std::fprintf(stderr, "cannot open %s\n", args[i].c_str());
      return 1;
    }
    engine.add_file(args[i], src);
    std::printf("stored %s\n", args[i].c_str());
  }
  // One CLI invocation is one backup generation: fold this run's
  // container utilization into HAR's history, then seal the open
  // container so the repo on disk is all clean streams.
  engine.end_snapshot();
  engine.finish();
  if (auto* containers = stack.containers()) {
    containers->flush();
    const auto s = containers->stats();
    const auto& rs = engine.counters();
    std::printf("containers: %llu sealed, %.2f MB packed",
                static_cast<unsigned long long>(s.containers_sealed),
                s.packed_bytes / 1048576.0);
    if (rs.rewritten_chunks != 0) {
      std::printf(", %llu duplicate chunks rewritten (%.2f MB)",
                  static_cast<unsigned long long>(rs.rewritten_chunks),
                  rs.rewritten_bytes / 1048576.0);
    }
    std::printf("\n");
  }

  const auto& c = engine.counters();
  std::printf("input %.2f MB, new data %.2f MB, duplicate %.2f MB (%llu "
              "slices), HHR %llu\n",
              c.input_bytes / 1048576.0,
              (c.input_bytes - c.dup_bytes) / 1048576.0,
              c.dup_bytes / 1048576.0,
              static_cast<unsigned long long>(c.dup_slices),
              static_cast<unsigned long long>(c.hhr_operations));
  if (const FingerprintIndex* fp = engine.fingerprint_index()) {
    std::printf("index: %s, %llu entries, RAM high-water %.1f KB\n",
                engine.index_impl_name(),
                static_cast<unsigned long long>(fp->entry_count()),
                engine.index_ram_bytes() / 1024.0);
    if (engine.config().index_impl == IndexImpl::kSampled) {
      const SampledStats s = fp->sampled_stats();
      std::printf("sampled: %u sample bits, %llu hook entries, %llu champion "
                  "loads, missed-dup %.2f MB (%llu chunks)\n",
                  s.sample_bits,
                  static_cast<unsigned long long>(s.hook_entries),
                  static_cast<unsigned long long>(s.champion_loads),
                  s.missed_dup_bytes / 1048576.0,
                  static_cast<unsigned long long>(s.missed_dup_chunks));
    }
  }

  if (verify_after) {
    for (std::size_t i = 2; i < args.size(); ++i) {
      const auto restored = engine.reconstruct(args[i]);
      std::ifstream in(args[i], std::ios::binary | std::ios::ate);
      const auto size = static_cast<std::size_t>(in.tellg());
      in.seekg(0);
      ByteVec original(size);
      in.read(reinterpret_cast<char*>(original.data()),
              static_cast<std::streamsize>(size));
      if (!restored || !equal(*restored, original)) {
        std::printf("VERIFY FAILED: %s\n", args[i].c_str());
        return 1;
      }
      std::printf("verified %s (%zu bytes)\n", args[i].c_str(), size);
    }
  }
  return 0;
}

int cmd_restore(const Flags& flags) {
  const auto& args = flags.positional();
  if (args.size() != 4) {
    std::fprintf(stderr, "usage: dedup_cli restore <repo> <name> <out>\n");
    return 2;
  }
  BackendStack stack(args[1], flags);
  // Streaming restore: O(buffer) memory regardless of image size.
  auto reader = RestoreReader::open(stack.active(), args[2]);
  if (!reader) {
    std::fprintf(stderr, "no such file in repo: %s\n", args[2].c_str());
    return 1;
  }
  std::ofstream out(args[3], std::ios::binary | std::ios::trunc);
  ByteVec buf(1 << 20);
  std::size_t n;
  while ((n = reader->read({buf.data(), buf.size()})) > 0) {
    out.write(reinterpret_cast<const char*>(buf.data()),
              static_cast<std::streamsize>(n));
  }
  if (!reader->ok()) {
    std::fprintf(stderr, "RESTORE INCOMPLETE: repository damaged (run "
                         "'dedup_cli scrub %s')\n", args[1].c_str());
    return 1;
  }
  std::printf("restored %s -> %s (%llu bytes)\n", args[2].c_str(),
              args[3].c_str(),
              static_cast<unsigned long long>(reader->produced()));
  if (auto* containers = stack.containers()) {
    const auto s = containers->stats();
    const double mb = reader->produced() / 1048576.0;
    std::printf("  container reads %llu (%.3f per MB), cache hits %llu, "
                "open-container hits %llu\n",
                static_cast<unsigned long long>(s.container_reads),
                mb > 0 ? s.container_reads / mb : 0.0,
                static_cast<unsigned long long>(s.cache_hits),
                static_cast<unsigned long long>(s.open_hits));
  }
  return 0;
}

int cmd_delete(const Flags& flags) {
  const auto& args = flags.positional();
  if (args.size() < 3) {
    std::fprintf(stderr, "usage: dedup_cli delete <repo> <name...>\n");
    return 2;
  }
  const StoreLock lock = StoreLock::acquire(args[1]);
  BackendStack stack(args[1], flags);
  int missing = 0;
  for (std::size_t i = 2; i < args.size(); ++i) {
    if (delete_file(stack.active(), args[i])) {
      std::printf("deleted %s (run 'gc' to reclaim space)\n", args[i].c_str());
    } else {
      std::fprintf(stderr, "not in repo: %s\n", args[i].c_str());
      ++missing;
    }
  }
  return missing == 0 ? 0 : 1;
}

int cmd_gc(const Flags& flags) {
  const auto& args = flags.positional();
  if (args.size() != 2) {
    std::fprintf(stderr, "usage: dedup_cli gc <repo>\n");
    return 2;
  }
  const StoreLock lock = StoreLock::acquire(args[1]);
  BackendStack stack(args[1], flags);
  const auto r = collect_garbage(stack.active());
  std::printf("gc: %llu live chunks kept, %llu chunks deleted (%.2f MB "
              "reclaimed), %llu manifests and %llu hooks removed\n",
              static_cast<unsigned long long>(r.live_chunks),
              static_cast<unsigned long long>(r.deleted_chunks),
              r.reclaimed_bytes / 1048576.0,
              static_cast<unsigned long long>(r.deleted_manifests),
              static_cast<unsigned long long>(r.deleted_hooks));
  if (r.deleted_containers != 0) {
    std::printf("gc: %llu fully-dead containers deleted (%.2f MB of packed "
                "copies)\n",
                static_cast<unsigned long long>(r.deleted_containers),
                r.container_bytes_reclaimed / 1048576.0);
  }
  if (r.index_rebuilt) {
    std::printf("gc: fingerprint index rebuilt, %llu entries kept, %llu "
                "dropped\n",
                static_cast<unsigned long long>(r.index_entries),
                static_cast<unsigned long long>(r.dropped_index_entries));
  }
  if (r.sampled_index_rebuilt) {
    std::printf("gc: sampled hook table rebuilt, %llu hook entries, %llu "
                "swept champions dropped\n",
                static_cast<unsigned long long>(r.sampled_hook_entries),
                static_cast<unsigned long long>(r.dropped_sampled_champions));
  }
  return 0;
}

int cmd_scrub(const Flags& flags) {
  const auto& args = flags.positional();
  if (args.size() != 2) {
    std::fprintf(stderr, "usage: dedup_cli scrub <repo>\n");
    return 2;
  }
  BackendStack stack(args[1], flags);
  const auto r = scrub_repository(stack.active());
  std::printf("scrub: %llu filemanifests, %llu manifests (%llu opaque), "
              "%llu chunks, %llu hooks\n",
              static_cast<unsigned long long>(r.file_manifests),
              static_cast<unsigned long long>(r.manifests),
              static_cast<unsigned long long>(r.opaque_manifests),
              static_cast<unsigned long long>(r.chunks),
              static_cast<unsigned long long>(r.hooks));
  if (r.index_entries != 0 || r.stale_index_entries != 0) {
    std::printf("scrub: fingerprint index has %llu entries (%llu stale, "
                "%llu hooks unindexed)\n",
                static_cast<unsigned long long>(r.index_entries),
                static_cast<unsigned long long>(r.stale_index_entries),
                static_cast<unsigned long long>(r.unindexed_hooks));
  }
  if (r.sampled_hook_entries != 0 || r.stale_sampled_champions != 0) {
    std::printf("scrub: sampled hook table has %llu entries (%llu stale "
                "champions)\n",
                static_cast<unsigned long long>(r.sampled_hook_entries),
                static_cast<unsigned long long>(r.stale_sampled_champions));
  }
  if (r.clean()) {
    std::printf("repository is CLEAN\n");
    return 0;
  }
  std::printf("PROBLEMS: %llu broken file ranges, %llu hash mismatches, "
              "%llu coverage errors, %llu dangling hooks, %llu unparseable, "
              "%llu corrupt\n",
              static_cast<unsigned long long>(r.broken_file_ranges),
              static_cast<unsigned long long>(r.manifest_hash_mismatches),
              static_cast<unsigned long long>(r.manifest_coverage_errors),
              static_cast<unsigned long long>(r.dangling_hooks),
              static_cast<unsigned long long>(r.unparseable),
              static_cast<unsigned long long>(r.corrupt_objects));
  if (r.stale_index_entries != 0) {
    std::printf("PROBLEMS: %llu stale index entries (run 'fsck_cli repair' "
                "or 'gc' to rebuild the index)\n",
                static_cast<unsigned long long>(r.stale_index_entries));
  }
  return 1;
}

int cmd_stats(const Flags& flags) {
  const auto& args = flags.positional();
  if (args.size() != 2) {
    std::fprintf(stderr, "usage: dedup_cli stats <repo>\n");
    return 2;
  }
  BackendStack stack(args[1], flags);
  StorageBackend& backend = stack.active();
  const auto m = MetadataBreakdown::from(backend);
  std::printf("repository %s\n", args[1].c_str());
  std::printf("  diskchunks    : %llu objects, %.2f MB\n",
              static_cast<unsigned long long>(m.inodes_diskchunks),
              backend.content_bytes(Ns::kDiskChunk) / 1048576.0);
  std::printf("  hooks         : %llu objects, %.1f KB\n",
              static_cast<unsigned long long>(m.inodes_hooks),
              m.hook_bytes / 1024.0);
  std::printf("  manifests     : %llu objects, %.1f KB\n",
              static_cast<unsigned long long>(m.inodes_manifests),
              m.manifest_bytes / 1024.0);
  std::printf("  filemanifests : %llu objects, %.1f KB\n",
              static_cast<unsigned long long>(m.inodes_filemanifests),
              m.filemanifest_bytes / 1024.0);
  std::printf("  metadata total: %.1f KB (incl. %llu inodes @256B)\n",
              m.total_bytes() / 1024.0,
              static_cast<unsigned long long>(m.total_inodes()));
  return 0;
}

volatile std::sig_atomic_t g_stop_requested = 0;
void on_stop_signal(int) { g_stop_requested = 1; }

int cmd_serve(const Flags& flags) {
  const auto& args = flags.positional();
  if (args.size() != 2) {
    std::fprintf(stderr, "usage: dedup_cli serve <repo>\n");
    return 2;
  }
  // The daemon is THE single writer of the repository for its lifetime.
  const StoreLock lock = StoreLock::acquire(args[1]);
  // fsck checks CRC framing: on an unframed repository it would flag and
  // quarantine every healthy object. Checked before the stack exists, so
  // a --framed flag cannot declare an existing unframed repo framed.
  const bool fsck_on_start = flags.get_bool("fsck-on-start", false);
  if (fsck_on_start && !has_framed_marker(args[1])) {
    std::fprintf(stderr, "fsck-on-start: %s is not a framed repository; "
                         "check it with 'dedup_cli scrub %s'\n",
                 args[1].c_str(), args[1].c_str());
    return 2;
  }
  BackendStack stack(args[1], flags);

  server::DaemonConfig dc;
  dc.listen = flags.get("listen", "unix:" + args[1] + "/daemon.sock");
  dc.max_sessions = static_cast<std::uint32_t>(
      flags.get_uint("max-sessions", 8, 1, 1024));
  dc.retry_after_ms = static_cast<std::uint32_t>(
      flags.get_uint("retry-after-ms", 100, 1, 60000));
  dc.quota.max_logical_bytes = flags.get_size(
      "tenant-quota-mb", 0, 0, 1ull << 50, /*unit=*/1ull << 20);
  dc.quota.max_files = flags.get_uint("tenant-quota-files", 0, 0, 1ull << 32);
  dc.idle_timeout_ms = static_cast<std::uint32_t>(
      flags.get_uint("idle-timeout-ms", 30'000, 0, 3'600'000));
  dc.net_fault_plan = flags.get("net-fault-plan", "");
  dc.engine = config_from(flags, stack.active());

  // A daemon that may be restarted over a kill -9'd repository: repair
  // crash residue before accepting traffic, on the raw layer the offline
  // fsck_cli would use.
  if (fsck_on_start) {
    // The repair pass reports what it FOUND (and fixed); a read-only
    // second pass proves what is LEFT.
    const FsckReport rep = fsck_repository(stack.file(), /*repair=*/true);
    const bool clean =
        rep.clean() || fsck_repository(stack.file(), /*repair=*/false).clean();
    std::printf("fsck-on-start: %s (%llu issues found, %llu repaired)\n",
                clean ? "clean" : "damaged",
                static_cast<unsigned long long>(rep.issues.size()),
                static_cast<unsigned long long>(rep.repaired));
    if (!clean) {
      std::fprintf(stderr, "fsck-on-start: repository still damaged after "
                           "repair; refusing to serve\n");
      return 1;
    }
  }

  server::DedupDaemon daemon(stack.active(), stack.file(), dc);
  daemon.start();
  std::printf("dedup daemon listening on %s (max %u sessions)\n",
              daemon.listen_spec().c_str(), dc.max_sessions);
  std::fflush(stdout);

  std::signal(SIGINT, on_stop_signal);
  std::signal(SIGTERM, on_stop_signal);
  const std::uint64_t serve_seconds =
      flags.get_uint("serve-seconds", 0, 0, 86400);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(serve_seconds);
  while (!g_stop_requested) {
    if (serve_seconds != 0 && std::chrono::steady_clock::now() >= deadline) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  daemon.stop();
  std::printf("daemon stopped: %llu sessions served, %llu busy rejections\n",
              static_cast<unsigned long long>(daemon.sessions_served()),
              static_cast<unsigned long long>(daemon.busy_rejections()));
  std::printf("%s\n", daemon.stats_json().c_str());
  return 0;
}

/// --retries=N / --retry-budget-ms=N -> the client's backoff contract.
/// The default (0 retries) preserves the historical fail-fast behavior.
void apply_retry_flags(server::DedupClient& client, const Flags& flags) {
  server::RetryPolicy policy;
  policy.max_retries = static_cast<std::uint32_t>(
      flags.get_uint("retries", 0, 0, 10'000));
  policy.budget_ms = static_cast<std::uint32_t>(
      flags.get_uint("retry-budget-ms", 0, 0, 3'600'000));
  policy.seed = static_cast<std::uint64_t>(::getpid());
  client.set_retry_policy(policy);
}

int report(const server::DedupClient::Result& r) {
  if (r.ok) {
    std::printf("%s\n", r.message.c_str());
    return 0;
  }
  if (r.busy) {
    std::fprintf(stderr, "daemon busy, retry after %u ms\n", r.retry_after_ms);
    return 3;
  }
  std::fprintf(stderr, "%s%s\n", r.quota ? "quota: " : "error: ",
               r.message.c_str());
  return 1;
}

int cmd_client_put(const Flags& flags) {
  const auto& args = flags.positional();
  if (args.size() < 4) {
    std::fprintf(stderr, "usage: dedup_cli put <spec> <tenant> <file...>\n");
    return 2;
  }
  auto client = server::DedupClient::connect(args[1]);
  if (!client) {
    std::fprintf(stderr, "cannot connect to %s\n", args[1].c_str());
    return 1;
  }
  apply_retry_flags(*client, flags);
  for (std::size_t i = 3; i < args.size(); ++i) {
    {
      FileSource probe(args[i]);
      if (!probe.ok()) {
        std::fprintf(stderr, "cannot open %s\n", args[i].c_str());
        return 1;
      }
    }
    // Factory flavour: each (re)send attempt reopens the file, so a
    // retried PUT replays the bytes from the start.
    const std::string path = args[i];
    const int rc = report(client->put(
        args[2], path, [&path]() -> std::unique_ptr<ByteSource> {
          return std::make_unique<FileSource>(path);
        }));
    if (rc != 0) return rc;
  }
  return 0;
}

int cmd_client_get(const Flags& flags) {
  const auto& args = flags.positional();
  if (args.size() != 5) {
    std::fprintf(stderr, "usage: dedup_cli get <spec> <tenant> <name> <out>\n");
    return 2;
  }
  auto client = server::DedupClient::connect(args[1]);
  if (!client) {
    std::fprintf(stderr, "cannot connect to %s\n", args[1].c_str());
    return 1;
  }
  apply_retry_flags(*client, flags);
  std::ofstream out(args[4], std::ios::binary | std::ios::trunc);
  const auto r = client->get(args[2], args[3], [&](ByteSpan chunk) {
    out.write(reinterpret_cast<const char*>(chunk.data()),
              static_cast<std::streamsize>(chunk.size()));
  });
  if (!r.ok) {
    std::fprintf(stderr, "%s\n", r.message.c_str());
    return r.busy ? 3 : 1;
  }
  std::printf("restored %s -> %s (%llu bytes)\n", args[3].c_str(),
              args[4].c_str(), static_cast<unsigned long long>(r.produced));
  return 0;
}

int cmd_client_simple(const Flags& flags, const char* what) {
  const auto& args = flags.positional();
  const bool needs_tenant = std::string(what) == "ls";
  const bool needs_op = std::string(what) == "maintain";
  if (args.size() != (needs_tenant || needs_op ? 3u : 2u)) {
    std::fprintf(stderr, "usage: dedup_cli %s <spec>%s\n", what,
                 needs_tenant ? " <tenant>" : (needs_op ? " <gc|fsck>" : ""));
    return 2;
  }
  auto client = server::DedupClient::connect(args[1]);
  if (!client) {
    std::fprintf(stderr, "cannot connect to %s\n", args[1].c_str());
    return 1;
  }
  apply_retry_flags(*client, flags);
  if (needs_tenant) return report(client->ls(args[2]));
  if (needs_op) {
    if (args[2] == "gc") return report(client->maintain(server::MaintainOp::kGc));
    if (args[2] == "fsck") {
      return report(client->maintain(server::MaintainOp::kFsck));
    }
    std::fprintf(stderr, "unknown maintenance op: %s\n", args[2].c_str());
    return 2;
  }
  // --reset atomically zeroes the latency histograms with the snapshot
  // (bench phase boundaries); counters stay monotonic.
  return report(client->stats(flags.get_bool("reset", false)));
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const mhd::Flags flags(argc, argv);
    const auto& args = flags.positional();
    if (args.empty()) {
      std::fprintf(stderr,
                   "usage: dedup_cli <store|restore|verify|stats> ...\n");
      return 2;
    }
    if (args[0] == "store") return cmd_store(flags, /*verify_after=*/false);
    if (args[0] == "verify") return cmd_store(flags, /*verify_after=*/true);
    if (args[0] == "restore") return cmd_restore(flags);
    if (args[0] == "delete") return cmd_delete(flags);
    if (args[0] == "gc") return cmd_gc(flags);
    if (args[0] == "scrub") return cmd_scrub(flags);
    if (args[0] == "stats") return cmd_stats(flags);
    if (args[0] == "serve") return cmd_serve(flags);
    if (args[0] == "put") return cmd_client_put(flags);
    if (args[0] == "get") return cmd_client_get(flags);
    if (args[0] == "ls") return cmd_client_simple(flags, "ls");
    if (args[0] == "dstats") return cmd_client_simple(flags, "dstats");
    if (args[0] == "maintain") return cmd_client_simple(flags, "maintain");
    std::fprintf(stderr, "unknown command: %s\n", args[0].c_str());
    return 2;
  } catch (const mhd::FlagError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const mhd::StoreLockedError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 4;
  } catch (const mhd::CorruptObjectError& e) {
    std::fprintf(stderr, "%s\nrun 'fsck_cli repair <repo>' to recover\n",
                 e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
