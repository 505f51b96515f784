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
// A repository owns its config (src/mhd/repo/): --framed, --container-mb,
// --index-impl, --chunker, --ecs and --sd are fixed when store, verify or
// serve creates it, recorded in its `descriptor` file, and refused later
// when they differ from it. Older repositories are adopted.
//
// Exit codes: 0 success; 1 failure (also a damaged descriptor); 2 usage
// or flag mistake, a flag conflicting with the repository, or no
// repository at the path; 3 daemon busy; 4 repository locked.
//
// Options: --ecs=4096 --sd=64 --chunker=rabin|tttd|gear|fixed
//          --chunker-impl=auto|scalar|simd --hash-impl=auto|shani|simd|portable
//          --index-impl=mem|disk|sampled: `disk` persists the index under
//          index/ behind a --index-cache-mb=8 page cache; `sampled` keeps a
//          hook table of fingerprints with --sample-bits=6 low zero bits,
//          loads up to --champions=10 similar segments per hit and counts
//          the duplicates it misses (its meta object keeps the sample rate)
//          --framed   CRC32C self-verification framing (fsck_cli checks it)
//          --fault-plan=SPEC   deterministic storage faults below the
//          framing, e.g. torn@120:0.5,readerr@3x2,seed:7 (grammar in
//          store/fault_backend.h)
//          --container-mb=N   pack chunk data into containers, restored
//          through a --restore-cache-mb=32 cache; --rewrite=none|cbr|har
//          controls fragmentation (cbr caps old containers per segment,
//          har rewrites duplicates out of containers that went sparse)
//          Sizes take K/M/G suffixes; a bare number means MB.
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <thread>

#include "mhd/core/mhd_engine.h"
#include "mhd/metrics/metrics.h"
#include "mhd/repo/repository.h"
#include "mhd/server/client.h"
#include "mhd/server/daemon.h"
#include "mhd/store/maintenance.h"
#include "mhd/store/restore_reader.h"
#include "mhd/store/scrub.h"

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

int cmd_store(const Flags& flags, bool verify_after) {
  const auto& args = flags.positional();
  if (args.size() < 3) {
    std::fprintf(stderr, "usage: dedup_cli store <repo> <file...>\n");
    return 2;
  }
  Repository repo = open_repository(args[1], flags, OpenMode::kCreate);
  ObjectStore store(repo.stack().top());
  MhdEngine engine(store, repo.config());

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
  if (auto* containers = repo.stack().containers()) {
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
  Repository repo = open_repository(args[1], flags, OpenMode::kRead);
  // Streaming restore: O(buffer) memory regardless of image size.
  auto reader = RestoreReader::open(repo.stack().top(), args[2]);
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
  if (auto* containers = repo.stack().containers()) {
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
  Repository repo = open_repository(args[1], flags, OpenMode::kWrite);
  int missing = 0;
  for (std::size_t i = 2; i < args.size(); ++i) {
    if (delete_file(repo.stack().top(), args[i])) {
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
  Repository repo = open_repository(args[1], flags, OpenMode::kWrite);
  const auto r = collect_garbage(repo.stack().top());
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
  Repository repo = open_repository(args[1], flags, OpenMode::kRead);
  const auto r = scrub_repository(repo.stack().top());
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
  Repository repo = open_repository(args[1], flags, OpenMode::kRead);
  StorageBackend& backend = repo.stack().top();
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
  Repository repo = open_repository(args[1], flags, OpenMode::kCreate);
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
  dc.engine = repo.config();

  // A daemon that may be restarted over a kill -9'd repository: repair
  // crash residue before accepting traffic, on the raw layer the offline
  // fsck_cli would use, before the layers above it open.
  if (flags.get_bool("fsck-on-start", false)) {
    // fsck checks CRC framing: it would quarantine every unframed object.
    if (!repo.config().framed) {
      std::fprintf(stderr, "fsck-on-start: %s is not a framed repository; "
                           "check it with 'dedup_cli scrub %s'\n",
                   args[1].c_str(), args[1].c_str());
      return 2;
    }
    // The repair pass reports what it FOUND (and fixed); a read-only
    // second pass proves what is LEFT.
    const FsckReport rep = fsck_repository(repo.file(), /*repair=*/true);
    const bool clean =
        rep.clean() || fsck_repository(repo.file(), /*repair=*/false).clean();
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

  server::DedupDaemon daemon(repo.stack().top(), repo.file(), dc);
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
                   "usage: dedup_cli <store|verify|restore|delete|gc|scrub|"
                   "stats|serve|put|get|ls|dstats|maintain> ...\n");
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
