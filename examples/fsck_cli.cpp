// fsck_cli — offline checker/repairer for any repository, framed or not.
//
//   ./fsck_cli check  <repo_dir>            verify every object + refs
//   ./fsck_cli repair <repo_dir>            fix what is fixable:
//                                           torn chunk tails truncated to
//                                           the last intact record and
//                                           re-sealed, corrupt objects
//                                           quarantined under
//                                           <repo>/quarantine/ (framed
//                                           repositories), dangling hooks
//                                           and damaged disk-tier index
//                                           objects dropped, a stale
//                                           sampled tier rebuilt
//   ./fsck_cli corrupt <repo_dir> [opts]    test fixture: flip one stored
//                                           byte (--ns=hooks --index=0
//                                           --byte=-1 for the middle)
//   ./fsck_cli tear <repo_dir> [opts]       test fixture: cut bytes off a
//                                           chunk tail (--index=0 --cut=5)
//
// check exits 0 on a clean repository, 1 otherwise (orphans are
// informational and do not dirty the result); a usage or flag mistake
// exits 2. repair holds the repository's writer lock (store.lock) for its
// whole run and exits 4, touching nothing, while another live process
// holds it; check takes no lock. check and repair take the layout from
// the repository's descriptor (src/mhd/repo/) and exit 2, touching
// nothing, on a path without one. A framed repository's CRC framing is
// verified; on one stored without --framed the check is structural:
// references, manifest tiling and every manifest entry's SHA-1 against
// its chunk's bytes, in each daemon tenant's scope as in the root scope.
// The corrupt/tear fixtures write through the raw files, bypassing the
// backend — exactly the bit rot and torn writes the checks exist to
// catch.
//
// Container repositories (dedup_cli --container-mb) need no extra flags:
// fsck truncates torn container tails back to the last intact record,
// quarantines corrupt chunk maps, and cross-checks every chunk map extent
// against the surviving container bytes (--ns=containers / --ns=chunkmaps
// aim the fixtures at that layout).
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "mhd/repo/repository.h"
#include "mhd/store/scrub.h"

namespace {

using namespace mhd;

std::optional<Ns> ns_from_string(const std::string& s) {
  for (int i = 0; i < static_cast<int>(Ns::kCount); ++i) {
    if (s == ns_name(static_cast<Ns>(i))) return static_cast<Ns>(i);
  }
  return std::nullopt;
}

int cmd_check(const Flags& flags, bool repair) {
  const auto& args = flags.positional();
  if (args.size() != 2) {
    std::fprintf(stderr, "usage: fsck_cli %s <repo>\n",
                 repair ? "repair" : "check");
    return 2;
  }
  // fsck takes no engine flags: the descriptor alone gives the layout, and
  // a repository older than descriptors is adopted in memory only (no
  // flags here could give its chunking).
  Repository repo =
      open_repository(args[1], Flags(0, nullptr), OpenMode::kRead);
  // Repair mutates objects, so it holds the writer lock for its whole run.
  std::optional<StoreLock> lock;
  if (repair) lock.emplace(StoreLock::acquire(args[1]));
  const bool framed = repo.config().framed;
  const auto report = fsck_repository(
      repo.file(), repair, repo.file().root() / "quarantine", framed);
  std::printf("%s", report.to_string().c_str());
  if (report.clean()) {
    std::printf("repository is CLEAN%s\n",
                report.orphans != 0 ? " (orphans reclaimable via gc)" : "");
    return 0;
  }
  if (repair && report.repaired != 0) {
    // Everything repairable was repaired; a second pass reports what's left.
    FileBackend reopened(args[1]);
    const auto after = fsck_repository(reopened, false, {}, framed);
    std::printf("after repair: %s", after.to_string().c_str());
    return after.clean() ? 0 : 1;
  }
  std::printf("repository is DAMAGED%s\n",
              repair ? "" : " (try 'fsck_cli repair')");
  return 1;
}

/// Picks the --index'th object of --ns (sorted order) and returns its path.
std::optional<std::filesystem::path> target_object(const Flags& flags,
                                                   const FileBackend& backend,
                                                   const std::string& def_ns,
                                                   Ns* out_ns) {
  const auto ns = ns_from_string(flags.get("ns", def_ns));
  if (!ns) {
    std::fprintf(stderr, "unknown --ns (want diskchunks|hooks|manifests|"
                         "filemanifests|index|containers|chunkmaps)\n");
    return std::nullopt;
  }
  const auto names = backend.list(*ns);
  const auto index =
      static_cast<std::size_t>(flags.get_int("index", 0));
  if (index >= names.size()) {
    std::fprintf(stderr, "namespace %s has only %zu objects\n",
                 ns_name(*ns), names.size());
    return std::nullopt;
  }
  *out_ns = *ns;
  return backend.root() / ns_name(*ns) / names[index];
}

int cmd_corrupt(const Flags& flags) {
  const auto& args = flags.positional();
  if (args.size() != 2) {
    std::fprintf(stderr, "usage: fsck_cli corrupt <repo> [--ns=hooks] "
                         "[--index=0] [--byte=-1]\n");
    return 2;
  }
  FileBackend backend(args[1]);
  Ns ns;
  const auto path = target_object(flags, backend, "hooks", &ns);
  if (!path) return 1;

  std::fstream file(*path, std::ios::binary | std::ios::in | std::ios::out);
  file.seekg(0, std::ios::end);
  const auto size = static_cast<long long>(file.tellg());
  if (size <= 0) return 1;
  long long offset = flags.get_int("byte", -1);
  if (offset < 0) offset = size / 2;
  if (offset >= size) offset = size - 1;
  file.seekg(offset);
  char byte = 0;
  file.read(&byte, 1);
  byte ^= 0x01;  // single-bit flip: the weakest corruption we must catch
  file.seekp(offset);
  file.write(&byte, 1);
  std::printf("flipped bit 0 of byte %lld in %s\n", offset,
              path->string().c_str());
  return file ? 0 : 1;
}

int cmd_tear(const Flags& flags) {
  const auto& args = flags.positional();
  if (args.size() != 2) {
    std::fprintf(stderr, "usage: fsck_cli tear <repo> [--index=0] [--cut=5]\n");
    return 2;
  }
  FileBackend backend(args[1]);
  Ns ns;
  const auto path = target_object(flags, backend, "diskchunks", &ns);
  if (!path) return 1;
  const auto size = std::filesystem::file_size(*path);
  const auto cut = static_cast<std::uint64_t>(flags.get_int("cut", 5));
  if (cut >= size) {
    std::fprintf(stderr, "cut %llu >= object size %llu\n",
                 static_cast<unsigned long long>(cut),
                 static_cast<unsigned long long>(size));
    return 1;
  }
  std::filesystem::resize_file(*path, size - cut);
  std::printf("tore %llu bytes off %s\n",
              static_cast<unsigned long long>(cut), path->string().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const mhd::Flags flags(argc, argv);
    const auto& args = flags.positional();
    if (args.empty()) {
      std::fprintf(stderr,
                   "usage: fsck_cli <check|repair|corrupt|tear> ...\n");
      return 2;
    }
    if (args[0] == "check") return cmd_check(flags, /*repair=*/false);
    if (args[0] == "repair") return cmd_check(flags, /*repair=*/true);
    if (args[0] == "corrupt") return cmd_corrupt(flags);
    if (args[0] == "tear") return cmd_tear(flags);
    std::fprintf(stderr, "unknown command: %s\n", args[0].c_str());
    return 2;
  } catch (const mhd::FlagError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const mhd::StoreLockedError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 4;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
