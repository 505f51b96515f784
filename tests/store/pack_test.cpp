// FileBackend's packed namespaces (hooks, manifests, file manifests, chunk
// maps): the same results as MemoryBackend under random operations,
// reopens and folds, loose files of older repositories included; a torn
// last record at every byte; a damaged header named by fsck and dropped by
// the fold; every intermediate state of a fold; and concurrent use of one
// namespace.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <thread>

#include "mhd/core/mhd_engine.h"
#include "mhd/repo/repository.h"
#include "mhd/store/file_backend.h"
#include "mhd/store/maintenance.h"
#include "mhd/store/memory_backend.h"
#include "mhd/store/object_store.h"
#include "mhd/store/scrub.h"
#include "mhd/util/random.h"
#include "mhd/workload/presets.h"

namespace mhd {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    dir_ = fs::temp_directory_path() /
           ("mhd_pack_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++));
    fs::create_directories(dir_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  const fs::path& path() const { return dir_; }

 private:
  static inline int counter_ = 0;
  fs::path dir_;
};

ByteVec bytes_of(const std::string& s) { return to_vec(as_bytes(s)); }

std::vector<Ns> all_namespaces() {
  std::vector<Ns> out;
  for (int i = 0; i < static_cast<int>(Ns::kCount); ++i) {
    out.push_back(static_cast<Ns>(i));
  }
  return out;
}

std::vector<Ns> packed_namespaces() {
  std::vector<Ns> out;
  for (const Ns ns : all_namespaces()) {
    if (ns_layout(ns) == NsLayout::kPacked) out.push_back(ns);
  }
  return out;
}

/// Every object of every namespace with its bytes, as `backend` reads them.
using Objects = std::map<std::pair<int, std::string>, ByteVec>;
Objects objects(const StorageBackend& backend) {
  Objects out;
  for (const Ns ns : all_namespaces()) {
    for (const auto& name : backend.list(ns)) {
      const auto bytes = backend.get(ns, name);
      EXPECT_TRUE(bytes.has_value()) << ns_name(ns) << "/" << name;
      out[{static_cast<int>(ns), name}] = bytes.value_or(ByteVec{});
    }
  }
  return out;
}

/// What a fresh instance over `root` reads.
Objects objects_at(const fs::path& root) { return objects(FileBackend(root)); }

/// The pack files of a namespace, in `seq` order.
std::vector<fs::path> packs_of(const fs::path& root, Ns ns) {
  std::vector<std::pair<std::uint64_t, fs::path>> found;
  for (const auto& e : fs::directory_iterator(root / ns_name(ns))) {
    const std::string f = e.path().filename().string();
    if (f.ends_with(".pack")) {
      found.emplace_back(std::stoull(f.substr(0, f.size() - 5)), e.path());
    }
  }
  std::sort(found.begin(), found.end());
  std::vector<fs::path> out;
  for (auto& [seq, p] : found) out.push_back(p);
  return out;
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

void write_file(const fs::path& p, const std::string& bytes) {
  std::ofstream(p, std::ios::binary | std::ios::trunc) << bytes;
}

/// Offsets of the records of an undamaged pack, read from their headers.
std::vector<std::uint64_t> record_offsets(const std::string& pack) {
  std::vector<std::uint64_t> out;
  const auto* b = reinterpret_cast<const Byte*>(pack.data());
  for (std::uint64_t at = 0; at < pack.size();) {
    out.push_back(at);
    at += FileBackend::kRecordHeaderBytes + load_le<std::uint16_t>(b + at + 6) +
          load_le<std::uint64_t>(b + at + 8);
  }
  return out;
}

ByteVec random_bytes(Xoshiro256& rng, std::size_t n) {
  ByteVec out(n);
  for (auto& b : out) b = static_cast<Byte>(rng());
  return out;
}

// Random operations over every namespace, with reopens and folds between
// them: FileBackend answers as MemoryBackend does. Loose files planted
// before the first put stand for the objects of a repository written
// before packs, so puts, removes and tombstones over them are covered.
TEST(FilePacks, AgreesWithMemoryBackend) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    TempDir tmp;
    MemoryBackend mem;
    Xoshiro256 rng(seed);
    const std::vector<Ns> spaces = all_namespaces();
    auto name_of = [&] { return "obj" + std::to_string(rng.below(10)); };
    {
      FileBackend create(tmp.path());  // makes the namespace directories
    }
    for (const Ns ns : spaces) {
      for (int i = 0; i < 4; ++i) {
        const std::string name = name_of();
        const ByteVec bytes = random_bytes(rng, rng.below(64));
        write_file(tmp.path() / ns_name(ns) / name,
                   std::string(bytes.begin(), bytes.end()));
        mem.put(ns, name, bytes);
      }
    }
    auto file = std::make_unique<FileBackend>(tmp.path());
    for (int step = 0; step < 2000; ++step) {
      const Ns ns = spaces[rng.below(spaces.size())];
      const std::string name = name_of();
      const auto op = rng.below(100);
      if (op < 30) {
        const ByteVec bytes = random_bytes(rng, rng.below(200));
        file->put(ns, name, bytes);
        mem.put(ns, name, bytes);
      } else if (op < 36) {
        const ByteVec bytes = random_bytes(rng, rng.below(50));
        file->append(ns, name, bytes);
        mem.append(ns, name, bytes);
      } else if (op < 46) {
        ASSERT_EQ(file->remove(ns, name), mem.remove(ns, name)) << step;
      } else if (op < 60) {
        ASSERT_EQ(file->get(ns, name), mem.get(ns, name)) << step;
      } else if (op < 72) {
        const auto size = mem.get(ns, name).value_or(ByteVec{}).size();
        const auto offset = rng.below(size + 3);
        const auto length = rng.below(size + 3);
        ASSERT_EQ(file->get_range(ns, name, offset, length),
                  mem.get_range(ns, name, offset, length))
            << step;
      } else if (op < 80) {
        ASSERT_EQ(file->exists(ns, name), mem.exists(ns, name)) << step;
      } else if (op < 85) {
        ASSERT_EQ(file->list(ns), mem.list(ns)) << step;
      } else if (op < 90) {
        ASSERT_EQ(file->object_count(ns), mem.object_count(ns)) << step;
        ASSERT_EQ(file->content_bytes(ns), mem.content_bytes(ns)) << step;
      } else if (op < 97) {
        file = std::make_unique<FileBackend>(tmp.path());
      } else {
        file->sweep_temps();
      }
    }
    EXPECT_EQ(objects(*file), objects(mem));
    EXPECT_EQ(objects_at(tmp.path()), objects(mem));
    for (const Ns ns : spaces) {
      EXPECT_EQ(file->object_count(ns), mem.object_count(ns));
      EXPECT_EQ(file->content_bytes(ns), mem.content_bytes(ns));
    }
    EXPECT_TRUE(file->layout_damage().empty());
  }
}

TEST(FilePacks, PutAppendsToOnePackPerInstance) {
  TempDir tmp;
  {
    FileBackend a(tmp.path());
    for (int i = 0; i < 50; ++i) {
      a.put(Ns::kHook, "h" + std::to_string(i), bytes_of("hook"));
    }
    EXPECT_EQ(a.object_count(Ns::kHook), 50u);
  }
  EXPECT_EQ(packs_of(tmp.path(), Ns::kHook),
            std::vector<fs::path>{tmp.path() / "hooks" / "1.pack"});
  FileBackend b(tmp.path());
  b.put(Ns::kHook, "h0", bytes_of("newer"));
  EXPECT_EQ(packs_of(tmp.path(), Ns::kHook).size(), 2u);
  EXPECT_EQ(b.get(Ns::kHook, "h0"), bytes_of("newer"));
  // Nothing else lands in the directory: no temp, no loose file.
  EXPECT_EQ(std::distance(fs::directory_iterator(tmp.path() / "hooks"),
                          fs::directory_iterator{}),
            2);
}

// A reader opened beside a writer finds the writer's new objects on a miss.
TEST(FilePacks, AMissReadsWhatAnotherInstanceAppended) {
  TempDir tmp;
  FileBackend writer(tmp.path());
  FileBackend reader(tmp.path());
  writer.put(Ns::kManifest, "m0", bytes_of("zero"));
  EXPECT_EQ(reader.get(Ns::kManifest, "m0"), bytes_of("zero"));
  writer.put(Ns::kManifest, "m1", bytes_of("one"));
  EXPECT_TRUE(reader.exists(Ns::kManifest, "m1"));
  EXPECT_EQ(reader.get_range(Ns::kManifest, "m1", 1, 2), bytes_of("ne"));
  writer.remove(Ns::kManifest, "m0");
  EXPECT_EQ(reader.list(Ns::kManifest), std::vector<std::string>{"m1"});
}

// Cutting the last record anywhere leaves a torn tail: the earlier objects
// and the cut object's previous version stay readable, the check reports
// nothing, the fold truncates the tail, and the next put starts a new pack.
TEST(FilePacks, TornLastRecordAtEveryByte) {
  TempDir tmp;
  const fs::path root = tmp.path() / "repo";
  {
    FileBackend backend(root);
    backend.put(Ns::kHook, "a", bytes_of("alpha"));
    backend.put(Ns::kHook, "x", bytes_of("x-version-one"));
    backend.put(Ns::kHook, "b", bytes_of("beta"));
    backend.put(Ns::kHook, "x", bytes_of("x-version-two-is-longer"));
  }
  const fs::path pack = root / "hooks" / "1.pack";
  const std::string whole = read_file(pack);
  const std::uint64_t last = record_offsets(whole).back();
  // What the check says of these opaque objects without the last record:
  // a torn tail adds nothing to it.
  write_file(pack, whole.substr(0, last));
  FileBackend before_last(root);
  const std::string without_last =
      fsck_repository(before_last, false, {}, false).to_string();
  for (std::uint64_t keep = 0; keep < whole.size() - last; ++keep) {
    SCOPED_TRACE("kept " + std::to_string(keep) + " bytes of the last record");
    write_file(pack, whole.substr(0, last + keep));
    FileBackend reopened(root);
    EXPECT_EQ(reopened.get(Ns::kHook, "a"), bytes_of("alpha"));
    EXPECT_EQ(reopened.get(Ns::kHook, "b"), bytes_of("beta"));
    EXPECT_EQ(reopened.get(Ns::kHook, "x"), bytes_of("x-version-one"));
    EXPECT_EQ(reopened.object_count(Ns::kHook), 3u);
    EXPECT_TRUE(reopened.layout_damage().empty());
    EXPECT_EQ(fsck_repository(reopened, /*repair=*/false, {},
                              /*framed=*/false)
                  .to_string(),
              without_last);

    reopened.sweep_temps();
    EXPECT_EQ(fs::file_size(pack), last);
    reopened.put(Ns::kHook, "y", bytes_of("after"));
    EXPECT_EQ(packs_of(root, Ns::kHook),
              (std::vector<fs::path>{pack, root / "hooks" / "2.pack"}));
    EXPECT_EQ(read_file(pack), whole.substr(0, last));
    fs::remove(root / "hooks" / "2.pack");
  }
}

// A header that fails its check in the middle of a pack is damage: fsck
// names the region by pack and offset, the records after it survive, and
// repair (the fold, then fsck repair) saves its bytes under quarantine/
// and leaves a clean repository.
TEST(FilePacks, DamagedHeaderIsNamedAndTheRecordsAfterItSurvive) {
  TempDir tmp;
  const fs::path root = tmp.path() / "repo";
  EngineConfig cfg;
  cfg.ecs = 512;
  cfg.sd = 4;
  cfg.framed = true;
  const Corpus corpus(test_preset(5));
  {
    FileBackend file(root);
    BackendStack stack(file, cfg);
    ObjectStore store(stack.top(), stack.containers());
    MhdEngine engine(store, cfg);
    for (std::size_t i = 0; i < corpus.files().size(); ++i) {
      auto src = corpus.open(i);
      engine.add_file(corpus.files()[i].name, *src);
    }
    engine.finish();
  }
  const fs::path pack = root / "hooks" / "1.pack";
  std::string bytes = read_file(pack);
  const auto offsets = record_offsets(bytes);
  ASSERT_GE(offsets.size(), 5u);
  const std::size_t mid = offsets.size() / 2;
  const std::vector<std::string> hooks_before =
      FileBackend(root).list(Ns::kHook);
  bytes[offsets[mid] + 9] ^= 0x10;  // the payload length: the header CRC fails
  write_file(pack, bytes);

  FileBackend damaged(root);
  const auto damage = damaged.layout_damage();
  ASSERT_EQ(damage.size(), 1u);
  EXPECT_EQ(damage[0].ns, Ns::kHook);
  EXPECT_EQ(damage[0].file, "1.pack");
  EXPECT_EQ(damage[0].offset, offsets[mid]);
  EXPECT_EQ(damage[0].length, offsets[mid + 1] - offsets[mid]);
  EXPECT_EQ(damaged.object_count(Ns::kHook), hooks_before.size() - 1);
  for (std::size_t i = mid + 1; i < offsets.size(); ++i) {
    const std::string name(
        bytes.data() + offsets[i] + FileBackend::kRecordHeaderBytes,
        load_le<std::uint16_t>(reinterpret_cast<const Byte*>(bytes.data()) +
                               offsets[i] + 6));
    EXPECT_TRUE(damaged.exists(Ns::kHook, name)) << name;
  }
  const FsckReport check = fsck_repository(damaged, /*repair=*/false);
  EXPECT_FALSE(check.clean());
  const std::string where = "1.pack@" + std::to_string(offsets[mid]);
  EXPECT_TRUE(std::any_of(check.issues.begin(), check.issues.end(),
                          [&](const FsckIssue& i) {
                            return i.kind == FsckIssue::Kind::kCorrupt &&
                                   i.ns == Ns::kHook && i.name == where;
                          }))
      << check.to_string();
  // gc refuses, as it does on a file manifest that fails its check: the
  // region's objects are hidden, and marking without them could sweep
  // live chunks.
  const auto chunks = damaged.list(Ns::kDiskChunk);
  EXPECT_THROW(collect_garbage(damaged), CorruptObjectError);
  EXPECT_EQ(damaged.list(Ns::kDiskChunk), chunks);

  const auto quarantined = damaged.sweep_temps();
  ASSERT_EQ(quarantined.size(), 1u);
  EXPECT_EQ(to_string(quarantined[0]),
            "hooks/" + where + " (" + std::to_string(damage[0].length) +
                " bytes)");
  EXPECT_EQ(read_file(root / "quarantine" / "hooks" / where),
            bytes.substr(offsets[mid], offsets[mid + 1] - offsets[mid]));
  fsck_repository(damaged, /*repair=*/true, root / "quarantine");
  FileBackend repaired(root);
  const FsckReport after = fsck_repository(repaired, /*repair=*/false);
  EXPECT_TRUE(after.clean()) << after.to_string();
  EXPECT_EQ(repaired.object_count(Ns::kHook), hooks_before.size() - 1);
}

// The fold writes its pack, then unlinks the old packs oldest first and
// then the folded loose files. Rebuilding the on-disk state after each of
// its steps, a fresh instance reads the same objects at every one.
TEST(FilePacks, EveryFoldStepKeepsTheLiveSet) {
  TempDir tmp;
  const fs::path root = tmp.path() / "before";
  {
    FileBackend create(root);
  }
  const std::vector<Ns> packed = packed_namespaces();
  // Loose objects, as a repository written before packs has them: one
  // stays live, one is replaced and one erased by pack records.
  for (const Ns ns : packed) {
    for (const char* name : {"loose-live", "loose-replaced", "loose-erased"}) {
      write_file(root / ns_name(ns) / name, std::string("old ") + name);
    }
  }
  {
    FileBackend a(root);
    for (const Ns ns : packed) {
      a.put(ns, "p0", bytes_of("p0 in pack 1"));
      a.put(ns, "p1", bytes_of("p1 first version"));
      a.put(ns, "loose-replaced", bytes_of("replaced in pack 1"));
      ASSERT_TRUE(a.remove(ns, "loose-erased"));
    }
  }
  {
    FileBackend b(root);
    for (const Ns ns : packed) {
      b.put(ns, "p1", bytes_of("p1 second version"));
      ASSERT_TRUE(b.remove(ns, "p0"));  // erases a record of an older pack
      b.put(ns, "p2", bytes_of("p2 in pack 2"));
    }
  }
  // A put cut short: a torn tail on pack 2.
  std::map<Ns, std::uintmax_t> intact;
  for (const Ns ns : packed) {
    const fs::path p = root / ns_name(ns) / "2.pack";
    intact[ns] = fs::file_size(p);
    std::ofstream(p, std::ios::binary | std::ios::app) << "MHPK\x01";
  }
  const Objects want = objects_at(root);
  ASSERT_EQ(want.size(), packed.size() * 4);

  const fs::path folded = tmp.path() / "folded";
  fs::copy(root, folded, fs::copy_options::recursive);
  FileBackend(folded).sweep_temps();
  EXPECT_EQ(objects_at(folded), want);

  const fs::path state = tmp.path() / "state";
  fs::copy(root, state, fs::copy_options::recursive);
  int step = 0;
  auto check = [&](const std::string& what) {
    SCOPED_TRACE("step " + std::to_string(++step) + ": " + what);
    EXPECT_EQ(objects_at(state), want);
  };
  for (const Ns ns : packed) {
    const fs::path dir = state / ns_name(ns);
    fs::resize_file(dir / "2.pack", intact[ns]);
    check("torn tail truncated");
    fs::remove(dir / "loose-replaced");
    fs::remove(dir / "loose-erased");
    check("dead loose files unlinked");
    const auto fold_pack = packs_of(folded, ns);
    ASSERT_EQ(fold_pack.size(), 1u);
    EXPECT_EQ(fold_pack[0].filename(), "3.pack");
    fs::copy_file(fold_pack[0], dir / "3.pack.tmp");
    check("fold pack written as a temp");
    fs::rename(dir / "3.pack.tmp", dir / "3.pack");
    check("fold pack renamed into place");
    fs::remove(dir / "1.pack");
    check("pack 1 unlinked");
    fs::remove(dir / "2.pack");
    check("pack 2 unlinked");
    fs::remove(dir / "loose-live");
    check("folded loose file unlinked");
  }
  // Only the fold packs are left, and a second fold changes nothing.
  for (const Ns ns : packed) {
    EXPECT_EQ(std::distance(fs::directory_iterator(state / ns_name(ns)),
                            fs::directory_iterator{}),
              1);
    EXPECT_EQ(read_file(state / ns_name(ns) / "3.pack"),
              read_file(folded / ns_name(ns) / "3.pack"));
  }
  FileBackend(state).sweep_temps();
  for (const Ns ns : packed) {
    EXPECT_EQ(packs_of(state, ns),
              std::vector<fs::path>{state / ns_name(ns) / "3.pack"});
  }
}

// The daemon's sessions share one backend: puts, gets and removes of one
// namespace from several threads, each on its own names, while another
// thread lists. Run under the tsan preset too.
TEST(FilePacks, ConcurrentPutGetRemoveInOneNamespace) {
  TempDir tmp;
  FileBackend backend(tmp.path());
  constexpr int kThreads = 4;
  constexpr int kNames = 16;
  std::vector<std::map<std::string, ByteVec>> expected(kThreads);
  std::vector<int> mismatches(kThreads, 0);
  std::atomic<bool> done{false};
  std::thread lister([&] {
    while (!done.load()) {
      const auto names = backend.list(Ns::kManifest);
      EXPECT_LE(names.size(), static_cast<std::size_t>(kThreads * kNames));
      backend.object_count(Ns::kManifest);
    }
  });
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Xoshiro256 rng(100 + t);
      auto& mine = expected[t];
      for (int i = 0; i < 600; ++i) {
        const std::string name =
            "t" + std::to_string(t) + "-" + std::to_string(rng.below(kNames));
        const auto op = rng.below(3);
        if (op == 0) {
          const ByteVec bytes = random_bytes(rng, 1 + rng.below(100));
          backend.put(Ns::kManifest, name, bytes);
          mine[name] = bytes;
        } else if (op == 1) {
          const auto it = mine.find(name);
          const auto got = backend.get(Ns::kManifest, name);
          if (it == mine.end() ? got.has_value() : got != it->second) {
            ++mismatches[t];
          }
        } else {
          if (backend.remove(Ns::kManifest, name) != (mine.erase(name) == 1)) {
            ++mismatches[t];
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  done = true;
  lister.join();
  std::map<std::string, ByteVec> all;
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
    all.insert(expected[t].begin(), expected[t].end());
  }
  const FileBackend reopened(tmp.path());
  for (const FileBackend* b :
       {static_cast<const FileBackend*>(&backend), &reopened}) {
    std::map<std::string, ByteVec> got;
    for (const auto& name : b->list(Ns::kManifest)) {
      got[name] = b->get(Ns::kManifest, name).value_or(ByteVec{});
    }
    EXPECT_EQ(got, all);
  }
}

}  // namespace
}  // namespace mhd
