// index_throughput — fingerprint-index op throughput, mem vs. disk, plus
// the sampled similarity tier at 10–100× corpus scale:
//
//   ./index_throughput [--keys=200000] [--index-cache-mb=8]
//                      [--shards=256] [--reps=3]
//                      [--sampled-scales=10,100] [--sampled-bits=8,10]
//                      [--segment-chunks=8192] [--resident-entries=8192]
//                      [--json=BENCH_index.json]
//
// Measures, best-of-reps, millions of ops/s for the three access patterns
// a dedup ingest generates — insert (new fingerprint), lookup-hit (a
// duplicate), lookup-miss (unique data, the common case the bloom front
// exists for) — against:
//
//   mem         MemIndex, the historical always-resident map
//   disk-cold   PersistentIndex populated in this process (delta + pages)
//   disk-warm   the same backend reopened: bloom snapshot loaded, pages
//               faulted through the bounded cache (the warm-restart path)
//
// RAM accounting is printed alongside: the disk index's high-water must
// sit near its configured page-cache budget + bloom, not near the
// MemIndex's O(keys) footprint — that bounded-RAM-at-speed trade is the
// whole point of --index-impl=disk.
//
// The sampled sweep streams scale×keys fingerprints through a SampledIndex
// the way an engine would: fingerprints arrive in segments of
// --segment-chunks (one manifest per segment), the resident map is capped
// at --resident-entries by evicting the oldest whole segments (the
// manifest-cache mirror), and hooks accumulate in the sparse table. A
// second pass replays the identical stream as duplicates: a hit is either
// resident or reached by loading the hook's champion segment — everything
// else is the tier's measured dedup loss. RAM is compared against a disk
// index actually populated at the same scale (measured up to 4M keys,
// modeled as page-cache budget + bloom above that).
//
// BENCH_index.json at the repo root is the recorded baseline (see --json).
#include <algorithm>
#include <cstdio>
#include <deque>
#include <fstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "mhd/hash/sha1.h"
#include "mhd/index/mem_index.h"
#include "mhd/index/persistent_index.h"
#include "mhd/index/sampled_index.h"
#include "mhd/store/memory_backend.h"
#include "mhd/util/flags.h"
#include "mhd/util/random.h"
#include "mhd/util/table.h"
#include "mhd/util/timer.h"

namespace {

using namespace mhd;

Digest digest_of(std::uint64_t n) {
  ByteVec v;
  append_le<std::uint64_t>(v, n);
  return Sha1::hash(v);
}

struct Row {
  std::string impl;
  std::string phase;
  std::uint64_t ops = 0;
  double seconds = 0;

  double mops() const { return ops / seconds / 1e6; }
};

/// Best-of-reps timing of `fn` over `ops` operations.
template <typename Fn>
Row time_phase(const std::string& impl, const std::string& phase,
               std::uint64_t ops, int reps, Fn&& fn) {
  Row row{impl, phase, ops, 0};
  for (int r = 0; r < reps; ++r) {
    const Stopwatch watch;
    fn();
    const double s = watch.seconds();
    if (row.seconds == 0 || s < row.seconds) row.seconds = s;
  }
  return row;
}

void run_lookups(FingerprintIndex& index, const std::vector<Digest>& keys,
                 bool expect_hit) {
  std::uint64_t hits = 0;
  for (const Digest& fp : keys) hits += index.lookup(fp).has_value() ? 1 : 0;
  if (expect_hit ? hits != keys.size() : hits != 0) {
    std::fprintf(stderr, "FATAL: %llu/%zu unexpected lookup results — the "
                         "index under benchmark is wrong, numbers void\n",
                 static_cast<unsigned long long>(expect_hit
                                                     ? keys.size() - hits
                                                     : hits),
                 keys.size());
    std::exit(1);
  }
}

/// "10,100" -> {10, 100}; malformed pieces are skipped.
std::vector<std::uint32_t> parse_u32_list(const std::string& s) {
  std::vector<std::uint32_t> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    const std::size_t comma = s.find(',', pos);
    const std::string piece =
        s.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!piece.empty()) {
      out.push_back(static_cast<std::uint32_t>(std::stoul(piece)));
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

/// One (scale, sample_bits) configuration of the sampled sweep.
struct SampledRun {
  std::uint32_t scale = 0;
  std::uint32_t bits = 0;
  std::uint64_t total = 0;
  std::uint64_t segments = 0;
  double ingest_seconds = 0;
  double replay_seconds = 0;
  std::uint64_t ram_hw = 0;
  std::uint64_t hook_table_bytes = 0;
  std::uint64_t hook_entries = 0;
  std::uint64_t champion_loads = 0;
  std::uint64_t dup_found = 0;
  std::uint64_t disk_ram = 0;  ///< same-scale disk index RAM high-water
  bool disk_ram_measured = false;  ///< false = budget+bloom model

  double detected() const {
    return total == 0 ? 0.0
                      : static_cast<double>(dup_found) /
                            static_cast<double>(total);
  }
  double loss() const { return 1.0 - detected(); }
  double ram_reduction() const {
    return ram_hw == 0 ? 0.0
                       : static_cast<double>(disk_ram) /
                             static_cast<double>(ram_hw);
  }
};

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const auto keys_n = flags.get_uint("keys", 200000, 1000, 50u << 20);
  const auto cache_bytes = flags.get_size("index-cache-mb", 8ull << 20,
                                          64u << 10, 1ull << 40, 1ull << 20);
  const auto shards =
      static_cast<std::uint32_t>(flags.get_uint("shards", 256, 1, 4096));
  const int reps = static_cast<int>(flags.get_uint("reps", 3, 1, 100));

  std::vector<Digest> present, absent;
  present.reserve(keys_n);
  absent.reserve(keys_n);
  for (std::uint64_t i = 0; i < keys_n; ++i) {
    present.push_back(digest_of(i));
    absent.push_back(digest_of(i + (1ull << 40)));
  }
  // Lookups in an order unrelated to insertion: no accidental locality.
  Xoshiro256 rng(11);
  std::shuffle(present.begin(), present.end(), rng);

  const auto entry_for = [](const Digest& fp) {
    return IndexEntry{Sha1::hash(fp.span()), fp.prefix64() % 4096};
  };

  std::vector<Row> rows;

  // --- mem --------------------------------------------------------------
  MemIndex mem;
  rows.push_back(time_phase("mem", "insert", keys_n, 1, [&] {
    for (const Digest& fp : present) mem.put(fp, entry_for(fp));
  }));
  rows.push_back(time_phase("mem", "lookup-hit", keys_n, reps,
                            [&] { run_lookups(mem, present, true); }));
  rows.push_back(time_phase("mem", "lookup-miss", keys_n, reps,
                            [&] { run_lookups(mem, absent, false); }));
  const std::uint64_t mem_ram = mem.ram_high_water();

  // --- disk, cold (populate + compact in-process) -----------------------
  PersistentIndexConfig cfg;
  cfg.shards = shards;
  cfg.cache_bytes = cache_bytes;
  cfg.expected_keys = keys_n;
  MemoryBackend backend;
  std::uint64_t cold_ram = 0, cold_page_ram = 0;
  {
    PersistentIndex disk(backend, cfg);
    rows.push_back(time_phase("disk-cold", "insert", keys_n, 1, [&] {
      for (const Digest& fp : present) disk.put(fp, entry_for(fp));
    }));
    disk.compact();
    disk.flush();
    rows.push_back(time_phase("disk-cold", "lookup-hit", keys_n, reps,
                              [&] { run_lookups(disk, present, true); }));
    rows.push_back(time_phase("disk-cold", "lookup-miss", keys_n, reps,
                              [&] { run_lookups(disk, absent, false); }));
    cold_ram = disk.ram_high_water();
    cold_page_ram = disk.page_cache_ram_high_water();
  }

  // --- disk, warm reopen (the restart path) -----------------------------
  PersistentIndex warm(backend, cfg);
  if (warm.entry_count() != keys_n) {
    std::fprintf(stderr, "FATAL: reopen lost entries (%llu != %llu)\n",
                 static_cast<unsigned long long>(warm.entry_count()),
                 static_cast<unsigned long long>(keys_n));
    return 1;
  }
  rows.push_back(time_phase("disk-warm", "lookup-hit", keys_n, reps,
                            [&] { run_lookups(warm, present, true); }));
  rows.push_back(time_phase("disk-warm", "lookup-miss", keys_n, reps,
                            [&] { run_lookups(warm, absent, false); }));
  const std::uint64_t warm_ram = warm.ram_high_water();
  const std::uint64_t warm_page_ram = warm.page_cache_ram_high_water();

  // --- sampled similarity tier, 10–100× corpus scale --------------------
  const auto scales = parse_u32_list(flags.get("sampled-scales", "10,100"));
  const auto bits_list = parse_u32_list(flags.get("sampled-bits", "8,10"));
  const std::uint64_t seg_chunks =
      flags.get_uint("segment-chunks", 8192, 64, 1u << 20);
  const std::uint64_t resident_cap = std::max<std::uint64_t>(
      flags.get_uint("resident-entries", 8192, 64, 1u << 24), seg_chunks);
  // A disk index populated at the same scale is the RAM yardstick;
  // measured up to 4M keys, modeled (page-cache budget + bloom) above.
  std::unordered_map<std::uint32_t, std::uint64_t> disk_at_scale;
  std::vector<SampledRun> sruns;
  for (const std::uint32_t scale : scales) {
    const std::uint64_t total = static_cast<std::uint64_t>(scale) * keys_n;
    const bool measure_disk = total <= 4'000'000;
    if (measure_disk && disk_at_scale.find(scale) == disk_at_scale.end()) {
      PersistentIndexConfig dcfg = cfg;
      dcfg.expected_keys = total;
      MemoryBackend dbackend;
      PersistentIndex scaled_disk(dbackend, dcfg);
      for (std::uint64_t i = 0; i < total; ++i) {
        scaled_disk.put(digest_of(i), entry_for(digest_of(i)));
      }
      scaled_disk.compact();
      scaled_disk.flush();
      disk_at_scale[scale] = scaled_disk.ram_high_water();
    }
    for (const std::uint32_t bits : bits_list) {
      SampledRun run;
      run.scale = scale;
      run.bits = bits;
      run.total = total;
      run.segments = (total + seg_chunks - 1) / seg_chunks;

      MemoryBackend sbackend;
      SampledIndexConfig scfg;
      scfg.sample_bits = bits;
      SampledIndex sampled(sbackend, scfg);

      // Segment s covers fingerprints [s*G, (s+1)*G) under one manifest.
      std::vector<Digest> manifest_of(run.segments);
      std::unordered_map<Digest, std::uint64_t, DigestHasher> seg_of;
      for (std::uint64_t s = 0; s < run.segments; ++s) {
        ByteVec v;
        append_le<std::uint64_t>(v, s);
        append_le<std::uint64_t>(v, 0x5347u);  // segment-name domain tag
        manifest_of[s] = Sha1::hash(v);
        seg_of.emplace(manifest_of[s], s);
      }

      const auto seg_len = [&](std::uint64_t s) {
        return std::min<std::uint64_t>(seg_chunks, total - s * seg_chunks);
      };
      std::deque<std::uint64_t> window;  // resident segments, oldest first
      std::unordered_set<std::uint64_t> resident_segs;
      std::uint64_t resident_entries = 0;
      // Room is made BEFORE inserting, so the resident map never
      // overshoots the cap mid-segment (the cache would not either).
      const auto evict_for = [&](std::uint64_t incoming) {
        while (!window.empty() &&
               resident_entries + incoming > resident_cap) {
          const std::uint64_t old = window.front();
          window.pop_front();
          resident_segs.erase(old);
          const std::uint64_t base = old * seg_chunks, n = seg_len(old);
          for (std::uint64_t j = 0; j < n; ++j) {
            sampled.erase(digest_of(base + j));
          }
          resident_entries -= n;
        }
      };
      const auto load_segment = [&](std::uint64_t s) {
        const std::uint64_t base = s * seg_chunks, n = seg_len(s);
        evict_for(n);
        for (std::uint64_t j = 0; j < n; ++j) {
          sampled.put(digest_of(base + j),
                      IndexEntry{manifest_of[s], j * 4096});
        }
        window.push_back(s);
        resident_segs.insert(s);
        resident_entries += n;
      };

      {
        const Stopwatch watch;
        for (std::uint64_t s = 0; s < run.segments; ++s) load_segment(s);
        run.ingest_seconds = watch.seconds();
      }
      sampled.flush();

      // Replay the identical stream as duplicates. A fingerprint counts
      // as detected when it is resident or becomes resident after the
      // hook's champion segments load — the engine's exact decision path.
      {
        const Stopwatch watch;
        for (std::uint64_t i = 0; i < total; ++i) {
          const Digest fp = digest_of(i);
          if (sampled.lookup(fp)) {
            ++run.dup_found;
            continue;
          }
          bool loaded = false;
          for (const Digest& m : sampled.champions_for(fp)) {
            const auto it = seg_of.find(m);
            if (it == seg_of.end() || resident_segs.count(it->second)) {
              continue;
            }
            load_segment(it->second);
            sampled.note_champion_load();
            loaded = true;
          }
          if (loaded && sampled.lookup(fp)) ++run.dup_found;
        }
        run.replay_seconds = watch.seconds();
      }

      run.ram_hw = sampled.ram_high_water();
      const SampledStats stats = sampled.sampled_stats();
      run.hook_table_bytes = stats.hook_table_bytes;
      run.hook_entries = stats.hook_entries;
      run.champion_loads = stats.champion_loads;
      if (const auto it = disk_at_scale.find(scale);
          it != disk_at_scale.end()) {
        run.disk_ram = it->second;
        run.disk_ram_measured = true;
      } else {
        run.disk_ram =
            cache_bytes + total * cfg.bloom_bits_per_key / 8;
      }
      sruns.push_back(run);
    }
  }

  std::printf("fingerprint index throughput, %llu keys (shards=%u, "
              "cache=%0.1f MB)\n\n",
              static_cast<unsigned long long>(keys_n), shards,
              cache_bytes / 1048576.0);
  TextTable t({"Impl", "Phase", "Mops/s"});
  for (const auto& r : rows) {
    t.add_row({r.impl, r.phase, TextTable::num(r.mops(), 2)});
  }
  std::printf("%s\n", t.to_string().c_str());
  TextTable m({"Impl", "RAM high-water KB", "page cache KB", "budget KB"});
  m.add_row({"mem", TextTable::num(mem_ram / 1024), "-", "-"});
  m.add_row({"disk-cold", TextTable::num(cold_ram / 1024),
             TextTable::num(cold_page_ram / 1024),
             TextTable::num(cache_bytes / 1024)});
  m.add_row({"disk-warm", TextTable::num(warm_ram / 1024),
             TextTable::num(warm_page_ram / 1024),
             TextTable::num(cache_bytes / 1024)});
  std::printf("%s", m.to_string().c_str());

  if (!sruns.empty()) {
    std::printf("\nsampled similarity tier (segment=%llu chunks, resident "
                "cap=%llu entries)\n\n",
                static_cast<unsigned long long>(seg_chunks),
                static_cast<unsigned long long>(resident_cap));
    TextTable s({"Scale", "Bits", "Keys", "Ingest Mops/s", "Replay Mops/s",
                 "RAM KB", "Hook KB", "Dup found", "Loss", "vs disk RAM"});
    for (const auto& r : sruns) {
      s.add_row({TextTable::num(static_cast<std::uint64_t>(r.scale)) + "x",
                 TextTable::num(static_cast<std::uint64_t>(r.bits)),
                 TextTable::num(r.total),
                 TextTable::num(r.total / r.ingest_seconds / 1e6, 2),
                 TextTable::num(r.total / r.replay_seconds / 1e6, 2),
                 TextTable::num(r.ram_hw / 1024),
                 TextTable::num(r.hook_table_bytes / 1024),
                 TextTable::num(r.detected() * 100, 1) + "%",
                 TextTable::num(r.loss() * 100, 1) + "%",
                 TextTable::num(r.ram_reduction(), 1) + "x" +
                     (r.disk_ram_measured ? "" : " (model)")});
    }
    std::printf("%s", s.to_string().c_str());
  }

  if (cold_page_ram > cache_bytes || warm_page_ram > cache_bytes) {
    std::fprintf(stderr, "FATAL: page cache exceeded its budget\n");
    return 1;
  }

  const std::string json = flags.get("json", "");
  if (!json.empty()) {
    std::ofstream out(json);
    out << "{\n  \"bench\": \"index_throughput\",\n"
        << "  \"keys\": " << keys_n << ",\n"
        << "  \"shards\": " << shards << ",\n"
        << "  \"cache_bytes\": " << cache_bytes << ",\n  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "    {\"impl\": \"%s\", \"phase\": \"%s\", "
                    "\"mops_per_s\": %.2f}%s\n",
                    rows[i].impl.c_str(), rows[i].phase.c_str(),
                    rows[i].mops(), i + 1 < rows.size() ? "," : "");
      out << buf;
    }
    out << "  ],\n  \"ram_high_water_bytes\": {\"mem\": " << mem_ram
        << ", \"disk_cold\": " << cold_ram
        << ", \"disk_warm\": " << warm_ram
        << ", \"disk_page_cache_budget\": " << cache_bytes << "},\n";
    out << "  \"sampled\": {\n    \"segment_chunks\": " << seg_chunks
        << ",\n    \"resident_entries\": " << resident_cap
        << ",\n    \"runs\": [\n";
    for (std::size_t i = 0; i < sruns.size(); ++i) {
      const SampledRun& r = sruns[i];
      char buf[512];
      std::snprintf(
          buf, sizeof(buf),
          "      {\"scale\": %u, \"sample_bits\": %u, \"keys\": %llu, "
          "\"ingest_mops_per_s\": %.2f, \"replay_mops_per_s\": %.2f, "
          "\"ram_high_water_bytes\": %llu, \"hook_table_bytes\": %llu, "
          "\"hook_entries\": %llu, \"champion_loads\": %llu, "
          "\"dup_detected_ratio\": %.4f, \"missed_dup_ratio\": %.4f, "
          "\"disk_ram_bytes\": %llu, \"disk_ram_measured\": %s, "
          "\"ram_reduction_vs_disk\": %.1f}%s\n",
          r.scale, r.bits, static_cast<unsigned long long>(r.total),
          r.total / r.ingest_seconds / 1e6, r.total / r.replay_seconds / 1e6,
          static_cast<unsigned long long>(r.ram_hw),
          static_cast<unsigned long long>(r.hook_table_bytes),
          static_cast<unsigned long long>(r.hook_entries),
          static_cast<unsigned long long>(r.champion_loads), r.detected(),
          r.loss(), static_cast<unsigned long long>(r.disk_ram),
          r.disk_ram_measured ? "true" : "false", r.ram_reduction(),
          i + 1 < sruns.size() ? "," : "");
      out << buf;
    }
    out << "    ]\n  }\n}\n";
    std::printf("wrote %s\n", json.c_str());
  }
  return 0;
}
