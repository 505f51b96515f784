// Evaluation metrics — Section V of the paper.
//
//  * data-only DER     : input bytes / stored data bytes
//  * real DER          : input bytes / (stored data + ALL metadata, from
//                        the file system's perspective: inodes at 256 B
//                        each + hook + manifest + filemanifest bytes)
//  * MetaDataRatio     : total metadata bytes / input bytes
//  * ThroughputRatio   : T(plain copy) / T(dedup); both are CPU time plus
//                        DiskModel time, so a value < 1 means dedup is
//                        slower than copying (as in the paper's Fig. 8)
//  * DAD               : duplicate bytes / duplicate slices (Fig. 10a)
#pragma once

#include <string>

#include "mhd/dedup/engine.h"
#include "mhd/repo/repository.h"
#include "mhd/store/disk_model.h"
#include "mhd/store/memory_backend.h"

namespace mhd {

/// Per-namespace metadata accounting pulled from a storage backend.
struct MetadataBreakdown {
  std::uint64_t inodes_diskchunks = 0;
  std::uint64_t inodes_hooks = 0;
  std::uint64_t inodes_manifests = 0;
  std::uint64_t inodes_filemanifests = 0;
  std::uint64_t hook_bytes = 0;
  std::uint64_t manifest_bytes = 0;
  std::uint64_t filemanifest_bytes = 0;

  static MetadataBreakdown from(const StorageBackend& backend);

  std::uint64_t total_inodes() const {
    return inodes_diskchunks + inodes_hooks + inodes_manifests +
           inodes_filemanifests;
  }
  std::uint64_t inode_bytes() const {
    return total_inodes() * StorageBackend::kInodeBytes;
  }
  /// All metadata bytes: inode overhead + metadata file contents.
  std::uint64_t total_bytes() const {
    return inode_bytes() + hook_bytes + manifest_bytes + filemanifest_bytes;
  }
  /// Hook + Manifest content bytes (paper Fig. 7(b) / TABLE IV).
  std::uint64_t hook_manifest_bytes() const {
    return hook_bytes + manifest_bytes;
  }
};

/// One measured restore pass (filled by benches/CLIs — summarize() never
/// runs a restore itself).
struct RestoreMetrics {
  std::uint64_t bytes = 0;   ///< logical bytes restored
  double seconds = 0;
  /// Whole-container loads this restore caused (ContainerStats diff);
  /// zero on a legacy per-chunk store.
  std::uint64_t container_reads = 0;
  std::uint64_t cache_hits = 0;
  /// Chunk-fragmentation level: optimal container reads
  /// (ceil(bytes/container_bytes)) over actual reads. 1.0 = perfectly
  /// sequential layout; falls toward 0 as duplicates scatter the stream
  /// across old containers. 0 when nothing was measured.
  double cfl = 0;

  double mb_per_s() const {
    return seconds <= 0 ? 0.0
                        : static_cast<double>(bytes) / (1 << 20) / seconds;
  }
  double containers_read_per_mb() const {
    return bytes == 0 ? 0.0
                      : static_cast<double>(container_reads) /
                            (static_cast<double>(bytes) / (1 << 20));
  }
};

/// Everything one (algorithm, ECS, SD, corpus) run produces.
struct ExperimentResult {
  std::string algorithm;
  std::uint32_t ecs = 0;
  std::uint32_t sd = 0;
  std::string chunker = "rabin";        ///< cut-point algorithm
  std::string chunker_impl = "scalar";  ///< resolved scan kernel
  std::string hash_impl = "portable";   ///< resolved SHA-1 kernel

  std::uint64_t input_bytes = 0;
  std::uint64_t stored_data_bytes = 0;  ///< DiskChunk content (logical)
  /// Physical DiskChunk bytes including self-verification framing; equals
  /// stored_data_bytes on an unframed store.
  std::uint64_t physical_data_bytes = 0;
  bool framed = false;
  MetadataBreakdown metadata;
  EngineCounters counters;
  StorageStats stats;
  std::uint64_t manifest_loads = 0;   ///< TABLE V
  std::uint64_t index_ram_bytes = 0;  ///< TABLE III (RAM high-water)
  std::string index_impl = "mem";   ///< "mem" | "disk" | "sampled" | "none"
  std::uint64_t index_entries = 0;  ///< fingerprints the index knows
  /// Sampled similarity tier (zero unless index_impl == "sampled").
  std::uint32_t sample_bits = 0;           ///< hook sampling rate (1/2^bits)
  std::uint64_t sampled_hook_entries = 0;  ///< sparse hook-table keys
  /// Measured hook-table RAM (keys + champion references) — the part of
  /// the tier whose footprint scales with the corpus.
  std::uint64_t sampled_hook_table_bytes = 0;
  std::uint64_t champion_loads = 0;        ///< segments pulled in on hook hits
  /// Duplicate bytes the sampled tier stored again because no loaded
  /// champion covered them — the measured dedup-ratio loss vs exact.
  std::uint64_t sampled_missed_dup_bytes = 0;
  std::uint64_t sampled_missed_dup_chunks = 0;

  // Container store + rewrite (zero/"none" without --container-mb).
  std::uint64_t container_bytes = 0;  ///< configured container size
  std::string rewrite_mode = "none";
  std::uint64_t containers_sealed = 0;
  std::uint64_t container_packed_bytes = 0;
  /// Last measured restore pass, if the caller ran one (see
  /// measure_restore in sim/runner.h); all-zero otherwise.
  RestoreMetrics restore;

  double dedup_seconds = 0;  ///< CPU + modeled disk time
  double copy_seconds = 0;   ///< modeled baseline copy

  double data_only_der() const;
  double real_der() const;
  double metadata_ratio() const;     ///< fraction (not %)
  double throughput_ratio() const;
  double inodes_per_mb() const;                ///< Fig. 7(a)
  double manifest_hook_metadata_ratio() const; ///< Fig. 7(b)
  double filemanifest_metadata_ratio() const;  ///< Fig. 7(c)
  double dad_bytes() const;                    ///< Fig. 10(a)
  /// CRC framing cost on the data path (0 on unframed stores).
  std::uint64_t framing_overhead_bytes() const {
    return physical_data_bytes - stored_data_bytes;
  }
  /// Fraction of detected duplicate bytes declined for restore locality
  /// (0 with --rewrite=none): rewritten / (deduplicated + rewritten).
  double rewrite_ratio() const {
    const std::uint64_t seen = counters.dup_bytes + counters.rewritten_bytes;
    return seen == 0 ? 0.0
                     : static_cast<double>(counters.rewritten_bytes) /
                           static_cast<double>(seen);
  }
};

/// Fills the derived/metadata parts of a result from a finished engine
/// over `stack`. `cpu_copy_bw` models the memcpy cost of the baseline copy.
ExperimentResult summarize(const std::string& algorithm,
                           const DedupEngine& engine,
                           const BackendStack& stack,
                           const DiskModel& disk,
                           double cpu_copy_bw = 4.0e9);

/// The same over a bare in-memory backend (no layers).
inline ExperimentResult summarize(const std::string& algorithm,
                                  const DedupEngine& engine,
                                  MemoryBackend& backend, const DiskModel& disk,
                                  double cpu_copy_bw = 4.0e9) {
  return summarize(algorithm, engine, BackendStack(backend, EngineConfig{}),
                   disk, cpu_copy_bw);
}

}  // namespace mhd
