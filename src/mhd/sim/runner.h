// Experiment runner — drives any engine over a corpus and produces the
// ExperimentResult rows the bench harnesses print.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mhd/dedup/engine.h"
#include "mhd/metrics/metrics.h"
#include "mhd/store/memory_backend.h"
#include "mhd/workload/corpus.h"

namespace mhd {

/// Creates an engine by name: "cdc", "bimodal", "subchunk",
/// "sparseindexing", "fbc", "extremebinning", "mhd" (bloom per config),
/// "bf-mhd" (forces bloom).
/// Throws std::invalid_argument for unknown names.
std::unique_ptr<DedupEngine> make_engine(const std::string& name,
                                         ObjectStore& store,
                                         const EngineConfig& config);

/// Names accepted by make_engine, in the paper's comparison order.
const std::vector<std::string>& engine_names();

/// Related-work engines implemented beyond the paper's evaluation set
/// (FBC, Extreme Binning); also accepted by make_engine.
const std::vector<std::string>& extension_engine_names();

struct RunSpec {
  std::string algorithm = "bf-mhd";
  EngineConfig engine;
  DiskModel disk;
  /// Reconstruct every file and compare byte-exactly after the run
  /// (slow; throws std::runtime_error on mismatch).
  bool verify = false;
  /// After ingest, time a streaming restore of the newest snapshot's
  /// files and fill ExperimentResult::restore (MB/s, container reads,
  /// CFL). The latest generation is the fragmentation-sensitive one.
  bool measure_restore = false;
};

/// Runs the full corpus through a fresh engine over the BackendStack that
/// spec.engine asks for (repo/repository.h) on an in-memory backend:
/// Memory → [Fault] → [Framed] → [Container].
ExperimentResult run_experiment(const RunSpec& spec, const Corpus& corpus);

/// Runs against a caller-built stack (e.g. over a FileBackend).
ExperimentResult run_experiment(const RunSpec& spec, const Corpus& corpus,
                                BackendStack& stack);

/// Streams a restore of every named file through the stack (timed, whole
/// files discarded as read) and, when it has containers, drops their
/// cache first (cold-cache measurement — the cache still assists *within*
/// the restore, bounded by --restore-cache-mb), then diffs ContainerStats
/// to attribute container traffic and compute CFL = ceil(bytes /
/// container_bytes) / actual container reads. Byte verification is the
/// caller's job; a missing or damaged file throws std::runtime_error.
RestoreMetrics measure_restore(BackendStack& stack,
                               const std::vector<std::string>& files);

}  // namespace mhd
