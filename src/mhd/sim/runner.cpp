#include "mhd/sim/runner.h"

#include <algorithm>
#include <stdexcept>

#include "mhd/core/mhd_engine.h"
#include "mhd/repo/repository.h"
#include "mhd/store/restore_reader.h"
#include "mhd/util/timer.h"
#include "mhd/dedup/bimodal_engine.h"
#include "mhd/dedup/cdc_engine.h"
#include "mhd/dedup/extreme_binning_engine.h"
#include "mhd/dedup/fbc_engine.h"
#include "mhd/dedup/sparse_index_engine.h"
#include "mhd/dedup/subchunk_engine.h"

namespace mhd {

std::unique_ptr<DedupEngine> make_engine(const std::string& name,
                                         ObjectStore& store,
                                         const EngineConfig& config) {
  if (name == "cdc") return std::make_unique<CdcEngine>(store, config);
  if (name == "bimodal") return std::make_unique<BimodalEngine>(store, config);
  if (name == "subchunk") {
    return std::make_unique<SubChunkEngine>(store, config);
  }
  if (name == "sparseindexing" || name == "sparse") {
    return std::make_unique<SparseIndexEngine>(store, config);
  }
  if (name == "fbc") return std::make_unique<FbcEngine>(store, config);
  if (name == "extremebinning" || name == "extreme") {
    return std::make_unique<ExtremeBinningEngine>(store, config);
  }
  if (name == "mhd") return std::make_unique<MhdEngine>(store, config);
  if (name == "bf-mhd") {
    EngineConfig cfg = config;
    cfg.use_bloom = true;
    return std::make_unique<MhdEngine>(store, cfg);
  }
  throw std::invalid_argument("unknown engine: " + name);
}

const std::vector<std::string>& engine_names() {
  static const std::vector<std::string> names = {
      "bf-mhd", "bimodal", "subchunk", "sparseindexing", "cdc"};
  return names;
}

const std::vector<std::string>& extension_engine_names() {
  static const std::vector<std::string> names = {"fbc", "extremebinning"};
  return names;
}

ExperimentResult run_experiment(const RunSpec& spec, const Corpus& corpus,
                                BackendStack& stack) {
  ObjectStore store(stack.top(), stack.containers());
  auto engine = make_engine(spec.algorithm, store, spec.engine);
  for (std::size_t i = 0; i < corpus.files().size(); ++i) {
    // Snapshot boundary: HAR folds the finished generation's container
    // utilization into its sparse set (no-op without --rewrite=har).
    if (i > 0 &&
        corpus.files()[i].snapshot != corpus.files()[i - 1].snapshot) {
      engine->end_snapshot();
    }
    auto src = corpus.open(i);
    engine->add_file(corpus.files()[i].name, *src);
  }
  engine->end_snapshot();
  engine->finish();
  // Seal the open container so the physical layout summarize() measures
  // (and any fsck of the inner backend) sees only clean streams.
  if (auto* containers = stack.containers()) containers->flush();

  if (spec.verify) {
    for (std::size_t i = 0; i < corpus.files().size(); ++i) {
      auto src = corpus.open(i);
      const ByteVec original = read_all(*src);
      const auto restored = engine->reconstruct(corpus.files()[i].name);
      if (!restored || !equal(*restored, original)) {
        throw std::runtime_error(spec.algorithm + ": reconstruction mismatch for " +
                                 corpus.files()[i].name);
      }
    }
  }
  ExperimentResult result = summarize(engine->name(), *engine, stack, spec.disk);
  if (spec.measure_restore && !corpus.files().empty()) {
    const std::uint32_t last = corpus.files().back().snapshot;
    std::vector<std::string> names;
    for (const auto& f : corpus.files()) {
      if (f.snapshot == last) names.push_back(f.name);
    }
    result.restore = measure_restore(stack, names);
  }
  return result;
}

ExperimentResult run_experiment(const RunSpec& spec, const Corpus& corpus) {
  MemoryBackend backend;
  BackendStack stack(backend, spec.engine);
  return run_experiment(spec, corpus, stack);
}

RestoreMetrics measure_restore(BackendStack& stack,
                               const std::vector<std::string>& files) {
  RestoreMetrics m;
  ContainerBackend* containers = stack.containers();
  if (containers != nullptr) containers->drop_cache();
  const ContainerStats before =
      containers ? containers->stats() : ContainerStats{};

  ByteVec buf(1 << 20);
  const Stopwatch watch;
  for (const auto& file : files) {
    auto reader = RestoreReader::open(stack.top(), file);
    if (!reader) throw std::runtime_error("measure_restore: missing " + file);
    std::size_t n;
    while ((n = reader->read({buf.data(), buf.size()})) > 0) m.bytes += n;
    if (!reader->ok() || reader->produced() != reader->total_length()) {
      throw std::runtime_error("measure_restore: short restore of " + file);
    }
  }
  m.seconds = watch.seconds();

  if (containers != nullptr) {
    const ContainerStats after = containers->stats();
    m.container_reads = after.container_reads - before.container_reads;
    m.cache_hits = after.cache_hits - before.cache_hits;
    const std::uint64_t cbytes = containers->config().container_bytes;
    if (cbytes > 0 && m.bytes > 0) {
      if (m.container_reads == 0) {
        // Everything came from the open container's RAM image — there is
        // no fragmentation signal to report, score it perfect.
        m.cfl = 1.0;
      } else {
        const std::uint64_t optimal = (m.bytes + cbytes - 1) / cbytes;
        // Capped at 1.0 (the literature's convention): the cache can push
        // actual reads below the sequential optimum.
        m.cfl = std::min(1.0, static_cast<double>(optimal) /
                                  static_cast<double>(m.container_reads));
      }
    }
  }
  return m;
}

}  // namespace mhd
