#include "mhd/metrics/metrics.h"

#include "mhd/dedup/rewrite.h"

namespace mhd {

MetadataBreakdown MetadataBreakdown::from(const StorageBackend& backend) {
  MetadataBreakdown m;
  m.inodes_diskchunks = backend.object_count(Ns::kDiskChunk);
  m.inodes_hooks = backend.object_count(Ns::kHook);
  m.inodes_manifests = backend.object_count(Ns::kManifest);
  m.inodes_filemanifests = backend.object_count(Ns::kFileManifest);
  m.hook_bytes = backend.content_bytes(Ns::kHook);
  m.manifest_bytes = backend.content_bytes(Ns::kManifest);
  m.filemanifest_bytes = backend.content_bytes(Ns::kFileManifest);
  return m;
}

double ExperimentResult::data_only_der() const {
  return stored_data_bytes == 0
             ? 0.0
             : static_cast<double>(input_bytes) /
                   static_cast<double>(stored_data_bytes);
}

double ExperimentResult::real_der() const {
  const std::uint64_t out = stored_data_bytes + metadata.total_bytes();
  return out == 0 ? 0.0
                  : static_cast<double>(input_bytes) / static_cast<double>(out);
}

double ExperimentResult::metadata_ratio() const {
  return input_bytes == 0
             ? 0.0
             : static_cast<double>(metadata.total_bytes()) /
                   static_cast<double>(input_bytes);
}

double ExperimentResult::throughput_ratio() const {
  return dedup_seconds <= 0 ? 0.0 : copy_seconds / dedup_seconds;
}

double ExperimentResult::inodes_per_mb() const {
  return input_bytes == 0
             ? 0.0
             : static_cast<double>(metadata.total_inodes()) /
                   (static_cast<double>(input_bytes) / (1 << 20));
}

double ExperimentResult::manifest_hook_metadata_ratio() const {
  return input_bytes == 0
             ? 0.0
             : static_cast<double>(metadata.hook_manifest_bytes()) /
                   static_cast<double>(input_bytes);
}

double ExperimentResult::filemanifest_metadata_ratio() const {
  return input_bytes == 0
             ? 0.0
             : static_cast<double>(metadata.filemanifest_bytes) /
                   static_cast<double>(input_bytes);
}

double ExperimentResult::dad_bytes() const { return counters.dad(); }

ExperimentResult summarize(const std::string& algorithm,
                           const DedupEngine& engine,
                           const BackendStack& stack,
                           const DiskModel& disk, double cpu_copy_bw) {
  const StorageBackend& backend = stack.top();
  ExperimentResult r;
  r.algorithm = algorithm;
  r.ecs = engine.config().ecs;
  r.sd = engine.config().sd;
  r.chunker = chunker_kind_name(engine.config().chunker);
  r.chunker_impl = resolved_chunker_impl_name(
      engine.config().chunker, engine.config().chunker_config(r.ecs));
  r.hash_impl = resolved_sha1_impl_name(engine.config().hash_impl);
  r.counters = engine.counters();
  r.stats = engine.store().stats();
  r.input_bytes = r.counters.input_bytes;
  r.stored_data_bytes = backend.content_bytes(Ns::kDiskChunk);
  // With a container layer the data bytes live under Ns::kContainer of the
  // physical layer; the logical DiskChunk view above stays the stored size.
  Ns data_ns = Ns::kDiskChunk;
  if (const ContainerBackend* cb = stack.containers()) {
    r.container_bytes = cb->config().container_bytes;
    r.rewrite_mode = rewrite_mode_name(engine.config().rewrite);
    const ContainerStats cs = cb->stats();
    r.containers_sealed = cs.containers_sealed;
    r.container_packed_bytes = cs.packed_bytes;
    data_ns = Ns::kContainer;
  }
  r.framed = stack.framed();
  r.physical_data_bytes = stack.bottom().content_bytes(data_ns);
  r.metadata = MetadataBreakdown::from(backend);
  r.manifest_loads = engine.manifest_loads();
  r.index_ram_bytes = engine.index_ram_bytes();
  r.index_impl = engine.index_impl_name();
  if (const FingerprintIndex* fp = engine.fingerprint_index()) {
    r.index_entries = fp->entry_count();
    const SampledStats sampled = fp->sampled_stats();
    r.sample_bits = sampled.sample_bits;
    r.sampled_hook_entries = sampled.hook_entries;
    r.sampled_hook_table_bytes = sampled.hook_table_bytes;
    r.champion_loads = sampled.champion_loads;
    r.sampled_missed_dup_bytes = sampled.missed_dup_bytes;
    r.sampled_missed_dup_chunks = sampled.missed_dup_chunks;
  }

  r.dedup_seconds = r.counters.cpu_seconds + disk.io_seconds(r.stats);
  r.copy_seconds = disk.copy_seconds(r.input_bytes) +
                   static_cast<double>(r.input_bytes) / cpu_copy_bw;
  return r;
}

}  // namespace mhd
