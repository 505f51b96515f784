// FBC — Frequency-Based Chunking (Lu, Jin & Du, MASCOTS'10), the third
// member of the big-chunk-first family the paper discusses alongside
// Bimodal and SubChunk ("FBC performs selective re-chunking using several
// strategies based on the frequency information of chunks estimated from
// data that have been previously processed").
//
// This implementation keeps a frequency sketch of sampled small-chunk
// fingerprints. A non-duplicate big chunk is re-chunked at ECS when the
// sketch says it contains small content seen at least `threshold` times
// before — i.e. re-chunking is spent where duplicated small chunks are
// statistically likely, independent of transition points.
#pragma once

#include <unordered_map>

#include "mhd/core/manifest_cache.h"
#include "mhd/dedup/engine.h"
#include "mhd/format/file_manifest.h"

namespace mhd {

class FbcEngine final : public DedupEngine {
 public:
  FbcEngine(ObjectStore& store, const EngineConfig& config);

  std::string name() const override { return "FBC"; }
  void finish() override;

  std::uint64_t manifest_loads() const override {
    return cache_.manifest_loads();
  }
  std::uint64_t index_ram_bytes() const override {
    return frequency_.size() * 16 + DedupEngine::index_ram_bytes();
  }

  /// Frequency threshold for re-chunking (>= this many prior sightings).
  static constexpr std::uint32_t kFrequencyThreshold = 2;
  /// Sample 1-in-kSampleMod small fingerprints into the sketch.
  static constexpr std::uint64_t kSampleMod = 4;
  /// Aux-blob name the sketch persists under in the fingerprint index.
  static constexpr const char* kSketchAuxName = "fbc-frequency";

 private:
  struct DupRef {
    Digest chunk_name;
    std::uint64_t offset = 0;
    std::uint32_t size = 0;
  };
  struct FileCtx {
    Digest dig{};
    Manifest manifest;
    FileManifest fm;
    std::optional<ChunkWriter> writer;
    std::uint64_t chunk_off = 0;
    std::unordered_map<Digest, DupRef, DigestHasher> current;
  };

  void process_file(const std::string& file_name, ByteSource& data) override;

  std::optional<DupRef> find_duplicate(const Digest& hash, const FileCtx& ctx,
                                       AccessKind query_kind);
  void store_region(FileCtx& ctx, ByteSpan bytes, const Digest& hash,
                    std::uint32_t chunk_count);
  /// Small-chunks the region, updates the sketch, and reports whether any
  /// sampled fingerprint was already frequent.
  bool looks_frequent(ByteSpan big_bytes,
                      std::vector<std::pair<Digest, ByteVec>>& smalls);
  void save_frequency_sketch();
  void load_frequency_sketch();

  ManifestCache cache_;
  /// Sampled small-chunk fingerprint -> times seen.
  std::unordered_map<std::uint64_t, std::uint32_t> frequency_;
};

}  // namespace mhd
