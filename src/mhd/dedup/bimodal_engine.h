// Bimodal content-defined chunking (Kruus, Ungureanu & Dubnicki, FAST'10),
// as analysed in the paper's TABLE I/II.
//
// The stream is chunked at the big expected size ECS*SD and deduplicated
// at big-chunk granularity first. Non-duplicate big chunks that sit at a
// "transition point" (adjacent to a duplicate big chunk) are re-chunked at
// the small expected size ECS and deduplicated small; other non-duplicate
// big chunks are stored whole under a single hash. Every stored chunk —
// big or small — costs one Manifest entry and one on-disk Hook, which is
// exactly why Bimodal's metadata grows with 2L(SD-1) extra hooks/entries
// in TABLE I. Duplicate data strictly inside non-transition big chunks is
// missed (the DER cost the paper shows in Fig. 8).
#pragma once

#include <unordered_map>

#include "mhd/core/manifest_cache.h"
#include "mhd/dedup/engine.h"
#include "mhd/format/file_manifest.h"

namespace mhd {

class BimodalEngine final : public DedupEngine {
 public:
  BimodalEngine(ObjectStore& store, const EngineConfig& config);

  std::string name() const override { return "Bimodal"; }
  void finish() override;

  std::uint64_t manifest_loads() const override {
    return cache_.manifest_loads();
  }

 protected:
  void process_file(const std::string& file_name, ByteSource& data) override;

 private:
  struct DupRef {
    Digest chunk_name;
    std::uint64_t offset = 0;
    std::uint32_t size = 0;
  };
  struct BigChunk {
    ByteVec bytes;
    Digest hash;
    std::optional<DupRef> dup;  ///< resolved duplicate, if any
  };
  struct FileCtx {
    Digest dig{};
    Manifest manifest;
    FileManifest fm;
    std::optional<ChunkWriter> writer;
    std::uint64_t chunk_off = 0;
    std::unordered_map<Digest, DupRef, DigestHasher> current;  ///< intra-file
  };

  std::optional<DupRef> find_duplicate(const Digest& hash,
                                       const FileCtx& ctx,
                                       AccessKind query_kind);
  /// Emits one resolved big chunk; `transition` selects re-chunking.
  void emit_big(FileCtx& ctx, BigChunk& chunk, bool transition);
  void store_small(FileCtx& ctx, ByteSpan bytes, const Digest& hash,
                   std::uint32_t chunk_count);

  ManifestCache cache_;
};

}  // namespace mhd
