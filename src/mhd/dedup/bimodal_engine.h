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

#include "mhd/dedup/engine.h"

namespace mhd {

class BimodalEngine final : public AnchoredEngine {
 public:
  BimodalEngine(ObjectStore& store, const EngineConfig& config)
      : AnchoredEngine(store, config, /*hook_flags=*/false) {}

  std::string name() const override { return "Bimodal"; }

 protected:
  void process_file(const std::string& file_name, ByteSource& data) override;

 private:
  struct BigChunk {
    ByteVec bytes;
    Digest hash;
    std::optional<ChunkRef> dup;  ///< resolved duplicate, if any
  };

  /// Emits one resolved big chunk; `transition` selects re-chunking.
  void emit_big(FileOut& out, BigChunk& chunk, bool transition);
};

}  // namespace mhd
