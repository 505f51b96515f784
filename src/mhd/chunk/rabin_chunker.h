// Content-defined chunking with a Rabin fingerprint sliding window
// (LBFS-style), the base chunker of the paper and of every engine here.
//
// A position is a cut point when the window fingerprint masked to
// log2-expected bits equals a fixed magic value and the chunk length is at
// least min_size; a cut is forced at max_size. The window rolls through the
// shared RabinTables (chunk/rabin_window.h), so building a chunker builds
// no tables.
#pragma once

#include "mhd/chunk/chunker.h"
#include "mhd/chunk/rabin_window.h"

namespace mhd {

class RabinChunker final : public Chunker {
 public:
  explicit RabinChunker(const ChunkerConfig& config);

  void reset() override;
  ScanResult scan(ByteSpan data) override;

  const ChunkerConfig& config() const { return config_; }
  std::uint64_t mask() const { return mask_; }

 private:
  ChunkerConfig config_;
  RabinWindow window_;
  std::uint64_t mask_;
  std::uint64_t magic_;
  std::size_t hash_start_;  ///< first position worth hashing (min - window)
  std::size_t pos_ = 0;     ///< bytes consumed into the current chunk
};

}  // namespace mhd
