// TTTD — Two Thresholds, Two Divisors chunking (Eshghi & Tang, HPL-2005-30).
//
// Like the Rabin chunker but with a secondary, easier divisor: positions
// matching the backup divisor are remembered, and if the chunk reaches
// max_size without a primary match, the cut happens at the last backup
// candidate instead of the hard max. This tightens the size distribution.
// Included as the paper's cited improved chunker (related work, Section II).
//
// When the backup candidate is used, scan() reports the cut at max_size and
// cut_back() returns how many trailing bytes belong to the next chunk; the
// ChunkStream re-feeds them.
#pragma once

#include "mhd/chunk/chunker.h"
#include "mhd/chunk/rabin_window.h"

namespace mhd {

class TttdChunker final : public Chunker {
 public:
  explicit TttdChunker(const ChunkerConfig& config);

  void reset() override;
  ScanResult scan(ByteSpan data) override;
  std::size_t cut_back() const override { return cut_back_; }

 private:
  ChunkerConfig config_;
  RabinWindow window_;
  std::uint64_t main_mask_;
  std::uint64_t backup_mask_;
  std::uint64_t magic_;
  std::size_t hash_start_;
  std::size_t pos_ = 0;
  std::size_t backup_pos_ = 0;  ///< last backup-divisor match (0 = none)
  std::size_t cut_back_ = 0;
};

}  // namespace mhd
