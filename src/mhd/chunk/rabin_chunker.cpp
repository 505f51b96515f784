#include "mhd/chunk/rabin_chunker.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mhd {

ChunkerConfig ChunkerConfig::from_expected(std::uint64_t ecs) {
  ChunkerConfig c;
  c.expected_size = static_cast<std::uint32_t>(ecs);
  c.min_size = static_cast<std::uint32_t>(std::max<std::uint64_t>(64, ecs / 4));
  c.max_size = static_cast<std::uint32_t>(ecs * 8);
  return c;
}

namespace {
// Number of fingerprint bits to test so that the expected gap between cut
// candidates past min_size equals expected - min.
std::uint64_t mask_for(const ChunkerConfig& c) {
  const double target =
      std::max<double>(2.0, static_cast<double>(c.expected_size) -
                                static_cast<double>(c.min_size));
  const int bits = std::max(1, static_cast<int>(std::lround(std::log2(target))));
  return (bits >= 63) ? ~0ULL : ((1ULL << bits) - 1);
}
}  // namespace

RabinChunker::RabinChunker(const ChunkerConfig& config)
    : config_(config),
      // Throws std::invalid_argument for a zero window.
      window_(RabinTables::get(config.window, RabinFingerprint::kDefaultPoly)),
      mask_(mask_for(config)),
      // Arbitrary fixed pattern; avoiding 0 prevents runs of zero bytes
      // (common in disk images) from cutting at every position.
      magic_(0x4D5A3B7F9E2C6A1ULL & mask_) {
  if (config_.min_size == 0 || config_.max_size < config_.min_size) {
    throw std::invalid_argument("RabinChunker: bad min/max sizes");
  }
  hash_start_ = config_.min_size > config_.window
                    ? config_.min_size - config_.window
                    : 0;
  reset();
}

void RabinChunker::reset() {
  window_.reset();
  pos_ = 0;
}

Chunker::ScanResult RabinChunker::scan(ByteSpan data) {
  std::size_t i = 0;
  const std::size_t n = data.size();

  // Skip the prefix where no cut can occur and the window is not yet
  // relevant: positions before (min_size - window).
  if (pos_ < hash_start_) {
    const std::size_t skip = std::min(n, hash_start_ - pos_);
    pos_ += skip;
    i += skip;
  }

  const std::uint64_t mask = mask_;
  const std::uint64_t magic = magic_;
  const ScanResult r = window_.scan(
      data, i, pos_, config_.min_size, config_.max_size,
      [mask, magic](std::size_t, std::uint64_t f) {
        return (f & mask) == magic;
      });
  pos_ += r.consumed - i;
  if (r.cut || pos_ >= config_.max_size) {
    reset();
    return {r.consumed, true};
  }
  return r;
}

}  // namespace mhd
