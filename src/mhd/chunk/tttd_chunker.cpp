#include "mhd/chunk/tttd_chunker.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mhd {

namespace {
std::uint64_t mask_bits(double target) {
  const int bits =
      std::max(1, static_cast<int>(std::lround(std::log2(std::max(2.0, target)))));
  return (bits >= 63) ? ~0ULL : ((1ULL << bits) - 1);
}
}  // namespace

TttdChunker::TttdChunker(const ChunkerConfig& config)
    : config_(config),
      // Throws std::invalid_argument for a zero window.
      window_(RabinTables::get(config.window, RabinFingerprint::kDefaultPoly)),
      main_mask_(mask_bits(static_cast<double>(config.expected_size) -
                           static_cast<double>(config.min_size))),
      // Backup divisor is half as selective as the main one (D' = D/2).
      backup_mask_(main_mask_ >> 1),
      magic_(0x4D5A3B7F9E2C6A1ULL) {
  if (config_.min_size == 0 || config_.max_size < config_.min_size) {
    throw std::invalid_argument("TttdChunker: bad min/max sizes");
  }
  hash_start_ = config_.min_size > config_.window
                    ? config_.min_size - config_.window
                    : 0;
  reset();
}

void TttdChunker::reset() {
  window_.reset();
  pos_ = 0;
  backup_pos_ = 0;
  cut_back_ = 0;
}

Chunker::ScanResult TttdChunker::scan(ByteSpan data) {
  std::size_t i = 0;
  const std::size_t n = data.size();
  cut_back_ = 0;

  if (pos_ < hash_start_) {
    const std::size_t skip = std::min(n, hash_start_ - pos_);
    pos_ += skip;
    i += skip;
  }

  const std::uint64_t main_mask = main_mask_;
  const std::uint64_t main_magic = magic_ & main_mask_;
  const std::uint64_t backup_mask = backup_mask_;
  const std::uint64_t backup_magic = magic_ & backup_mask_;
  std::size_t backup_pos = backup_pos_;
  // The backup mask is the main mask's low bits, so every main match is
  // also a backup match: one test filters both.
  const ScanResult r = window_.scan(
      data, i, pos_, config_.min_size, config_.max_size,
      [&](std::size_t len, std::uint64_t f) {
        if ((f & backup_mask) != backup_magic) return false;
        if ((f & main_mask) == main_magic) return true;
        backup_pos = len;
        return false;
      });
  pos_ += r.consumed - i;
  if (r.cut) {
    reset();
    return r;
  }
  if (pos_ >= config_.max_size) {
    const std::size_t back =
        (backup_pos >= config_.min_size) ? pos_ - backup_pos : 0;
    reset();
    cut_back_ = back;
    return {r.consumed, true};
  }
  backup_pos_ = backup_pos;
  return r;
}

}  // namespace mhd
