#include "mhd/hash/rabin.h"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>

namespace mhd {

int poly_degree(std::uint64_t p) {
  int d = -1;
  while (p != 0) {
    ++d;
    p >>= 1;
  }
  return d;
}

std::uint64_t poly_mod_shifted(std::uint64_t value, int shift, std::uint64_t p) {
  const int dp = poly_degree(p);
  // Work on a 128-bit register so value << shift never overflows for the
  // shifts used here (shift <= 8*(w-1) is reduced iteratively instead).
  unsigned __int128 v = value;
  int deg = poly_degree(value);
  if (deg < 0) return 0;
  deg += shift;
  v <<= shift;
  while (deg >= dp) {
    if ((v >> deg) & 1) {
      v ^= static_cast<unsigned __int128>(p) << (deg - dp);
    }
    --deg;
  }
  return static_cast<std::uint64_t>(v);
}

RabinTables::RabinTables(std::size_t w, std::uint64_t p) : window(w), poly(p) {
  if (window == 0) {
    throw std::invalid_argument("Rabin: window must be at least one byte");
  }
  if (poly_degree(poly) != kDegree) {
    throw std::invalid_argument("Rabin: polynomial degree must be 63");
  }
  for (std::uint64_t t = 0; t < 256; ++t) {
    // t << kDegree keeps t's low bit; t << (kDegree + 8) keeps nothing.
    append[t] = poly_mod_shifted(t, kDegree, poly) ^ (t << kDegree);
    append2[t] = poly_mod_shifted(t, kDegree + 8, poly);
    // o x^(8w), raised one byte at a time so no shift passes 128 bits.
    std::uint64_t f = t;
    for (std::size_t step = 0; step < window; ++step) {
      f = poly_mod_shifted(f, 8, poly);
    }
    remove[t] = f;
    remove2[t] = poly_mod_shifted(f, 8, poly);
  }
}

const RabinTables& RabinTables::get(std::size_t window, std::uint64_t poly) {
  static std::mutex mu;
  // Never destroyed, so no exit-time teardown races a late user.
  static auto* cache =
      new std::map<std::pair<std::size_t, std::uint64_t>,
                   std::unique_ptr<const RabinTables>>();
  const std::lock_guard<std::mutex> lock(mu);
  auto& slot = (*cache)[{window, poly}];
  if (!slot) slot = std::make_unique<const RabinTables>(window, poly);
  return *slot;
}

RabinFingerprint::RabinFingerprint(std::size_t window, std::uint64_t poly)
    : tables_(&RabinTables::get(window, poly)), window_(window, 0) {}

void RabinFingerprint::reset() {
  std::fill(window_.begin(), window_.end(), Byte{0});
  pos_ = 0;
  fp_ = 0;
}

std::uint64_t RabinFingerprint::push(Byte b) {
  const Byte out = window_[pos_];
  window_[pos_] = b;
  pos_ = (pos_ + 1 == window_.size()) ? 0 : pos_ + 1;
  fp_ = tables_->roll(fp_, out, b);
  return fp_;
}

std::uint64_t RabinFingerprint::fingerprint(ByteSpan data) const {
  std::uint64_t f = 0;
  for (Byte b : data) f = tables_->shift_append(f, b);
  return f;
}

}  // namespace mhd
