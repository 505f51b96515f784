// The scan loop RabinChunker and TttdChunker share. It rolls a span through
// the shared RabinTables on local variables: the outgoing byte of byte i is
// data[i - w] once the call has rolled w bytes, and the window carried from
// the previous call supplies it only for the call's first w bytes. Past
// those, the loop steps two bytes per iteration with RabinTables::roll2.
// Cut points are those of RabinFingerprint::push byte by byte
// (tests/chunk/chunker_differential_test.cpp).
#pragma once

#include <algorithm>
#include <cstring>
#include <vector>

#include "mhd/chunk/chunker.h"
#include "mhd/hash/rabin.h"

namespace mhd {

/// What a Rabin-family chunker carries between scan() calls: the
/// fingerprint and the last w bytes rolled in since the last cut, oldest
/// first, with zeros where fewer than w were rolled.
class RabinWindow {
 public:
  explicit RabinWindow(const RabinTables& tables)
      : tables_(&tables), tail_(tables.window, 0) {}

  void reset() {
    fp_ = 0;
    std::fill(tail_.begin(), tail_.end(), Byte{0});
  }

  /// Rolls data[from..] in, where data[from] is byte `pos` of the current
  /// chunk, up to the end of `data` or the chunk's max_size-th byte. From
  /// the chunk's min_size-th byte on, calls hit(len, f) after each byte
  /// with the chunk's length and fingerprint so far, and stops at the
  /// first hit: returns {i + 1, true} for byte i and leaves the carried
  /// state stale for the caller's reset(). Otherwise returns the bytes of
  /// `data` consumed and false, with the state carried to the next call.
  /// `pos` is at least min_size - w, so tests start within w bytes.
  template <class Hit>
  Chunker::ScanResult scan(ByteSpan data, std::size_t from, std::size_t pos,
                           std::size_t min_size, std::size_t max_size,
                           Hit&& hit) {
    const RabinTables& t = *tables_;
    const std::size_t w = t.window;
    const std::size_t end =
        from + std::min(data.size() - from, max_size - pos);
    const std::size_t len0 = pos - from + 1;  // chunk length after data[0]
    const std::size_t test_from =
        min_size > len0 + from ? min_size - len0 : from;
    const Byte* in = data.data();
    std::uint64_t f = fp_;
    std::size_t i = from;
    for (const std::size_t head_end = std::min(end, from + w); i < head_end;
         ++i) {
      f = t.roll(f, tail_[i - from], in[i]);
      if (i >= test_from && hit(len0 + i, f)) return {i + 1, true};
    }
#pragma GCC unroll 2
    for (; i + 1 < end; i += 2) {
      const Byte o0 = in[i - w], b0 = in[i];
      const Byte o1 = in[i + 1 - w], b1 = in[i + 1];
      const std::uint64_t f0 = t.roll(f, o0, b0);
      f = t.roll2(f, o0, b0, o1, b1);
      if (hit(len0 + i, f0)) return {i + 1, true};
      if (hit(len0 + i + 1, f)) return {i + 2, true};
    }
    if (i < end) {
      f = t.roll(f, in[i - w], in[i]);
      if (hit(len0 + i, f)) return {i + 1, true};
    }
    fp_ = f;
    const std::size_t rolled = end - from;
    if (rolled >= w) {
      std::memcpy(tail_.data(), in + end - w, w);
    } else if (rolled > 0) {
      std::memmove(tail_.data(), tail_.data() + rolled, w - rolled);
      std::memcpy(tail_.data() + w - rolled, in + from, rolled);
    }
    return {end, false};
  }

 private:
  const RabinTables* tables_;
  std::uint64_t fp_ = 0;
  std::vector<Byte> tail_;
};

}  // namespace mhd
