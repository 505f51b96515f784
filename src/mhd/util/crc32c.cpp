#include "mhd/util/crc32c.h"

#include <algorithm>
#include <array>

#include "mhd/util/cpufeatures.h"

#if defined(__x86_64__) && defined(__GNUC__)
#include <nmmintrin.h>
#include <wmmintrin.h>
#define MHD_CRC32C_X86_KERNEL 1
#endif

namespace mhd {

namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;  // CRC32C, reflected

/// Slice-by-8 lookup tables, built once at first use. Table 0 is the
/// classic byte-at-a-time table; tables 1..7 fold 8 input bytes per
/// iteration into a single combined update.
struct Tables {
  std::array<std::array<std::uint32_t, 256>, 8> t{};

  Tables() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? (c >> 1) ^ kPoly : c >> 1;
      t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = t[0][i];
      for (std::size_t j = 1; j < 8; ++j) {
        c = t[0][c & 0xFF] ^ (c >> 8);
        t[j][i] = c;
      }
    }
  }
};

const Tables& tables() {
  static const Tables t;
  return t;
}

}  // namespace

std::uint32_t crc32c_portable(std::uint32_t crc, const Byte* data,
                              std::size_t len) {
  const auto& t = tables().t;
  std::uint32_t c = ~crc;
  // Align to 8 bytes so the sliced loop reads whole words.
  while (len > 0 && (reinterpret_cast<std::uintptr_t>(data) & 7) != 0) {
    c = t[0][(c ^ *data++) & 0xFF] ^ (c >> 8);
    --len;
  }
  while (len >= 8) {
    std::uint64_t word;
    __builtin_memcpy(&word, data, 8);
    word ^= c;  // little-endian fold of the running CRC into the low half
    c = t[7][word & 0xFF] ^ t[6][(word >> 8) & 0xFF] ^
        t[5][(word >> 16) & 0xFF] ^ t[4][(word >> 24) & 0xFF] ^
        t[3][(word >> 32) & 0xFF] ^ t[2][(word >> 40) & 0xFF] ^
        t[1][(word >> 48) & 0xFF] ^ t[0][(word >> 56) & 0xFF];
    data += 8;
    len -= 8;
  }
  while (len-- > 0) c = t[0][(c ^ *data++) & 0xFF] ^ (c >> 8);
  return ~c;
}

#ifdef MHD_CRC32C_X86_KERNEL

namespace {

/// Below this many bytes, one crc32q chain beats three lanes and a fold.
constexpr std::size_t kThreeLaneMin = 192;

/// Multiplies a bit-reflected CRC value by x modulo the polynomial.
constexpr std::uint32_t times_x(std::uint32_t v) {
  return (v & 1) != 0 ? (v >> 1) ^ kPoly : v >> 1;
}

/// k[n] = x^(64n - 33) mod P, bit-reflected, for n up to two lanes of
/// 8-byte words. A lane's CRC carry-less-multiplied by k[n] and fed to
/// crc32q comes out shifted past 8n later bytes: the product adds one x
/// and crc32q adds x^32, which the 33 takes back.
struct ShiftConstants {
  std::array<std::uint32_t, 2 * kCrc32cLaneCap / 8 + 1> k{};

  ShiftConstants() {
    std::uint32_t v = 0x80000000u;  // x^0
    for (int i = 0; i < 31; ++i) v = times_x(v);
    for (std::size_t n = 1; n < k.size(); ++n) {
      k[n] = v;
      for (int i = 0; i < 64; ++i) v = times_x(v);
    }
  }
};

const ShiftConstants& shift_constants() {
  static const ShiftConstants s;
  return s;
}

std::uint64_t load_word(const Byte* p) {
  std::uint64_t word;
  __builtin_memcpy(&word, p, 8);
  return word;
}

__attribute__((target("pclmul"))) std::uint64_t clmul(std::uint64_t crc,
                                                       std::uint32_t k) {
  return static_cast<std::uint64_t>(_mm_cvtsi128_si64(_mm_clmulepi64_si128(
      _mm_cvtsi64_si128(static_cast<long long>(crc)),
      _mm_cvtsi32_si128(static_cast<int>(k)), 0x00)));
}

/// Extends running CRC `c` one crc32q per word, then bytewise; returns
/// the final (inverted) CRC.
__attribute__((target("sse4.2"), always_inline)) inline std::uint32_t
single_chain(std::uint64_t c, const Byte* data, std::size_t len) {
  while (len >= 8) {
    c = _mm_crc32_u64(c, load_word(data));
    data += 8;
    len -= 8;
  }
  auto c32 = static_cast<std::uint32_t>(c);
  while (len-- > 0) c32 = _mm_crc32_u8(c32, *data++);
  return ~c32;
}

/// One crc32q chain waits 3 cycles per word. Three independent lanes over
/// consecutive thirds keep the unit busy; the first two lanes' CRCs are
/// then shifted past the lanes after them and folded into the last word
/// of the third. Runs such blocks while at least kThreeLaneMin bytes are
/// left, then the single chain. Out of line and reached by a tail call,
/// so that the short-buffer path of crc32c_sse42 saves no registers.
__attribute__((target("sse4.2,pclmul"), noinline)) std::uint32_t three_lanes(
    std::uint64_t c, const Byte* data, std::size_t len) {
  const auto& shift = shift_constants().k;
  while (len >= kThreeLaneMin) {
    const std::size_t lane = std::min(kCrc32cLaneCap, len / 24 * 8);
    const Byte* a = data;
    const Byte* b = a + lane;
    const Byte* d = b + lane;
    std::uint64_t ca = c, cb = 0, cd = 0;
    for (std::size_t i = 0; i + 8 < lane; i += 8) {
      ca = _mm_crc32_u64(ca, load_word(a + i));
      cb = _mm_crc32_u64(cb, load_word(b + i));
      cd = _mm_crc32_u64(cd, load_word(d + i));
    }
    ca = _mm_crc32_u64(ca, load_word(a + lane - 8));
    cb = _mm_crc32_u64(cb, load_word(b + lane - 8));
    const std::uint64_t folded =
        clmul(ca, shift[2 * lane / 8]) ^ clmul(cb, shift[lane / 8]);
    c = _mm_crc32_u64(cd, load_word(d + lane - 8) ^ folded);
    data += 3 * lane;
    len -= 3 * lane;
  }
  return single_chain(c, data, len);
}

}  // namespace

__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    std::uint32_t crc, const Byte* data, std::size_t len) {
  std::uint32_t c32 = ~crc;
  while (len > 0 && (reinterpret_cast<std::uintptr_t>(data) & 7) != 0) {
    c32 = _mm_crc32_u8(c32, *data++);
    --len;
  }
  if (len >= kThreeLaneMin) return three_lanes(c32, data, len);
  return single_chain(c32, data, len);
}

#endif  // MHD_CRC32C_X86_KERNEL

std::span<const Crc32cKernelInfo> crc32c_kernels() {
  static const std::array<Crc32cKernelInfo,
#ifdef MHD_CRC32C_X86_KERNEL
                          2
#else
                          1
#endif
                          >
      kernels = {{
          {"portable", &crc32c_portable, true},
#ifdef MHD_CRC32C_X86_KERNEL
          {"sse42", &crc32c_sse42,
           cpu_features().sse42 && cpu_features().pclmul},
#endif
      }};
  return {kernels.data(), kernels.size()};
}

namespace {

const Crc32cKernelInfo& dispatch() {
  static const Crc32cKernelInfo& best = [] {
    const auto kernels = crc32c_kernels();
    for (auto it = kernels.rbegin(); it != kernels.rend(); ++it) {
      if (it->supported) return *it;
    }
    return kernels.front();
  }();
  return best;
}

}  // namespace

std::uint32_t crc32c(std::uint32_t crc, ByteSpan data) {
  return dispatch().fn(crc, data.data(), data.size());
}

const char* crc32c_impl_name() { return dispatch().name; }

}  // namespace mhd
