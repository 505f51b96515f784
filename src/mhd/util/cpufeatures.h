// Runtime CPU feature detection for SIMD kernel dispatch.
//
// The chunking hot loop ships several kernels (AVX2, SSE2, portable
// unrolled scalar) compiled into the same binary; at runtime the best one
// the CPU supports is selected once and cached. Intrinsics above the
// baseline ISA are compiled with per-function target attributes, so the
// binary itself stays runnable on any x86-64 (and any non-x86 target,
// where detection reports kNone and the portable kernel is used).
#pragma once

namespace mhd {

struct CpuFeatures {
  bool sse2 = false;
  bool ssse3 = false;
  bool sse41 = false;
  bool sse42 = false;  ///< hardware CRC32C (the crc32 instruction family)
  bool pclmul = false;  ///< carry-less multiply (CPUID.1:ECX bit 1)
  bool avx2 = false;    ///< implies OS support for YMM state (XGETBV checked)
  bool sha_ni = false;  ///< SHA New Instructions (CPUID leaf 7 EBX bit 29)
};

/// Detects and caches the host CPU's features (thread-safe, detection runs
/// once).
const CpuFeatures& cpu_features();

/// SIMD kernel tiers, best-first dispatch order: kAvx2 > kSse2 > kNone.
enum class SimdLevel : int {
  kNone = 0,  ///< portable unrolled-scalar kernel only
  kSse2,
  kAvx2,
};

/// The best SIMD level the host supports.
SimdLevel best_simd_level();

/// "none" | "sse2" | "avx2".
const char* simd_level_name(SimdLevel level);

}  // namespace mhd
