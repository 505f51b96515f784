#include "mhd/util/cpufeatures.h"

#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#define MHD_X86 1
#endif

namespace mhd {

namespace {

#ifdef MHD_X86
// XGETBV via inline asm: the _xgetbv intrinsic needs -mxsave on some
// toolchains, and this file is compiled without ISA extensions so the
// detector itself runs anywhere.
std::uint64_t read_xcr0() {
  std::uint32_t lo = 0, hi = 0;
  __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
}

CpuFeatures detect_x86() {
  CpuFeatures f;
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return f;
  f.sse2 = (edx & (1u << 26)) != 0;
  f.pclmul = (ecx & (1u << 1)) != 0;
  f.ssse3 = (ecx & (1u << 9)) != 0;
  f.sse41 = (ecx & (1u << 19)) != 0;
  f.sse42 = (ecx & (1u << 20)) != 0;

  if (__get_cpuid_max(0, nullptr) >= 7) {
    unsigned eax7 = 0, ebx7 = 0, ecx7 = 0, edx7 = 0;
    __cpuid_count(7, 0, eax7, ebx7, ecx7, edx7);
    // SHA-NI operates on XMM state only, so no XGETBV gate beyond SSE.
    f.sha_ni = (ebx7 & (1u << 29)) != 0;

    // AVX2 needs the instruction set (leaf 7 EBX bit 5) *and* OS-enabled
    // YMM state: CPUID.1:ECX OSXSAVE + AVX bits, then XCR0 XMM|YMM.
    const bool osxsave = (ecx & (1u << 27)) != 0;
    const bool avx = (ecx & (1u << 28)) != 0;
    if (osxsave && avx) {
      const bool avx2_insn = (ebx7 & (1u << 5)) != 0;
      const std::uint64_t xcr0 = read_xcr0();
      f.avx2 = avx2_insn && (xcr0 & 0x6) == 0x6;
    }
  }
  return f;
}
#endif

CpuFeatures detect() {
#ifdef MHD_X86
  return detect_x86();
#else
  return CpuFeatures{};
#endif
}

}  // namespace

const CpuFeatures& cpu_features() {
  static const CpuFeatures features = detect();
  return features;
}

SimdLevel best_simd_level() {
  const CpuFeatures& f = cpu_features();
  if (f.avx2) return SimdLevel::kAvx2;
  if (f.sse2) return SimdLevel::kSse2;
  return SimdLevel::kNone;
}

const char* simd_level_name(SimdLevel level) {
  switch (level) {
    case SimdLevel::kNone: return "none";
    case SimdLevel::kSse2: return "sse2";
    case SimdLevel::kAvx2: return "avx2";
  }
  return "?";
}

}  // namespace mhd
