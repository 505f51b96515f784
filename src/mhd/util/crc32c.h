// CRC32C (Castagnoli) kernel family — the integrity checksum behind the
// self-verifying object framing (store/framing.h).
//
// Every object written through the durability layer carries a CRC32C over
// its payload, and every read re-verifies it, so the checksum sits on the
// ingest and restore hot paths next to SHA-1. Two kernels share one
// contract and are bit-identical on every input (enforced by
// tests/util/crc32c_test.cpp):
//
//  * portable — slice-by-8 table lookup; runs anywhere.
//  * sse42    — the x86 crc32 instruction, 8 bytes per instruction in three
//    independent lanes whose CRCs are folded with PCLMULQDQ (so it needs
//    SSE4.2 and PCLMUL; a host without either gets portable). Compiled
//    with a per-function target attribute so the binary stays runnable on
//    any x86-64; availability is a runtime CPUID question
//    (util/cpufeatures), never a compile-time one.
//
// The API follows zlib's chaining convention: `crc` is the running value,
// 0 for a fresh stream, and crc32c(crc32c(0, a), b) == crc32c(0, a ++ b).
// The final/initial bit inversions happen inside each call.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "mhd/util/bytes.h"

namespace mhd {

/// Extends `crc` (0 = fresh stream) over `len` bytes.
using Crc32cFn = std::uint32_t (*)(std::uint32_t crc, const Byte* data,
                                   std::size_t len);

std::uint32_t crc32c_portable(std::uint32_t crc, const Byte* data,
                              std::size_t len);

/// Longest lane of the sse42 kernel, in bytes: a buffer longer than three
/// lanes runs several three-lane blocks.
constexpr std::size_t kCrc32cLaneCap = 4096;

/// One compiled-in kernel. Calling `fn` with supported == false raises
/// SIGILL, so every iteration over the registry must gate on it.
struct Crc32cKernelInfo {
  const char* name;  ///< "portable" | "sse42"
  Crc32cFn fn;
  bool supported;
};

/// Every kernel compiled into this binary, portable first.
std::span<const Crc32cKernelInfo> crc32c_kernels();

/// Best-supported kernel, resolved once at first use.
std::uint32_t crc32c(std::uint32_t crc, ByteSpan data);

/// Name of the kernel crc32c() dispatches to ("portable" | "sse42").
const char* crc32c_impl_name();

}  // namespace mhd
