// SHA-1 (FIPS 180-1), implemented from scratch.
//
// SHA-1 is the content hash of the paper's system: every chunk, merged
// chunk, hook and manifest is named by its SHA-1. Cryptographic strength is
// irrelevant here (dedup identity only), so the historical choice is kept
// for fidelity with the paper.
//
// The compression function is runtime-dispatched across the kernel family
// in sha1_kernels.h (portable / SSSE3-schedule / SHA-NI). Selection happens
// once — at first use or via set_sha1_impl() from the --hash-impl flag —
// and every hasher constructed afterwards uses the selected kernel. All
// kernels are bit-identical, so dispatch never changes results, only MB/s.
#pragma once

#include <cstdint>
#include <string_view>

#include "mhd/hash/digest.h"
#include "mhd/hash/sha1_kernels.h"
#include "mhd/util/bytes.h"

namespace mhd {

/// Selects the process-wide SHA-1 kernel. `requested` resolves through the
/// host CPUID (and the MHD_FORCE_PORTABLE_HASH override): kAuto picks the
/// best supported kernel, an explicit request falls back gracefully down
/// the shani > simd > portable chain when unsupported. Thread-safe, but
/// callers racing with in-flight hashing may see either kernel — engines
/// call this once at construction, before any hashing starts.
void set_sha1_impl(Sha1Impl requested);

/// The most recently requested implementation (kAuto until set).
Sha1Impl sha1_impl();

/// The compression function the next Sha1 instance will capture.
Sha1CompressFn active_sha1_compress();

/// Resolved kernel name ("shani", "simd-ssse3", "portable") of the kernel
/// currently installed by set_sha1_impl() / first use.
const char* active_sha1_impl_name();

/// Pure resolution: the kernel name `requested` would select on this host
/// right now (honours MHD_FORCE_PORTABLE_HASH). Used by metrics so JSON
/// reports the kernel that actually ran, not the flag that was asked for.
const char* resolved_sha1_impl_name(Sha1Impl requested);

/// Flag-vocabulary name: "auto" | "shani" | "simd" | "portable".
const char* sha1_impl_name(Sha1Impl impl);

/// Inverse of sha1_impl_name(); throws std::invalid_argument on anything
/// else.
Sha1Impl sha1_impl_from_string(std::string_view name);

/// One-shot digest through an explicit kernel, bypassing dispatch. This is
/// the primitive the differential tests and micro-benchmarks use to pin a
/// specific kernel regardless of what dispatch resolved.
Digest sha1_digest_with(Sha1CompressFn fn, ByteSpan data);

/// Incremental SHA-1 hasher. Captures the dispatched kernel at
/// construction, so a hasher's results are stable even if set_sha1_impl()
/// runs concurrently (all kernels agree anyway).
class Sha1 {
 public:
  Sha1() : fn_(active_sha1_compress()) { reset(); }

  void reset();
  void update(ByteSpan data);
  /// Finalizes and returns the digest. The hasher must be reset() before
  /// reuse after calling digest().
  Digest digest();

  /// One-shot fast path: whole 64-byte blocks are compressed directly from
  /// the caller's buffer in a single multi-block kernel call — no staging
  /// through the internal 64-byte buffer, no hasher object. This is the
  /// per-chunk fingerprint path every ingest site should use.
  static Digest digest_of(ByteSpan data) {
    return sha1_digest_with(active_sha1_compress(), data);
  }

  /// One-shot convenience (alias of digest_of, kept for existing callers).
  static Digest hash(ByteSpan data) { return digest_of(data); }

 private:
  Sha1CompressFn fn_;
  std::uint32_t h_[5];
  std::uint64_t total_bytes_;
  Byte buffer_[64];
  std::size_t buffered_;
};

}  // namespace mhd
