// Rabin fingerprinting by random polynomials (Rabin, 1981), the rolling
// hash used by the content-defined chunkers.
//
// The fingerprint of a byte window is the residue of its polynomial over
// GF(2) modulo a fixed irreducible polynomial P of degree d = 63. With the
// w bytes b_{i-w+1..i} in the window, f_i = sum_j b_{i-j} x^(8j) mod P, and
// rolling b_i in and o_i = b_{i-w} out is, by linearity,
//   f_i = f_{i-1} x^8 + o_i x^(8w) + b_i                            (mod P).
// The tables of one (w, P) live in one immutable RabinTables, built once
// per process and shared by every fingerprint and chunker that uses them:
//   A'[t]  = (t x^d mod P) ^ (t << d)    reduces the byte that f << 8 pushes
//                                        past x^d; `^ (t << d)` clears the
//                                        part of it 64-bit f << 8 keeps
//   R'[o]  = o x^(8w) mod P              the outgoing byte's term
//   T2'[t] = t x^(d+8) mod P             A' one byte further up (the fold,
//                                        t << (d+8), is 0 in 64 bits)
//   R''[o] = o x^(8(w+1)) mod P          R' one byte further up
// so that, in 64-bit arithmetic,
//   f_i     = (f_{i-1} << 8) ^ A'[f_{i-1} >> (d-8)] ^ R'[o_i] ^ b_i
//   f_{i+1} = (f_{i-1} << 16) ^ T2'[f_{i-1} >> (d-8)]
//             ^ A'[(f_{i-1} >> (d-16)) & 255]
//             ^ R''[o_i] ^ (b_i << 8) ^ R'[o_{i+1}] ^ b_{i+1}.
// The second identity is the two-byte roll. Its loop-carried chain is one
// shift, two independent loads and two XORs per two bytes; the removal and
// byte terms depend only on the input and stay off it. f_i, which the
// chunkers still test for a cut, comes from f_{i-1} by the first identity,
// beside the chain.
//
// What the serial dependency rules out: every step indexes a table by the
// previous fingerprint's top byte, so a block's fingerprints cannot be
// produced by a cheap recurrence and then tested in vector lanes, as
// GearChunker's candidate scan does (VectorCDC, arXiv 2505.21194), and a
// gather would put its latency on the chain. Longer strides shorten the
// chain further, but each byte of stride adds a table and a load, and every
// position inside the stride still needs its own fingerprint for the cut
// test, so the work per byte grows. Lanes started w bytes apart would be
// independent, since f_i depends only on the window, but they would hash
// the min-size prefix the scan skips after each cut (a quarter of every
// chunk at min = ECS/4).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "mhd/util/bytes.h"

namespace mhd {

/// The rolling tables of one (window, polynomial); see the header comment.
/// P has degree 63, as kDefaultPoly does, so the roll shifts by constants.
/// Immutable once built; get() hands out one shared instance per pair.
struct RabinTables {
  static constexpr int kDegree = 63;

  /// Throws std::invalid_argument for a zero window or deg(poly) != 63.
  RabinTables(std::size_t window, std::uint64_t poly);

  /// The process-wide tables for (window, poly): built on first use, under
  /// a lock so concurrent first uses build them once, and never freed.
  static const RabinTables& get(std::size_t window, std::uint64_t poly);

  /// f x^8 + in (mod P): appends a byte and removes none.
  std::uint64_t shift_append(std::uint64_t f, Byte in) const {
    return ((f << 8) ^ append[f >> (kDegree - 8)]) ^ in;
  }

  /// One roll: `in` enters the window and `out`, w bytes older, leaves it.
  /// The terms that do not depend on f are grouped off the chain.
  std::uint64_t roll(std::uint64_t f, Byte out, Byte in) const {
    return ((f << 8) ^ append[f >> (kDegree - 8)]) ^ (remove[out] ^ in);
  }

  /// Two rolls, roll(roll(f, out0, in0), out1, in1), with a chain of one.
  std::uint64_t roll2(std::uint64_t f, Byte out0, Byte in0, Byte out1,
                      Byte in1) const {
    std::uint64_t bytes = (remove2[out0] ^ (std::uint64_t{in0} << 8)) ^
                          (remove[out1] ^ in1);
    // An empty asm makes `bytes` opaque, so the compiler cannot reassociate
    // its four terms into the chain behind the f-indexed loads.
    asm("" : "+r"(bytes));
    return ((f << 16) ^ bytes) ^
           (append2[f >> (kDegree - 8)] ^ append[(f >> (kDegree - 16)) & 255]);
  }

  std::size_t window;
  std::uint64_t poly;
  alignas(64) std::array<std::uint64_t, 256> append;   ///< A'
  alignas(64) std::array<std::uint64_t, 256> append2;  ///< T2'
  alignas(64) std::array<std::uint64_t, 256> remove;   ///< R'
  alignas(64) std::array<std::uint64_t, 256> remove2;  ///< R''
};

class RabinFingerprint {
 public:
  /// Degree-63 irreducible polynomial (LBFS lineage); fingerprints < 2^63.
  static constexpr std::uint64_t kDefaultPoly = 0xBFE6B8A5BF378D83ULL;
  static constexpr std::size_t kDefaultWindow = 48;

  /// Throws std::invalid_argument for a zero window.
  explicit RabinFingerprint(std::size_t window = kDefaultWindow,
                            std::uint64_t poly = kDefaultPoly);

  /// Clears the window and fingerprint.
  void reset();

  /// Rolls `b` into the window (and the byte `window` positions back out).
  /// Returns the new fingerprint. The per-byte reference of the chunkers'
  /// scan loops.
  std::uint64_t push(Byte b);

  std::uint64_t value() const { return fp_; }
  std::uint64_t poly() const { return tables_->poly; }

  /// Non-rolling fingerprint of an entire buffer (for tests: rolling over a
  /// buffer must agree with the direct fingerprint of its last w bytes).
  std::uint64_t fingerprint(ByteSpan data) const;

 private:
  const RabinTables* tables_;
  std::vector<Byte> window_;
  std::size_t pos_ = 0;
  std::uint64_t fp_ = 0;
};

/// Degree of a GF(2) polynomial (position of the highest set bit), -1 for 0.
int poly_degree(std::uint64_t p);

/// (value << shift) mod p over GF(2); deg(p) must be <= 63.
std::uint64_t poly_mod_shifted(std::uint64_t value, int shift, std::uint64_t p);

}  // namespace mhd
