// Fixed-point arithmetic primitives (Section 4 of the paper).
//
// Anton represents every physical quantity as a B-bit signed fixed-point
// number, with two key consequences this module reproduces exactly:
//
//  * Addition/subtraction WRAP in the natural two's-complement way, which
//    makes summation associative and commutative: a collection of values
//    sums to the correct result regardless of order, as long as the final
//    sum is representable, even when intermediate partial sums wrap
//    (footnote 2 of the paper). This is the root of Anton's determinism
//    and parallel invariance.
//
//  * All rounding uses round-to-nearest/even (RNE), which is odd-symmetric
//    (RNE(-x) == -RNE(x)). Combined with wrap addition this makes the
//    fixed-point integrator bitwise time reversible.
//
// Signed overflow is UB in C++, so wrapping ops are implemented in unsigned
// arithmetic and converted back; the conversions are value-preserving on
// all two's-complement targets (guaranteed since C++20).
#pragma once

#include <cmath>
#include <cstdint>

namespace anton::fixed {

/// Wrapping 64-bit add (associative, commutative; may wrap like hardware).
inline constexpr std::int64_t wrap_add(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}

/// Wrapping 64-bit subtract; exact inverse of wrap_add.
inline constexpr std::int64_t wrap_sub(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                   static_cast<std::uint64_t>(b));
}

/// Wrapping 32-bit add. On the position lattice this steps across the
/// periodic boundary.
inline constexpr std::int32_t wrap_add32(std::int32_t a, std::int32_t b) {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(a) +
                                   static_cast<std::uint32_t>(b));
}

/// Wrapping 32-bit subtract. On the position lattice, a - b wraps to the
/// minimum-image displacement whenever the true separation is below L/2.
inline constexpr std::int32_t wrap_sub32(std::int32_t a, std::int32_t b) {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(a) -
                                   static_cast<std::uint32_t>(b));
}

/// Arithmetic right shift by k with round-to-nearest/even; the fixed-point
/// equivalent of dividing by 2^k. k == 0 returns v unchanged.
inline constexpr std::int64_t rshift_rne(std::int64_t v, int k) {
  if (k <= 0) return v;
  const std::int64_t q = v >> k;  // floor division by 2^k
  const std::int64_t mask = (std::int64_t{1} << k) - 1;
  const std::int64_t r = v & mask;
  const std::int64_t half = std::int64_t{1} << (k - 1);
  if (r > half || (r == half && (q & 1))) return q + 1;
  return q;
}

/// Rounds a double to an integer-valued double with ties to even, via the
/// classic magic-number trick: adding 2^52 + 2^51 pushes the value into a
/// binade whose ULP is exactly 1, so the add itself performs the rounding
/// (in the default IEEE mode), and the subtract is exact. Bitwise equal to
/// (double)llrint(x) for |x| < 2^51 -- the domain every batched kernel in
/// this codebase proves before using it. Unlike llrint this is a pure
/// add/sub data operation, so compilers vectorize loops around it.
inline double rne_round(double x) {
  constexpr double kMagic = 6755399441055744.0;  // 2^52 + 2^51
  return (x + kMagic) - kMagic;
}

/// Quantizes a real value onto the integer grid x -> round(x * scale),
/// rounding to nearest with ties to even (IEEE default mode). The result
/// is odd-symmetric: quantize(-x, s) == -quantize(x, s).
///
/// Bitwise std::llrint(x * scale) for every input. llrint is a libm call
/// at -O2 (it may set errno, so it is not inlined), and this is the
/// innermost operation of every mesh, pair and integration kernel; the
/// common case |x * scale| < 2^51 therefore runs as the inline
/// magic-number round above, exact on that domain. Larger magnitudes,
/// infinities and NaN take the llrint call and its out-of-range result.
/// The product is rounded once before the round-to-integer: the build is
/// ISO C++ without -march, so no FMA contraction fuses the two.
inline std::int64_t quantize(double x, double scale) {
  const double y = x * scale;
  if (std::fabs(y) < 2251799813685248.0)  // 2^51
    return static_cast<std::int64_t>(rne_round(y));
  return std::llrint(y);
}

/// Wraps a value into the range of a B-bit signed integer (the natural
/// hardware behaviour of a B-bit datapath).
inline constexpr std::int64_t wrap_to_bits(std::int64_t v, int bits) {
  const std::uint64_t u = static_cast<std::uint64_t>(v) << (64 - bits);
  return static_cast<std::int64_t>(u) >> (64 - bits);
}

/// Clamps a value to the range of a B-bit signed integer (used by datapath
/// stages that saturate instead of wrapping).
inline constexpr std::int64_t saturate_to_bits(std::int64_t v, int bits) {
  const std::int64_t lo = -(std::int64_t{1} << (bits - 1));
  const std::int64_t hi = (std::int64_t{1} << (bits - 1)) - 1;
  return v < lo ? lo : (v > hi ? hi : v);
}

// ---------------------------------------------------------------------------
// Engine-wide fixed-point scales. A value of physical magnitude m is stored
// as round(m * kScale). Ranges are generous: velocities up to ~2^23 A/fs
// and forces up to ~2^31 kcal/mol/A before the accumulator wraps -- far
// beyond anything a stable simulation produces.
// ---------------------------------------------------------------------------

/// Velocity grid: counts per (A/fs).
inline constexpr double kVelScale = 1099511627776.0;  // 2^40

/// Force grid: counts per (kcal/mol/A).
inline constexpr double kForceScale = 4294967296.0;  // 2^32

/// Energy grid: counts per (kcal/mol).
inline constexpr double kEnergyScale = 4294967296.0;  // 2^32

/// Virial grid (128-bit accumulators, cf. the paper's 86-bit units):
/// counts per (kcal/mol).
inline constexpr double kVirialScale = 4294967296.0;  // 2^32

inline std::int64_t quantize_force(double f) { return quantize(f, kForceScale); }
inline std::int64_t quantize_energy(double e) { return quantize(e, kEnergyScale); }
inline double force_to_phys(std::int64_t f) {
  return static_cast<double>(f) / kForceScale;
}
inline double energy_to_phys(std::int64_t e) {
  return static_cast<double>(e) / kEnergyScale;
}
inline double vel_to_phys(std::int64_t v) {
  return static_cast<double>(v) / kVelScale;
}

}  // namespace anton::fixed
