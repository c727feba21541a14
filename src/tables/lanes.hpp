// Double-vector lanes for the PPIP datapath emulation: the tiered-table
// pipeline and the fixed-point quantize, written once with GCC/Clang
// vector extensions over a lane type V.
//
// Library-internal. A kernel body that uses these helpers is a template
// on V, compiled once per instruction-set clone (tables/simd.hpp): a
// plain wrapper instantiates it with v2d (the two doubles of an SSE2
// register, the baseline x86-64 target) and an ANTON_TARGET_AVX2
// wrapper with v4d. Everything here is force-inlined into the wrapper
// that calls it, so each clone gets code for its own instruction set.
// The helpers must therefore never be called out of line (no lambdas or
// non-inline functions taking or returning vectors inside a body).
//
// Every helper is bitwise equal to its scalar counterpart; the argument
// is in DESIGN.md section 5i.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "tables/tiered_table.hpp"

#define ANTON_LANES_INLINE [[gnu::always_inline]] inline
#if defined(__x86_64__) || defined(__i386__)
// AVX2 only: FMA is a separate target feature and stays off, so no
// multiply-add is contracted in this clone either.
#define ANTON_TARGET_AVX2 [[gnu::target("avx2")]]
#else
#define ANTON_TARGET_AVX2
#endif

// Everything below is force-inlined into the clone that calls it, so no
// vector ever crosses a call boundary; the note GCC emits for 32-byte
// vector parameters outside AVX code concerns an ABI that is never used.
// GCC reports it where the helpers are expanded, so the suppression
// covers the rest of each (kernel) source that includes this header.
#pragma GCC diagnostic ignored "-Wpsabi"

namespace anton::tables::lanes {

typedef double v2d __attribute__((vector_size(16)));
typedef double v4d __attribute__((vector_size(32)));

/// The companion types of a lane type: I holds the lanes' int32 values,
/// M their int64 values (and the masks of lane compares), U wrapping
/// uint64 accumulators.
template <class V>
struct Lane;

template <>
struct Lane<v2d> {
  static constexpr int N = 2;
  typedef std::int32_t I __attribute__((vector_size(8)));
  typedef std::int64_t M __attribute__((vector_size(16)));
  typedef std::uint64_t U __attribute__((vector_size(16)));
};

template <>
struct Lane<v4d> {
  static constexpr int N = 4;
  typedef std::int32_t I __attribute__((vector_size(16)));
  typedef std::int64_t M __attribute__((vector_size(32)));
  typedef std::uint64_t U __attribute__((vector_size(32)));
};

template <class V>
using Mask = typename Lane<V>::M;

inline constexpr double kMagic = 6755399441055744.0;  // 2^52 + 2^51
inline constexpr std::uint64_t kMagicBits = 0x4338000000000000;
inline constexpr double kTwo51 = 2251799813685248.0;

template <class V>
ANTON_LANES_INLINE V splat(double x) {
  if constexpr (Lane<V>::N == 2)
    return V{x, x};
  else
    return V{x, x, x, x};
}

template <class V, class T>
ANTON_LANES_INLINE V load(const T* p) {
  V v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

template <class T, class W>
ANTON_LANES_INLINE void store(T* p, const W& v) {
  std::memcpy(p, &v, sizeof v);
}

/// All-ones in lanes below m, zero from lane m up. Compared as doubles:
/// a 64-bit integer compare is not in the baseline clone's SSE2.
template <class V>
ANTON_LANES_INLINE Mask<V> first_lanes(int m) {
  V idx;
  for (int j = 0; j < Lane<V>::N; ++j) idx[j] = j;
  return idx < static_cast<double>(m);
}

/// True when any lane of the mask m is set.
template <class M>
ANTON_LANES_INLINE bool any_set(const M& m) {
  std::int64_t any = m[0];
  for (std::size_t j = 1; j < sizeof m / sizeof m[0]; ++j) any |= m[j];
  return any != 0;
}

/// The rounding of fixed::quantize(x, scale) per lane, for lanes where
/// y = x * scale has |y| < 2^51: there y + 2^52+2^51 lands in
/// [2^52, 2^53], whose bit pattern minus the magic's is the rounded
/// integer itself. Every other lane (large, infinite or NaN) is marked
/// in `wide` and its result is unspecified; a kernel collects `wide`
/// over a batch and, if any lane is marked, reruns the batch through
/// quantize_exact. The hot path thus stays in registers, with no lane
/// test per vector.
template <class V>
ANTON_LANES_INLINE Mask<V> quantize(const V& x, double scale,
                                    Mask<V>& wide) {
  const V y = x * scale;
  const V abs_y = reinterpret_cast<V>(reinterpret_cast<Mask<V>>(y) &
                                      0x7fffffffffffffff);
  wide |= ~(abs_y < kTwo51);  // NaN compares false, so it is wide
  // Subtracted as uint64: a wide lane's pattern may wrap.
  using U = typename Lane<V>::U;
  return reinterpret_cast<Mask<V>>(reinterpret_cast<U>(y + kMagic) -
                                   kMagicBits);
}

/// fixed::quantize(x, scale) per lane, for every input: the magic round
/// above, and llrint on the wide lanes exactly as fixed::quantize does.
template <class V>
ANTON_LANES_INLINE Mask<V> quantize_exact(const V& x, double scale) {
  Mask<V> wide = {};
  Mask<V> q = quantize(x, scale, wide);
  const V y = x * scale;
  for (int j = 0; j < Lane<V>::N; ++j)
    if (wide[j]) q[j] = std::llrint(y[j]);
  return q;
}

/// Lane j of the result is tab[idx[j]], idx[j] in [0, 4): the permute of
/// a four-entry constant vector by per-lane indices.
template <class V>
ANTON_LANES_INLINE V permute4(const double* tab, const Mask<V>& idx) {
#if defined(__GNUC__) && !defined(__clang__)
  if constexpr (Lane<V>::N == 4)
    return __builtin_shuffle(load<V>(tab), idx);
#endif
  V v;
  for (int j = 0; j < Lane<V>::N; ++j) v[j] = tab[idx[j]];
  return v;
}

/// TieredTable::eval_fixed over lanes (the table's Lanes constants).
template <class V>
class TablePipe {
 public:
  static constexpr int N = Lane<V>::N;

  ANTON_LANES_INLINE explicit TablePipe(const TieredTable& t)
      : table_(t), l_(t.lanes()),
        ntiers_(static_cast<int>(l_.tier_lo.size())) {}

  /// Lanes after the segment search: each lane's segment and its
  /// fraction ts = tf * 2^-24, where tf is eval_fixed's 24-bit t. (For
  /// a table outside the lane pipeline's proof, ts is the finished
  /// eval_fixed value and seg is unused.)
  struct Searched {
    V ts;
    std::int32_t seg[N];
  };

  // eval_fixed is search then horner. Kernels run search over all the
  // vectors of a row or chunk before the first horner: two short
  // dependency chains per lane overlap far better in the core than one
  // long one.

  /// The segment search of eval_fixed.
  ANTON_LANES_INLINE void search(const V& u, Searched& out) const {
    if (!l_.fast) {
      for (int j = 0; j < N; ++j) out.ts[j] = table_.eval_fixed(u[j]);
      return;
    }
    constexpr double kOneBelow = 0x1.fffffffffffffp-1;  // nextafter(1, 0)
    constexpr double kInv24 = 1.0 / 16777216.0;
    using L = TieredTable::Lanes;
    using I = typename Lane<V>::I;
    // std::max(u, u_min) and find_segment's two clamps, as two selects
    // on compares of u itself (see Lanes::u_lo). NaN fails both and
    // searches as u_floor; it is patched to find_segment's fall-through
    // (last segment, t = 0) below.
    const Mask<V> nan = u != u;
    V uu = u >= l_.u_lo ? u : splat<V>(l_.u_floor);
    uu = u >= 1.0 ? splat<V>(kOneBelow) : uu;
    // Tier search: the tiers ascend from 0, so the tier of uu is the
    // number of upper tiers whose lower bound is <= uu (a true compare
    // is -1), and its constants are permuted out of one vector per kind.
    Mask<V> ti = nan & 0;
    for (int j = 1; j < ntiers_; ++j) ti -= uu >= l_.tier_lo[j];
    const V lo = permute4<V>(l_.tier(L::kLo), ti);
    const V w = permute4<V>(l_.tier(L::kW), ti);
    const V inv_w = permute4<V>(l_.tier(L::kInvW), ti);
    const V base = permute4<V>(l_.tier(L::kBase), ti);
    const V last = permute4<V>(l_.tier(L::kLast), ti);
    // k = static_cast<int>((uu - lo) / w): a truncating conversion of a
    // value in [0, entries], then clamped to the tier.
    const V x = l_.multiply ? (uu - lo) * inv_w : (uu - lo) / w;
    V k = __builtin_convertvector(__builtin_convertvector(x, I), V);
    k = k > last ? last : k;
    const V dt = uu - (lo + k * w);
    V t = l_.multiply ? dt * inv_w : dt / w;
    const Mask<V> below = t < 0.0, above = t >= 1.0;
    t = below ? 0.0 : t;
    t = above ? kOneBelow : t;
    V tf = (t * 16777216.0 + kMagic) - kMagic;  // fixed::rne_round
    tf = tf > 16777215.0 ? 16777215.0 : tf;
    // tf * 2^-24 is exact, and so is acc * (tf * 2^-24) in the Horner:
    // it is the integer acc * tf (< 2^51) scaled by a power of two.
    out.ts = nan ? 0.0 : tf * kInv24;
    const I seg =
        __builtin_convertvector(nan ? splat<V>(l_.last_seg) : base + k, I);
    std::memcpy(out.seg, &seg, sizeof seg);
  }

  /// The rest of eval_fixed for searched lanes: the 3-stage RNE Horner
  /// of Figure 4a, then the block exponent.
  ANTON_LANES_INLINE V horner(const Searched& in) const {
    if (!l_.fast) return in.ts;
    // The lanes' coefficient rows, transposed into one vector per
    // coefficient.
    const std::int32_t* s = in.seg;
    const double* coef = l_.coef.data();
    V c3, c2m, c1m, c0m;
    if constexpr (N == 4) {
      const V r0 = load<V>(coef + 4 * s[0]), r1 = load<V>(coef + 4 * s[1]),
              r2 = load<V>(coef + 4 * s[2]), r3 = load<V>(coef + 4 * s[3]);
      const V e01 = __builtin_shufflevector(r0, r1, 0, 4, 2, 6);
      const V o01 = __builtin_shufflevector(r0, r1, 1, 5, 3, 7);
      const V e23 = __builtin_shufflevector(r2, r3, 0, 4, 2, 6);
      const V o23 = __builtin_shufflevector(r2, r3, 1, 5, 3, 7);
      c3 = __builtin_shufflevector(e01, e23, 0, 1, 4, 5);
      c1m = __builtin_shufflevector(e01, e23, 2, 3, 6, 7);
      c2m = __builtin_shufflevector(o01, o23, 0, 1, 4, 5);
      c0m = __builtin_shufflevector(o01, o23, 2, 3, 6, 7);
    } else {
      const double* p0 = coef + 4 * s[0];
      const double* p1 = coef + 4 * s[1];
      const V a0 = load<V>(p0), b0 = load<V>(p0 + 2);
      const V a1 = load<V>(p1), b1 = load<V>(p1 + 2);
      c3 = __builtin_shufflevector(a0, a1, 0, 2);
      c2m = __builtin_shufflevector(a0, a1, 1, 3);
      c1m = __builtin_shufflevector(b0, b1, 0, 2);
      c0m = __builtin_shufflevector(b0, b1, 1, 3);
    }
    const double* sc = l_.scale.data();
    V scale;
    if constexpr (N == 4)
      scale = V{sc[s[0]], sc[s[1]], sc[s[2]], sc[s[3]]};
    else
      scale = V{sc[s[0]], sc[s[1]]};
    // Each stage is rne_round(acc * tf * 2^-24) + c, computed as
    // (acc * ts + M) + (c - M) with M = 2^52 + 2^51 and c - M stored:
    // the first add rounds to M + k exactly as rne_round does, and the
    // second is the exact integer k + c.
    V acc = c3;
    acc = (acc * in.ts + kMagic) + c2m;
    acc = (acc * in.ts + kMagic) + c1m;
    acc = (acc * in.ts + kMagic) + c0m;
    return acc * scale;
  }

 private:
  const TieredTable& table_;
  const TieredTable::Lanes& l_;
  int ntiers_;
};

}  // namespace anton::tables::lanes
