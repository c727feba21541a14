#include "tables/tiered_table.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "fixed/fixed.hpp"
#include "tables/lanes.hpp"
#include "tables/remez.hpp"

namespace anton::tables {

TieredLayout TieredLayout::anton_default() {
  return TieredLayout{{
      {0.0, 64},
      {1.0 / 128.0, 96},
      {1.0 / 32.0, 56},
      {1.0 / 4.0, 24},
  }};
}

TieredLayout TieredLayout::uniform(int entries) {
  return TieredLayout{{{0.0, entries}}};
}

int TieredLayout::total_entries() const {
  int n = 0;
  for (const Tier& t : tiers) n += t.entries;
  return n;
}

int TieredLayout::find_segment(double u, double& t) const {
  if (u < 0.0) u = 0.0;
  if (u >= 1.0) u = std::nextafter(1.0, 0.0);
  int base = 0;
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    const double lo = tiers[i].lo;
    const double hi = (i + 1 < tiers.size()) ? tiers[i + 1].lo : 1.0;
    if (u < hi) {
      const double w = (hi - lo) / tiers[i].entries;
      int k = static_cast<int>((u - lo) / w);
      if (k >= tiers[i].entries) k = tiers[i].entries - 1;
      t = (u - (lo + k * w)) / w;
      if (t < 0.0) t = 0.0;
      if (t >= 1.0) t = std::nextafter(1.0, 0.0);
      return base + k;
    }
    base += tiers[i].entries;
  }
  // Unreachable: the clamp above guarantees u < 1.
  t = 0.0;
  return total_entries() - 1;
}

void TieredLayout::segment_bounds(int index, double& lo, double& hi) const {
  int base = 0;
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    const double tlo = tiers[i].lo;
    const double thi = (i + 1 < tiers.size()) ? tiers[i + 1].lo : 1.0;
    if (index < base + tiers[i].entries) {
      const double w = (thi - tlo) / tiers[i].entries;
      lo = tlo + (index - base) * w;
      hi = lo + w;
      return;
    }
    base += tiers[i].entries;
  }
  throw std::out_of_range("TieredLayout::segment_bounds");
}

namespace {

Segment quantize_segment(const double d[4], int mantissa_bits) {
  Segment s;
  double m = 0.0;
  for (int i = 0; i < 4; ++i) m = std::max(m, std::fabs(d[i]));
  if (m == 0.0) return s;
  const double limit = static_cast<double>((1 << (mantissa_bits - 1)) - 1);
  int e = 0;
  // Smallest exponent such that all |d_i| / 2^e <= limit.
  e = static_cast<int>(std::ceil(std::log2(m / limit)));
  // Guard against log2 rounding.
  while (m / std::ldexp(1.0, e) > limit) ++e;
  s.exponent = e;
  const double inv = std::ldexp(1.0, -e);
  for (int i = 0; i < 4; ++i)
    s.c[i] = static_cast<std::int32_t>(std::llrint(d[i] * inv));
  return s;
}

}  // namespace

TieredTable TieredTable::build(std::function<double(double)> f,
                               const TieredLayout& layout, int mantissa_bits,
                               double u_min) {
  if (mantissa_bits < 8 || mantissa_bits > 30)
    throw std::invalid_argument("TieredTable: mantissa bits out of range");
  // find_segment and the lane search both rely on tiers that start at 0
  // and ascend below 1, each with at least one segment.
  for (std::size_t i = 0; i < layout.tiers.size(); ++i) {
    const Tier& t = layout.tiers[i];
    const double hi =
        i + 1 < layout.tiers.size() ? layout.tiers[i + 1].lo : 1.0;
    if (t.entries < 1 || !(t.lo < hi) || (i == 0 && t.lo != 0.0))
      throw std::invalid_argument("TieredTable: malformed tier layout");
  }
  if (layout.tiers.empty())
    throw std::invalid_argument("TieredTable: empty tier layout");
  TieredTable tbl;
  tbl.layout_ = layout;
  tbl.u_min_ = u_min;
  const int n = layout.total_entries();
  tbl.segs_.resize(n);

  for (int k = 0; k < n; ++k) {
    double lo, hi;
    layout.segment_bounds(k, lo, hi);
    const double w = hi - lo;
    // Clamp the sampled domain at u_min; a constant segment below it.
    auto sample = [&](double t) {
      const double u = std::max(lo + t * w, u_min);
      return f(u);
    };
    double d[4];
    if (hi <= u_min) {
      d[0] = f(u_min);
      d[1] = d[2] = d[3] = 0.0;
    } else {
      RemezResult r = remez_minimax(sample, 0.0, 1.0, 3);
      for (int i = 0; i < 4; ++i)
        d[i] = (i < static_cast<int>(r.coeffs.size())) ? r.coeffs[i] : 0.0;
      // Endpoint adjustment for continuity across segment boundaries
      // (shifts the fit so p(0) and p(1) match f exactly, at the cost of a
      // bounded increase in interior error).
      const double e0 = sample(0.0) - polyval(r.coeffs, 0.0);
      const double e1 = sample(1.0) - polyval(r.coeffs, 1.0);
      d[0] += e0;
      d[1] += e1 - e0;
    }
    tbl.segs_[k] = quantize_segment(d, mantissa_bits);
  }
  tbl.build_batch_lanes(mantissa_bits);

  // Record the worst-case error of the quantized integer path over a scan.
  double worst = 0.0;
  const int scan = 16 * n;
  for (int i = 0; i < scan; ++i) {
    const double u = (i + 0.5) / scan;
    if (u < u_min) continue;
    worst = std::max(worst, std::fabs(f(u) - tbl.eval_fixed(u)));
  }
  tbl.worst_fit_error_ = worst;
  return tbl;
}

double TieredTable::eval(double u) const {
  double t;
  const int k = layout_.find_segment(std::max(u, u_min_), t);
  const Segment& s = segs_[k];
  const double acc =
      ((s.c[3] * t + s.c[2]) * t + s.c[1]) * t + s.c[0];
  return std::ldexp(acc, s.exponent);
}

void TieredTable::build_batch_lanes(int mantissa_bits) {
  Lanes& l = lanes_;
  l = Lanes{};
  l.u_lo = u_min_ > 0.0 ? u_min_ : 0.0;
  l.u_floor = l.u_lo < 1.0 ? l.u_lo : std::nextafter(1.0, 0.0);
  const int ntiers = static_cast<int>(layout_.tiers.size());
  l.tier_consts.resize(Lanes::kMaxTiers * Lanes::kKinds);
  std::vector<double> tier_w;
  double base = 0.0;
  for (int i = 0; i < ntiers; ++i) {
    const double lo = layout_.tiers[i].lo;
    const double hi = (i + 1 < ntiers) ? layout_.tiers[i + 1].lo : 1.0;
    const double w = (hi - lo) / layout_.tiers[i].entries;
    const double consts[Lanes::kKinds] = {lo, w, 1.0 / w, base,
                                          layout_.tiers[i].entries - 1.0};
    for (int kind = 0; kind < Lanes::kKinds; ++kind)
      for (int j = i; j < Lanes::kMaxTiers; ++j)  // pads past the last tier
        l.tier_consts[Lanes::kMaxTiers * kind + j] = consts[kind];
    l.tier_lo.push_back(lo);
    tier_w.push_back(w);
    base += layout_.tiers[i].entries;
  }
  l.last_seg = base - 1.0;

  // The lane pipeline replaces eval_fixed's ldexp with a multiply by a
  // precomputed 2^exponent, and carries the integer Horner in doubles.
  // Both are exact only under provable bounds:
  //  * |c_i| <= 2^(mb-1), so every Horner intermediate |acc| < 2^(mb+1)
  //    and every product |acc * tf| < 2^(mb+25); for mb <= 26 that stays
  //    below 2^51, where doubles represent integers exactly and the
  //    magic-number RNE round equals llrint.
  //  * acc * 2^e == ldexp(acc, e) bitwise iff the result is normal; with
  //    |e| <= 960 and |acc| < 2^27 both the scale and the product are far
  //    from the subnormal/overflow ranges.
  l.fast = mantissa_bits <= 26 && ntiers <= Lanes::kMaxTiers;
  // The segment search divides by each tier width w. When every w is a
  // power of two whose reciprocal is a normal double, x / w and
  // x * (1/w) are the correctly rounded values of the same real number
  // x * 2^-e, so they are bitwise equal for every x and the lanes
  // multiply instead. Any other width keeps the division.
  l.multiply = true;
  for (const double w : tier_w) {
    int e = 0;
    if (std::frexp(w, &e) != 0.5 || e < -1000 || e > 1000)
      l.multiply = false;
  }
  l.coef.reserve(4 * segs_.size());
  l.scale.reserve(segs_.size());
  for (const Segment& s : segs_) {
    if (s.exponent < -960 || s.exponent > 960) l.fast = false;
    constexpr double kMagic = 6755399441055744.0;  // 2^52 + 2^51
    l.coef.push_back(s.c[3]);
    for (int i = 2; i >= 0; --i) l.coef.push_back(s.c[i] - kMagic);
    l.scale.push_back(std::ldexp(1.0, s.exponent));
  }
}

double TieredTable::eval_fixed(double u) const {
  double t;
  const int k = layout_.find_segment(std::max(u, u_min_), t);
  const Segment& s = segs_[k];
  // t as a 24-bit fraction; Horner with RNE rounding after each multiply,
  // mirroring the PPIP datapath of Figure 4a.
  const std::int64_t tf =
      std::min<std::int64_t>(fixed::quantize(t, 16777216.0), 16777215);
  std::int64_t acc = s.c[3];
  for (int i = 2; i >= 0; --i)
    acc = fixed::rshift_rne(acc * tf, 24) + s.c[i];
  return std::ldexp(static_cast<double>(acc), s.exponent);
}

// Why carrying the "integer" PPIP pipeline in double lanes is exact:
//  * tf = llrint(t * 2^24) with t in [0,1) is an integer < 2^24; the
//    magic-number round (fixed::rne_round) equals llrint on |x| < 2^51.
//  * Each Horner stage computes rshift_rne(acc * tf, 24) + c. In doubles
//    that is rne_round((acc * tf) * 2^-24) + c: the product is an
//    integer < 2^51 (exact), the power-of-two scale only changes the
//    exponent (exact), and rne_round reproduces the shift's
//    round-to-nearest/even on the now-fractional value. Floor-shift +
//    half/even fixup over 24 bits and RNE on x/2^24 are the same
//    function, so every stage matches rshift_rne bit for bit.
//  * The final acc * scale equals ldexp(acc, exponent) because the
//    result is normal (exponent range checked at build).
//  * The segment search mirrors find_segment operation for operation
//    (lanes::TablePipe); the truncating conversion of k only ever sees
//    values in [0, entries], where it is static_cast<int>.
namespace {

template <class V>
ANTON_LANES_INLINE void eval_fixed_n_body(const TieredTable& t,
                                          const double* u, double* out,
                                          std::size_t n) {
  using Pipe = lanes::TablePipe<V>;
  constexpr std::size_t N = Pipe::N;
  constexpr std::size_t kChunk = 64;  // inputs searched before the Horner
  const Pipe pipe(t);
  typename Pipe::Searched sr[kChunk / N];
  for (std::size_t i0 = 0; i0 < n; i0 += kChunk) {
    const std::size_t m = std::min(kChunk, n - i0);
    const std::size_t full = m / N, nv = (m + N - 1) / N;
    for (std::size_t v = 0; v < full; ++v)
      pipe.search(lanes::load<V>(u + i0 + N * v), sr[v]);
    if (nv > full) {  // the input's last, partial vector
      V uv = lanes::splat<V>(0.0);
      for (std::size_t j = 0; N * full + j < m; ++j)
        uv[j] = u[i0 + N * full + j];
      pipe.search(uv, sr[full]);
    }
    for (std::size_t v = 0; v < full; ++v)
      lanes::store(out + i0 + N * v, pipe.horner(sr[v]));
    if (nv > full) {
      const V g = pipe.horner(sr[full]);
      for (std::size_t j = 0; N * full + j < m; ++j)
        out[i0 + N * full + j] = g[j];
    }
  }
}

void eval_fixed_n_x86_64(const TieredTable& t, const double* u, double* out,
                         std::size_t n) {
  eval_fixed_n_body<lanes::v2d>(t, u, out, n);
}

ANTON_TARGET_AVX2 void eval_fixed_n_avx2(const TieredTable& t,
                                         const double* u, double* out,
                                         std::size_t n) {
  eval_fixed_n_body<lanes::v4d>(t, u, out, n);
}

}  // namespace

void detail::eval_fixed_n(simd::Isa isa, const TieredTable& t,
                          const double* u, double* out, std::size_t n) {
  if (isa == simd::Isa::kAvx2)
    eval_fixed_n_avx2(t, u, out, n);
  else
    eval_fixed_n_x86_64(t, u, out, n);
}

void TieredTable::eval_fixed_n(const double* u, double* out,
                               std::size_t n) const {
  detail::eval_fixed_n(simd::active_isa(), *this, u, out, n);
}

}  // namespace anton::tables
