// Tiered-index, block-floating-point, piecewise-cubic function tables.
//
// The PPIP evaluates the electrostatic and van der Waals kernels as
// "tabulated piecewise-cubic polynomials ... indexed by r^2 rather than r"
// (Section 4). A tiered indexing scheme divides the domain of (r/R)^2 into
// non-uniform power-of-two tiers, denser where the function varies fast;
// the paper's example layout (64 entries on [0,1/128), 96 on [1/128,1/32),
// 56 on [1/32,1/4), 24 on [1/4,1)) is the default here. Each table entry
// holds four cubic coefficients plus one shared exponent, "as in
// block-floating-point schemes"; the minimax fit per segment comes from
// the Remez exchange algorithm, with endpoint adjustment for continuity.
//
// Two evaluation paths are provided:
//  * eval()       -- double-precision Horner; used for accuracy baselines.
//  * eval_fixed() -- integer Horner with round-to-nearest/even at every
//                    stage, emulating the PPIP's narrow (19-22 bit)
//                    datapaths. A pure function of its inputs, hence
//                    deterministic and decomposition-independent.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace anton::tables {

/// One tier: `entries` equal-width segments covering [lo, hi) where hi is
/// the next tier's lo (or 1.0 for the last tier).
struct Tier {
  double lo = 0.0;
  int entries = 0;
};

struct TieredLayout {
  std::vector<Tier> tiers;

  /// The layout from the paper's Section 4 example (240 entries total).
  static TieredLayout anton_default();

  /// A flat layout (single tier) for comparison/ablation.
  static TieredLayout uniform(int entries);

  int total_entries() const;

  /// Maps u in [0, 1) to a global segment index and the local coordinate
  /// t in [0, 1) within that segment. u outside [0,1) is clamped.
  int find_segment(double u, double& t) const;

  /// [lo, hi) bounds of a global segment index.
  void segment_bounds(int index, double& lo, double& hi) const;
};

/// One table entry: cubic coefficients as signed integers sharing a single
/// power-of-two exponent. value(t) = (c0 + c1 t + c2 t^2 + c3 t^3) * 2^exp.
struct Segment {
  std::int32_t c[4] = {0, 0, 0, 0};
  int exponent = 0;
};

class TieredTable {
 public:
  TieredTable() = default;

  /// Fits `f` (a function of u in [u_min, 1)) over the layout. Below u_min
  /// the table clamps to f(u_min); this guards kernels that diverge at
  /// contact (e.g. 1/r^14) -- a stable simulation never samples there.
  static TieredTable build(std::function<double(double)> f,
                           const TieredLayout& layout, int mantissa_bits = 22,
                           double u_min = 0.0);

  bool empty() const { return segs_.empty(); }

  /// Double-precision evaluation of the fitted (quantized) table.
  double eval(double u) const;

  /// Integer-datapath evaluation (PPIP emulation); bitwise deterministic.
  double eval_fixed(double u) const;

  /// Batched eval_fixed over n inputs: out[i] == eval_fixed(u[i]) bitwise,
  /// for every input. The hot path runs the whole PPIP pipeline (segment
  /// search, 24-bit fraction, RNE Horner, block-exponent scale) in flat
  /// branch-free lanes the compiler can vectorize; the integer Horner is
  /// carried in doubles, which is exact because every intermediate is an
  /// integer below 2^52 (see the proof at the implementation). Tables
  /// whose parameters fall outside that proof fall back to scalar calls.
  void eval_fixed_n(const double* u, double* out, std::size_t n) const;

  /// True when eval_fixed_n's segment search multiplies by the
  /// reciprocal tier width instead of dividing: only when every tier
  /// width is a power of two, where the two are bitwise equal.
  bool multiply_search() const { return multiply_search_; }

  /// Largest |f - table| observed during the fit scan.
  double max_fit_error() const { return worst_fit_error_; }

  const TieredLayout& layout() const { return layout_; }
  const std::vector<Segment>& segments() const { return segs_; }

 private:
  void build_batch_lanes(int mantissa_bits);

  TieredLayout layout_;
  std::vector<Segment> segs_;
  double u_min_ = 0.0;
  double worst_fit_error_ = 0.0;

  // Flattened lanes for eval_fixed_n: per-tier constants of the segment
  // search and the per-segment scale 2^exponent, precomputed at build.
  std::vector<double> tier_lo_, tier_w_, tier_inv_w_;
  std::vector<std::int32_t> tier_base_, tier_entries_;
  std::vector<double> seg_scale_;
  bool fast_batch_ = false;
  bool multiply_search_ = false;
};

}  // namespace anton::tables
