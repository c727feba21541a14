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

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "tables/simd.hpp"

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
  /// for every input (NaN, infinities, signed zeros and subnormals
  /// included). Runs the whole PPIP pipeline (segment search, 24-bit
  /// fraction, RNE Horner, block-exponent scale) four lanes at a time on
  /// the host's best instruction-set clone (tables/simd.hpp); the integer
  /// Horner is carried in doubles, which is exact because every
  /// intermediate is an integer below 2^51 (see the proof at the
  /// implementation). Tables whose parameters fall outside that proof
  /// evaluate each lane through eval_fixed.
  void eval_fixed_n(const double* u, double* out, std::size_t n) const;

  /// True when eval_fixed_n's segment search multiplies by the
  /// reciprocal tier width instead of dividing: only when every tier
  /// width is a power of two, where the two are bitwise equal.
  bool multiply_search() const { return lanes_.multiply; }

  /// The constants eval_fixed_n's lane pipeline (tables/lanes.hpp)
  /// reads, flattened at build.
  struct Lanes {
    /// The lanes run tables of at most kMaxTiers tiers: each kind of
    /// per-tier constant is one vector of four entries, indexed by tier
    /// (padded with the last tier's value).
    static constexpr int kMaxTiers = 4;
    enum Kind { kLo, kW, kInvW, kBase, kLast, kKinds };
    const double* tier(Kind kind) const {
      return tier_consts.data() + kMaxTiers * kind;
    }
    std::vector<double> tier_consts;  // kMaxTiers * kKinds
    std::vector<double> tier_lo;      // per tier
    /// Per segment one 32-byte row: c3, c2 - M, c1 - M, c0 - M with
    /// M = 2^52 + 2^51 (exact: |c| < 2^26), so four lanes load their
    /// rows and transpose them, and each Horner stage's rounding and
    /// coefficient add are two adds.
    std::vector<double> coef;
    std::vector<double> scale;  // per segment: 2^exponent
    double last_seg = 0.0;      // index of the last segment
    /// std::max(u, u_min) followed by find_segment's clamps equals
    /// u >= 1 ? nextafter(1, 0) : u >= u_lo ? u : u_floor, with
    /// u_lo = max(u_min, 0) and u_floor = u_lo clamped below 1, up to
    /// the sign of a zero, which the search maps to the same segment
    /// and the same t.
    double u_lo = 0.0, u_floor = 0.0;
    /// The lane pipeline is exact for this table and the layout has at
    /// most kMaxTiers tiers; when false every lane runs eval_fixed.
    bool fast = false;
    bool multiply = false;  // see multiply_search()
  };
  const Lanes& lanes() const { return lanes_; }

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

  Lanes lanes_;
};

namespace detail {

/// eval_fixed_n compiled for one instruction set, bypassing the
/// dispatcher. `isa` must be one the host supports.
void eval_fixed_n(simd::Isa isa, const TieredTable& t, const double* u,
                  double* out, std::size_t n);

}  // namespace detail

}  // namespace anton::tables
