// PPIP pair-kernel emulation.
//
// "Each PPIP computes two arbitrary functions of a distance r, to evaluate
// the electrostatic and van der Waals forces between two atoms"
// (Section 4), as tabulated piecewise-cubic polynomials indexed by r^2.
// This class owns those tables -- direct-space Ewald electrostatics and
// the two Lennard-Jones terms, for force and energy, plus the Gaussian
// kernels for charge spreading and force interpolation -- all built over
// the tiered layout with block-floating-point coefficients, and evaluates
// pairs through the integer (PPIP-datapath) path.
//
// Conventions: u = r^2 / R^2 in [0, 1). Force tables return the scalar
// coefficient c with F_on_i = c * (r_i - r_j); energy tables return the
// pair energy. Per-pair parameters (q_i q_j, LJ A/B by type pair) are the
// PPIP's "user-specified parameter values".
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "ff/topology.hpp"
#include "geom/vec3.hpp"
#include "tables/simd.hpp"
#include "tables/tiered_table.hpp"

namespace anton::ewald {
struct MeshRow;
}  // namespace anton::ewald

namespace anton::htis {

struct PairKernelParams {
  double cutoff = 13.0;  // direct-space cutoff R (A)
  double beta = 0.25;    // Ewald splitting (1/A)
  double sigma_s = 1.0;  // GSE spreading Gaussian width (A)
  double rs = 5.0;       // GSE spreading cutoff (A)
  int mantissa_bits = 22;
  /// Electrostatic-table layout (the paper's Section 4 example).
  tables::TieredLayout layout = tables::TieredLayout::anton_default();
  /// Van der Waals-table layout: the PPIP's two function evaluators are
  /// configured independently ("user-specified lookup tables"), and the
  /// r^-14 kernel needs a denser mid-range than erfc does -- with a 13 A
  /// cutoff, sigma-contact repulsion lands in (r/R)^2 ~ 0.03-0.08, where
  /// the electrostatic layout's third tier is coarse.
  tables::TieredLayout layout_vdw = tables::TieredLayout{{
      {0.0, 96},
      {1.0 / 128.0, 128},
      {1.0 / 32.0, 192},
      {1.0 / 4.0, 48},
  }};
  /// Minimum pair distance the LJ tables resolve (clamped below), A.
  double r_min = 0.8;
};

struct PairForceEnergy {
  double force_coef = 0.0;  // F_i = force_coef * dr (dr = r_i - r_j)
  double energy_elec = 0.0;
  double energy_lj = 0.0;
};

/// Four wrap-add accumulator lanes per force component. Wrapping adds
/// commute, so a sum split over lanes and folded at the end equals the
/// sum taken point by point, bit for bit.
struct ForceLanes {
  std::uint64_t x[4] = {0, 0, 0, 0};
  std::uint64_t y[4] = {0, 0, 0, 0};
  std::uint64_t z[4] = {0, 0, 0, 0};

  Vec3l fold() const {
    const auto sum = [](const std::uint64_t* v) {
      return static_cast<std::int64_t>(v[0] + v[1] + v[2] + v[3]);
    };
    return {sum(x), sum(y), sum(z)};
  }
};

class PairKernels;

namespace detail {

// The GSE atom-mesh kernels over a batch of mesh rows (ewald::MeshRow,
// possibly a run of a longer row: only dx, dy, dz and n are read; point
// k's r^2 is (dx[k]*dx[k] + dy*dy) + dz*dz). Each row occupies
// round4(n) slots of the batch's point arrays (n rounded up to a multiple
// of four), rows in order: row r's point k is slot off_r + k with off_r
// the sum of round4(n) over the rows before it. A batch holds at most
// kBatchSlots slots. The kernels work in whole four-slot vectors: each
// row's dx must be readable up to round4(n), phi's dead slots must be
// finite, and dq's dead slots are clobbered. Compiled once per
// instruction-set clone; `isa` selects it and must be supported by the
// host (tables::simd::host_supports). Callers normally pass
// tables::simd::active_isa().

inline constexpr int kBatchSlots = 64;

constexpr int round4(int n) { return (n + 3) & ~3; }

/// dq[slot] = fixed::quantize(qi * eval_spread(r2), scale) per point.
void spread_rows(tables::simd::Isa isa, const PairKernels& k,
                 const ewald::MeshRow* rows, int nrows, double qi,
                 double scale, std::int64_t* dq);

/// Per point, with c = (pref * phi[slot]) * eval_interp(r2), wrap-adds
/// fixed::quantize(c * dx, scale) (and likewise for dy, dz) into acc.
void interp_rows(tables::simd::Isa isa, const PairKernels& k,
                 const ewald::MeshRow* rows, int nrows, const double* phi,
                 double pref, double scale, ForceLanes& acc);

}  // namespace detail

class PairKernels {
 public:
  PairKernels() = default;
  PairKernels(const PairKernelParams& p, const std::vector<LJType>& types);

  const PairKernelParams& params() const { return p_; }

  /// Direct-space nonbonded interaction through the PPIP datapath.
  /// r2 in A^2 (must be < cutoff^2), qiqj the charge product, (ti, tj)
  /// the LJ types. Set with_energy to also evaluate the energy tables.
  PairForceEnergy eval_nonbonded(double r2, double qiqj, int ti, int tj,
                                 bool with_energy) const;

  /// Batched force-coefficient evaluation: coef[i] is bitwise equal to
  /// eval_nonbonded(r2[i], qq[i], ti, tj, false).force_coef where the
  /// caller has pre-gathered a[i] = lj_a(ti, tj), b[i] = lj_b(ti, tj).
  /// All three tables run their vectorized eval_fixed_n path.
  void eval_nonbonded_coef_n(std::size_t n, const double* r2,
                             const double* qq, const double* a,
                             const double* b, double* coef) const;

  /// Charge-spreading kernel: Gaussian density value at r2 (<= rs^2).
  double eval_spread(double r2) const;

  /// Force-interpolation kernel: the same Gaussian; the caller multiplies
  /// by q_i phi_m h^3 / sigma_s^2 and the displacement vector.
  double eval_interp(double r2) const;

  /// Worst-case fit error across the force tables (diagnostics).
  double worst_force_table_error() const;

  /// Every table this evaluator built, by name (read-only; for
  /// diagnostics and the table property tests).
  std::vector<std::pair<const char*, const tables::TieredTable*>> tables()
      const {
    return {{"f_elec", &f_elec_}, {"e_elec", &e_elec_},
            {"f_lj12", &f_lj12_}, {"e_lj12", &e_lj12_},
            {"f_lj6", &f_lj6_},   {"e_lj6", &e_lj6_},
            {"g_spread", &g_spread_}};
  }

  /// LJ A/B combined parameters for a type pair.
  double lj_a(int ti, int tj) const { return a_[idx(ti, tj)]; }
  double lj_b(int ti, int tj) const { return b_[idx(ti, tj)]; }

 private:
  friend void detail::spread_rows(tables::simd::Isa, const PairKernels&,
                                  const ewald::MeshRow*, int, double, double,
                                  std::int64_t*);
  friend void detail::interp_rows(tables::simd::Isa, const PairKernels&,
                                  const ewald::MeshRow*, int, const double*,
                                  double, double, ForceLanes&);

  std::size_t idx(int ti, int tj) const {
    return static_cast<std::size_t>(ti) * ntypes_ + tj;
  }

  PairKernelParams p_;
  int ntypes_ = 0;
  std::vector<double> a_, b_;  // type-pair LJ coefficients
  // Tables over u = r^2/R^2.
  tables::TieredTable f_elec_, e_elec_;  // erfc kernels (per unit qq)
  tables::TieredTable f_lj12_, e_lj12_;  // 12/r^14 and 1/r^12
  tables::TieredTable f_lj6_, e_lj6_;    // 6/r^8 and 1/r^6
  // Tables over u = r^2/rs^2.
  tables::TieredTable g_spread_;
  double inv_cut2_ = 0.0;
  double inv_rs2_ = 0.0;
};

}  // namespace anton::htis
