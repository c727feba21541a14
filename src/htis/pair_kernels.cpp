#include "htis/pair_kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "ewald/gse.hpp"
#include "ewald/kernels.hpp"
#include "tables/lanes.hpp"

namespace anton::htis {

PairKernels::PairKernels(const PairKernelParams& p,
                         const std::vector<LJType>& types)
    : p_(p), ntypes_(static_cast<int>(types.size())) {
  a_.resize(static_cast<std::size_t>(ntypes_) * ntypes_);
  b_.resize(a_.size());
  for (int i = 0; i < ntypes_; ++i) {
    for (int j = 0; j < ntypes_; ++j) {
      // Lorentz-Berthelot combining.
      const double sigma = 0.5 * (types[i].sigma + types[j].sigma);
      const double eps = std::sqrt(types[i].epsilon * types[j].epsilon);
      a_[idx(i, j)] = ewald::lj_A(sigma, eps);
      b_[idx(i, j)] = ewald::lj_B(sigma, eps);
    }
  }

  const double R = p.cutoff;
  const double u_min = (p.r_min * p.r_min) / (R * R);
  auto r_of = [R](double u) { return R * std::sqrt(u); };

  // Energy tables are POTENTIAL-SHIFTED to vanish at the cutoff, so pairs
  // entering/leaving the range-limited set cause no energy discontinuity
  // (forces are unaffected; this is the standard truncation treatment and
  // what keeps NVE drift down).
  const double e_elec_rc = ewald::coul_direct_energy(R, p_.beta);
  const double rc2 = R * R;
  const double e12_rc = 1.0 / std::pow(rc2, 6);
  const double e6_rc = 1.0 / (rc2 * rc2 * rc2);
  f_elec_ = tables::TieredTable::build(
      [&](double u) {
        const double r = r_of(u);
        return ewald::coul_direct_force(r, p_.beta);
      },
      p.layout, p.mantissa_bits, u_min);
  e_elec_ = tables::TieredTable::build(
      [&](double u) {
        return ewald::coul_direct_energy(r_of(u), p_.beta) - e_elec_rc;
      },
      p.layout, p.mantissa_bits, u_min);
  f_lj12_ = tables::TieredTable::build(
      [&](double u) {
        const double r2 = u * R * R;
        return 12.0 / (r2 * r2 * r2 * r2 * r2 * r2 * r2);
      },
      p.layout_vdw, p.mantissa_bits, u_min);
  e_lj12_ = tables::TieredTable::build(
      [&](double u) {
        const double r2 = u * R * R;
        return 1.0 / (r2 * r2 * r2 * r2 * r2 * r2) - e12_rc;
      },
      p.layout_vdw, p.mantissa_bits, u_min);
  f_lj6_ = tables::TieredTable::build(
      [&](double u) {
        const double r2 = u * R * R;
        return 6.0 / (r2 * r2 * r2 * r2);
      },
      p.layout_vdw, p.mantissa_bits, u_min);
  e_lj6_ = tables::TieredTable::build(
      [&](double u) {
        const double r2 = u * R * R;
        return 1.0 / (r2 * r2 * r2) - e6_rc;
      },
      p.layout_vdw, p.mantissa_bits, u_min);
  g_spread_ = tables::TieredTable::build(
      [&](double u) {
        return ewald::gaussian3d(u * p_.rs * p_.rs, p_.sigma_s);
      },
      p.layout, p.mantissa_bits, 0.0);

  inv_cut2_ = 1.0 / (R * R);
  inv_rs2_ = 1.0 / (p.rs * p.rs);
}

PairForceEnergy PairKernels::eval_nonbonded(double r2, double qiqj, int ti,
                                            int tj, bool with_energy) const {
  const double u = r2 * inv_cut2_;
  const double A = a_[idx(ti, tj)];
  const double B = b_[idx(ti, tj)];
  PairForceEnergy out;
  out.force_coef = qiqj * f_elec_.eval_fixed(u) + A * f_lj12_.eval_fixed(u) -
                   B * f_lj6_.eval_fixed(u);
  if (with_energy) {
    out.energy_elec = qiqj * e_elec_.eval_fixed(u);
    out.energy_lj = A * e_lj12_.eval_fixed(u) - B * e_lj6_.eval_fixed(u);
  }
  return out;
}

void PairKernels::eval_nonbonded_coef_n(std::size_t n, const double* r2,
                                        const double* qq, const double* a,
                                        const double* b, double* coef) const {
  // Per-thread scratch: PairKernels is shared read-only across engine
  // lanes, so batch intermediates cannot live in members.
  thread_local std::vector<double> u, fe, f12, f6;
  u.resize(n);
  fe.resize(n);
  f12.resize(n);
  f6.resize(n);
  for (std::size_t i = 0; i < n; ++i) u[i] = r2[i] * inv_cut2_;
  f_elec_.eval_fixed_n(u.data(), fe.data(), n);
  f_lj12_.eval_fixed_n(u.data(), f12.data(), n);
  f_lj6_.eval_fixed_n(u.data(), f6.data(), n);
  // Same association as eval_nonbonded: (qq*fe + A*f12) - B*f6.
  for (std::size_t i = 0; i < n; ++i)
    coef[i] = qq[i] * fe[i] + a[i] * f12[i] - b[i] * f6[i];
}

double PairKernels::eval_spread(double r2) const {
  return g_spread_.eval_fixed(r2 * inv_rs2_);
}

double PairKernels::eval_interp(double r2) const {
  return g_spread_.eval_fixed(r2 * inv_rs2_);
}

double PairKernels::worst_force_table_error() const {
  return std::max({f_elec_.max_fit_error(), f_lj12_.max_fit_error(),
                   f_lj6_.max_fit_error(), g_spread_.max_fit_error()});
}

namespace {

// The row kernels run the table's segment search over every vector of
// the batch first (see TablePipe), then the Horner, quantize and store
// or accumulate: the rows of a batch overlap in the core. The
// interpolation masks each row's dead slots out of its sums.

namespace lanes = tables::lanes;
using ewald::MeshRow;

template <class V>
using Searched = typename lanes::TablePipe<V>::Searched;

template <class V>
ANTON_LANES_INLINE int search_rows(const lanes::TablePipe<V>& pipe,
                                   double inv_rs2, const MeshRow* rows,
                                   int nrows, Searched<V>* sr) {
  constexpr int N = lanes::Lane<V>::N;
  int nv = 0;
  for (int r = 0; r < nrows; ++r) {
    const MeshRow& row = rows[r];
    const double dy2 = row.dy * row.dy, dz2 = row.dz * row.dz;
    for (int k = 0; k < detail::round4(row.n); k += N) {
      const V x = lanes::load<V>(row.dx + k);
      pipe.search(((x * x + dy2) + dz2) * inv_rs2, sr[nv++]);
    }
  }
  return nv;
}

// Quantizes per lane: with kExact, fixed::quantize itself; without,
// the magic round alone, marking in `wide` the lanes it does not cover.
template <bool kExact, class V>
ANTON_LANES_INLINE lanes::Mask<V> quantize(const V& x, double scale,
                                           lanes::Mask<V>& wide) {
  if constexpr (kExact)
    return lanes::quantize_exact(x, scale);
  else
    return lanes::quantize(x, scale, wide);
}

template <bool kExact, class V>
ANTON_LANES_INLINE void spread_quantize(const lanes::TablePipe<V>& pipe,
                                        const Searched<V>* sr, int nv,
                                        double qi, double scale,
                                        std::int64_t* dq,
                                        lanes::Mask<V>& wide) {
  constexpr int N = lanes::Lane<V>::N;
  for (int v = 0; v < nv; ++v)
    lanes::store(dq + N * v,
                 quantize<kExact>(qi * pipe.horner(sr[v]), scale, wide));
}

template <class V>
ANTON_LANES_INLINE void spread_rows_body(const tables::TieredTable& table,
                                         double inv_rs2, const MeshRow* rows,
                                         int nrows, double qi, double scale,
                                         std::int64_t* dq) {
  const lanes::TablePipe<V> pipe(table);
  Searched<V> sr[detail::kBatchSlots / lanes::Lane<V>::N];
  const int nv = search_rows(pipe, inv_rs2, rows, nrows, sr);
  lanes::Mask<V> wide = {};
  spread_quantize<false>(pipe, sr, nv, qi, scale, dq, wide);
  if (lanes::any_set(wide)) [[unlikely]]
    spread_quantize<true>(pipe, sr, nv, qi, scale, dq, wide);
}

template <bool kExact, class V, class U>
ANTON_LANES_INLINE void interp_sum(const lanes::TablePipe<V>& pipe,
                                   const Searched<V>* sr, const MeshRow* rows,
                                   int nrows, const double* phi, double pref,
                                   double scale, U& ax, U& ay, U& az,
                                   lanes::Mask<V>& wide) {
  constexpr int N = lanes::Lane<V>::N;
  int v = 0;
  for (int r = 0; r < nrows; ++r) {
    const MeshRow& row = rows[r];
    for (int k = 0; k < detail::round4(row.n); k += N, ++v) {
      const V x = lanes::load<V>(row.dx + k);
      const V c = (pref * lanes::load<V>(phi + N * v)) * pipe.horner(sr[v]);
      const lanes::Mask<V> live = lanes::first_lanes<V>(row.n - k);
      ax += reinterpret_cast<U>(quantize<kExact>(c * x, scale, wide) & live);
      ay += reinterpret_cast<U>(quantize<kExact>(c * row.dy, scale, wide) &
                                live);
      az += reinterpret_cast<U>(quantize<kExact>(c * row.dz, scale, wide) &
                                live);
    }
  }
}

template <class V>
ANTON_LANES_INLINE void interp_rows_body(const tables::TieredTable& table,
                                         double inv_rs2, const MeshRow* rows,
                                         int nrows, const double* phi,
                                         double pref, double scale,
                                         ForceLanes& acc) {
  using U = typename lanes::Lane<V>::U;
  const lanes::TablePipe<V> pipe(table);
  Searched<V> sr[detail::kBatchSlots / lanes::Lane<V>::N];
  search_rows(pipe, inv_rs2, rows, nrows, sr);
  U ax = {}, ay = {}, az = {};
  lanes::Mask<V> wide = {};
  interp_sum<false>(pipe, sr, rows, nrows, phi, pref, scale, ax, ay, az,
                    wide);
  if (lanes::any_set(wide)) [[unlikely]] {
    ax = ay = az = U{};
    interp_sum<true>(pipe, sr, rows, nrows, phi, pref, scale, ax, ay, az,
                     wide);
  }
  lanes::store(acc.x, lanes::load<U>(acc.x) + ax);
  lanes::store(acc.y, lanes::load<U>(acc.y) + ay);
  lanes::store(acc.z, lanes::load<U>(acc.z) + az);
}

void spread_rows_x86_64(const tables::TieredTable& g, double inv_rs2,
                        const MeshRow* rows, int nrows, double qi,
                        double scale, std::int64_t* dq) {
  spread_rows_body<lanes::v2d>(g, inv_rs2, rows, nrows, qi, scale, dq);
}

ANTON_TARGET_AVX2 void spread_rows_avx2(const tables::TieredTable& g,
                                        double inv_rs2, const MeshRow* rows,
                                        int nrows, double qi, double scale,
                                        std::int64_t* dq) {
  spread_rows_body<lanes::v4d>(g, inv_rs2, rows, nrows, qi, scale, dq);
}

void interp_rows_x86_64(const tables::TieredTable& g, double inv_rs2,
                        const MeshRow* rows, int nrows, const double* phi,
                        double pref, double scale, ForceLanes& acc) {
  interp_rows_body<lanes::v2d>(g, inv_rs2, rows, nrows, phi, pref, scale,
                               acc);
}

ANTON_TARGET_AVX2 void interp_rows_avx2(const tables::TieredTable& g,
                                        double inv_rs2, const MeshRow* rows,
                                        int nrows, const double* phi,
                                        double pref, double scale,
                                        ForceLanes& acc) {
  interp_rows_body<lanes::v4d>(g, inv_rs2, rows, nrows, phi, pref, scale,
                               acc);
}

}  // namespace

void detail::spread_rows(tables::simd::Isa isa, const PairKernels& k,
                         const ewald::MeshRow* rows, int nrows, double qi,
                         double scale, std::int64_t* dq) {
  if (isa == tables::simd::Isa::kAvx2)
    spread_rows_avx2(k.g_spread_, k.inv_rs2_, rows, nrows, qi, scale, dq);
  else
    spread_rows_x86_64(k.g_spread_, k.inv_rs2_, rows, nrows, qi, scale, dq);
}

void detail::interp_rows(tables::simd::Isa isa, const PairKernels& k,
                         const ewald::MeshRow* rows, int nrows,
                         const double* phi, double pref, double scale,
                         ForceLanes& acc) {
  if (isa == tables::simd::Isa::kAvx2)
    interp_rows_avx2(k.g_spread_, k.inv_rs2_, rows, nrows, phi, pref, scale,
                     acc);
  else
    interp_rows_x86_64(k.g_spread_, k.inv_rs2_, rows, nrows, phi, pref,
                       scale, acc);
}

}  // namespace anton::htis
