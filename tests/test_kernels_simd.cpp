// SoA pair-block and batched mesh kernels against their scalar
// references: the bitwise-identity contract the engines rely on (the
// stepping path runs the batched kernels; the golden fixtures were
// recorded through the scalar ones).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ewald/erfc_table.hpp"
#include "ewald/gse.hpp"
#include "fixed/fixed.hpp"
#include "fixed/lattice.hpp"
#include "htis/pair_kernels.hpp"
#include "pairlist/exclusion_table.hpp"
#include "parallel/node_program.hpp"
#include "sysgen/systems.hpp"
#include "tables/simd.hpp"
#include "tables/tiered_table.hpp"
#include "util/rng.hpp"

using anton::System;
using anton::Vec3d;
using anton::Vec3i;
using anton::Vec3l;
namespace fixedp = anton::fixed;
namespace par = anton::parallel;

namespace {

/// NodeProgram context over a sysgen system, mirroring the engine setup.
struct Ctx {
  System sys;
  anton::fixed::PositionLattice lat;
  anton::ewald::GseParams gse_params;
  anton::htis::PairKernels kernels;
  anton::pairlist::ExclusionTable excl;
  std::unique_ptr<anton::ewald::Gse> gse;
  par::NodeProgram np;
  std::vector<Vec3i> lpos;

  Ctx(System s, double cutoff, int mesh)
      : sys(std::move(s)), lat(sys.box),
        gse_params(anton::ewald::GseParams::for_cutoff(cutoff, mesh)),
        excl(sys.top) {
    anton::htis::PairKernelParams tp;
    tp.cutoff = cutoff;
    tp.beta = gse_params.beta;
    tp.sigma_s = gse_params.sigma_s;
    tp.rs = gse_params.rs;
    kernels = anton::htis::PairKernels(tp, sys.top.lj_types);
    gse = std::make_unique<anton::ewald::Gse>(sys.box, gse_params);
    np.top = &sys.top;
    np.box = &sys.box;
    np.lat = &lat;
    np.kernels = &kernels;
    np.excl = &excl;
    np.gse = gse.get();
    np.gse_params = gse_params;
    const double cut_lat = cutoff / lat.lsb().x;
    np.r2_limit_lattice = static_cast<std::uint64_t>(cut_lat * cut_lat);
    np.lat2_to_phys2 = lat.lsb().x * lat.lsb().x;
    np.have_molecules = !sys.top.molecule.empty();
    lpos.resize(sys.positions.size());
    for (std::size_t i = 0; i < lpos.size(); ++i)
      lpos[i] = lat.to_lattice(sys.positions[i]);
  }
};

par::BinSoA pack(const Ctx& c, const std::vector<std::int32_t>& atoms) {
  par::BinSoA s;
  s.reserve(atoms.size());
  for (std::int32_t a : atoms)
    s.push_atom(c.sys.top, a, c.lpos[static_cast<std::size_t>(a)]);
  return s;
}

/// Scalar reference: the pre-SoA per-pair loop, recording hits in loop
/// order (the order eval_pair_block must reproduce exactly).
void scalar_block(const Ctx& c, const std::vector<std::int32_t>& tower,
                  const std::vector<std::int32_t>& plate, bool same_bin,
                  std::vector<par::PairHit>& hits,
                  par::PairBlockCounters& pc) {
  hits.clear();
  pc = {};
  for (std::size_t a = 0; a < tower.size(); ++a) {
    const std::int32_t i0 = tower[a];
    const Vec3i pi = c.lpos[static_cast<std::size_t>(i0)];
    for (std::size_t b = same_bin ? a + 1 : 0; b < plate.size(); ++b) {
      const std::int32_t j0 = plate[b];
      ++pc.considered;
      const par::PairResult pr = par::eval_pair(
          c.np, i0, j0, pi, c.lpos[static_cast<std::size_t>(j0)], false);
      if (pr.status == par::PairStatus::kFailedMatch) continue;
      ++pc.queued;
      if (pr.status != par::PairStatus::kComputed) continue;
      ++pc.computed;
      hits.push_back({pr.lo, pr.hi, pr.f});
    }
  }
}

void expect_block_matches(const Ctx& c,
                          const std::vector<std::int32_t>& tower,
                          const std::vector<std::int32_t>& plate,
                          bool same_bin) {
  std::vector<par::PairHit> ref;
  par::PairBlockCounters ref_pc;
  scalar_block(c, tower, plate, same_bin, ref, ref_pc);

  par::PairBlockScratch scr;
  par::PairBlockCounters pc;
  par::eval_pair_block(c.np, pack(c, tower), pack(c, plate), same_bin, scr,
                       pc);
  EXPECT_EQ(pc.considered, ref_pc.considered);
  EXPECT_EQ(pc.queued, ref_pc.queued);
  EXPECT_EQ(pc.computed, ref_pc.computed);
  ASSERT_EQ(scr.hits.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(scr.hits[i].lo, ref[i].lo) << "hit " << i;
    EXPECT_EQ(scr.hits[i].hi, ref[i].hi) << "hit " << i;
    EXPECT_EQ(scr.hits[i].f.x, ref[i].f.x) << "hit " << i;
    EXPECT_EQ(scr.hits[i].f.y, ref[i].f.y) << "hit " << i;
    EXPECT_EQ(scr.hits[i].f.z, ref[i].f.z) << "hit " << i;
  }
}

std::vector<std::int32_t> all_atoms(const Ctx& c) {
  std::vector<std::int32_t> v(c.sys.positions.size());
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = static_cast<std::int32_t>(i);
  return v;
}

}  // namespace

TEST(KernelsSimd, BinSoAPackRoundTrip) {
  Ctx c(anton::sysgen::build_test_system(30, 10.0, 5, true, 8), 4.0, 16);
  const std::vector<std::int32_t> atoms = all_atoms(c);
  const par::BinSoA s = pack(c, atoms);
  ASSERT_EQ(s.size(), atoms.size());
  for (std::size_t k = 0; k < atoms.size(); ++k) {
    const std::int32_t a = atoms[k];
    EXPECT_EQ(s.id[k], a);
    EXPECT_EQ(s.x[k], c.lpos[static_cast<std::size_t>(a)].x);
    EXPECT_EQ(s.y[k], c.lpos[static_cast<std::size_t>(a)].y);
    EXPECT_EQ(s.z[k], c.lpos[static_cast<std::size_t>(a)].z);
    EXPECT_EQ(s.charge[k], c.sys.top.charge[static_cast<std::size_t>(a)]);
    EXPECT_EQ(s.type[k], c.sys.top.type[static_cast<std::size_t>(a)]);
  }
}

TEST(KernelsSimd, PairBlockMatchesScalarSameBin) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    Ctx c(anton::sysgen::build_test_system(60, 12.0, seed, true, 10), 5.0,
          16);
    expect_block_matches(c, all_atoms(c), all_atoms(c), true);
  }
}

TEST(KernelsSimd, PairBlockMatchesScalarSplitBins) {
  Ctx c(anton::sysgen::build_test_system(80, 12.0, 4, true, 12), 5.0, 16);
  // A non-spatial random split: tower/plate bins need no geometric
  // coherence for the identity to hold.
  anton::Xoshiro256 rng(21);
  std::vector<std::int32_t> tower, plate;
  for (std::int32_t a : all_atoms(c))
    (rng() & 1 ? tower : plate).push_back(a);
  expect_block_matches(c, tower, plate, false);
  expect_block_matches(c, plate, tower, false);
}

TEST(KernelsSimd, PairBlockWrapsAcrossBoundary) {
  // Cluster atoms across the box corner so minimum-image wrap (int32
  // two's-complement subtraction) is exercised in the filter lanes.
  System sys = anton::sysgen::build_test_system(50, 10.0, 6, true, 0);
  anton::Xoshiro256 rng(22);
  for (auto& r : sys.positions) {
    r = {4.9 + rng.uniform(-0.6, 0.6), -4.9 + rng.uniform(-0.6, 0.6),
         4.9 + rng.uniform(-0.6, 0.6)};
    r = sys.box.wrap(r);
  }
  Ctx c(std::move(sys), 4.0, 16);
  expect_block_matches(c, all_atoms(c), all_atoms(c), true);
}

TEST(KernelsSimd, SpreadBatchMatchesScalar) {
  Ctx c(anton::sysgen::build_test_system(40, 10.0, 7, true, 6), 4.0, 16);
  par::MeshScratch ms;
  for (std::size_t i = 0; i < c.sys.positions.size(); ++i) {
    const double qi = c.sys.top.charge[i];
    std::vector<std::pair<std::size_t, std::int64_t>> ref, got;
    c.gse->for_each_mesh_point(
        c.sys.positions[i], [&](std::size_t idx, const Vec3d&, double r2) {
          ref.emplace_back(idx,
                           fixedp::quantize(qi * c.kernels.eval_spread(r2),
                                            par::kMeshChargeScale));
        });
    par::spread_atom(c.np, qi, c.sys.positions[i], ms,
                     [&](std::size_t idx, std::int64_t dq) {
                       got.emplace_back(idx, dq);
                     });
    ASSERT_EQ(got, ref) << "atom " << i;
  }
}

TEST(KernelsSimd, InterpolateBatchMatchesScalar) {
  Ctx c(anton::sysgen::build_test_system(40, 10.0, 8, true, 6), 4.0, 16);
  // Deterministic pseudo-potential on the mesh.
  std::vector<std::int64_t> phi_q(c.gse->mesh_total());
  anton::Xoshiro256 rng(23);
  for (auto& v : phi_q)
    v = static_cast<std::int64_t>(rng()) >> 24;  // O(2^39), physical-ish
  const double h3 = std::pow(c.gse->mesh_spacing(), 3);
  const double inv_s2 =
      1.0 / (c.gse_params.sigma_s * c.gse_params.sigma_s);
  par::MeshScratch ms;
  for (std::size_t i = 0; i < c.sys.positions.size(); ++i) {
    const double pref = c.sys.top.charge[i] * h3 * inv_s2;
    Vec3l ref{0, 0, 0};
    c.gse->for_each_mesh_point(
        c.sys.positions[i],
        [&](std::size_t idx, const Vec3d& d, double r2) {
          const double phi =
              static_cast<double>(phi_q[idx]) / par::kPhiScale;
          const double cf = pref * phi * c.kernels.eval_interp(r2);
          ref.x = fixedp::wrap_add(
              ref.x, fixedp::quantize(cf * d.x, fixedp::kForceScale));
          ref.y = fixedp::wrap_add(
              ref.y, fixedp::quantize(cf * d.y, fixedp::kForceScale));
          ref.z = fixedp::wrap_add(
              ref.z, fixedp::quantize(cf * d.z, fixedp::kForceScale));
        });
    std::int64_t ops = 0, ref_ops = 0;
    c.gse->for_each_mesh_point(c.sys.positions[i],
                               [&](std::size_t, const Vec3d&, double) {
                                 ++ref_ops;
                               });
    const Vec3l got = par::interpolate_atom(
        c.np, c.sys.top.charge[i], c.sys.positions[i], ms,
        [&](std::size_t idx) { return phi_q[idx]; }, &ops);
    EXPECT_EQ(got.x, ref.x) << "atom " << i;
    EXPECT_EQ(got.y, ref.y) << "atom " << i;
    EXPECT_EQ(got.z, ref.z) << "atom " << i;
    EXPECT_EQ(ops, ref_ops);
  }
}

namespace {

/// The per-point visit for_each_mesh_point makes: the reference the
/// row enumerator must reproduce.
struct MeshVisit {
  std::size_t idx;
  std::uint64_t dx, dy, dz, r2;  // bit patterns
  bool operator==(const MeshVisit&) const = default;
};

std::uint64_t dbits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Expands the rows of `r` point by point and checks them against the
/// for_each_mesh_point oracle: count, order, indices and bit-identical
/// displacements and r^2 (in the kernels' (dx*dx + dy*dy) + dz*dz
/// association). Returns the hit count.
std::size_t expect_rows_match_oracle(const anton::ewald::Gse& gse,
                                     const Vec3d& r,
                                     anton::ewald::MeshWindow& win) {
  std::vector<MeshVisit> ref;
  gse.for_each_mesh_point(r, [&](std::size_t idx, const Vec3d& d, double r2) {
    ref.push_back({idx, dbits(d.x), dbits(d.y), dbits(d.z), dbits(r2)});
  });
  std::vector<MeshVisit> got;
  gse.for_each_mesh_row(r, win, [&](const anton::ewald::MeshRow& row) {
    EXPECT_GT(row.n, 0);
    for (int k = 0; k < row.n; ++k) {
      const double dx = row.dx[k];
      const double r2 = (dx * dx + row.dy * row.dy) + row.dz * row.dz;
      got.push_back({row.base + static_cast<std::size_t>(row.wx[k]),
                     dbits(dx), dbits(row.dy), dbits(row.dz), dbits(r2)});
    }
  });
  EXPECT_EQ(got.size(), ref.size())
      << "r=(" << r.x << "," << r.y << "," << r.z << ")";
  EXPECT_TRUE(got == ref) << "r=(" << r.x << "," << r.y << "," << r.z << ")";
  return ref.size();
}

}  // namespace

// Property: the row enumerator (row skip + per-row hit interval) is the
// oracle's visit exactly, for atoms anywhere -- including on mesh points,
// on box faces, far outside the primary cell, and with a spreading
// radius wider than half the box so wrapped indices repeat in a window --
// and its per-axis scratch is sized by the window edge, never by the
// window volume.
TEST(KernelsSimd, MeshRowsMatchOracle) {
  struct Case {
    const char* name;
    double side;
    anton::ewald::GseParams p;
  };
  std::vector<Case> cases;
  cases.push_back({"golden-like", 14.0, anton::ewald::GseParams{}});
  cases.push_back(
      {"for-cutoff", 24.0, anton::ewald::GseParams::for_cutoff(9.0, 16)});
  // h = 1.25 and rs = 4 h: atoms on mesh points have points at exactly
  // r2 == rs^2 (kept) and rows at exactly dy^2 + dz^2 == rs^2 (not
  // skipped).
  anton::ewald::GseParams ties;
  ties.mesh = 16;
  cases.push_back({"cutoff-ties", 20.0, ties});
  anton::ewald::GseParams wide;
  wide.beta = 0.2;
  wide.sigma_s = 1.0;
  wide.rs = 6.0;  // > L/2: the window wraps past a whole mesh period
  wide.mesh = 8;
  cases.push_back({"window-wider-than-mesh", 10.0, wide});

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const anton::PeriodicBox box(c.side);
    const anton::ewald::Gse gse(box, c.p);
    const double L = c.side, half = 0.5 * L, h = gse.mesh_spacing();
    std::vector<Vec3d> rs;
    anton::Xoshiro256 rng(17);
    for (int i = 0; i < 40; ++i)
      rs.push_back({rng.uniform(-half, half), rng.uniform(-half, half),
                    rng.uniform(-half, half)});
    // Box faces and their neighbours.
    for (const double f : {-half, std::nextafter(-half, 0.0),
                           std::nextafter(half, 0.0), half}) {
      rs.push_back({f, 0.3, -0.7});
      rs.push_back({0.1, f, f});
      rs.push_back({f, f, f});
    }
    // Exactly on mesh points (the m * h - half grid of the oracle).
    for (const int m : {0, 1, c.p.mesh / 2, c.p.mesh - 1}) {
      const double g = m * h - half;
      rs.push_back({g, g, g});
      rs.push_back({g, 0.25 * h, -g});
    }
    // Negative and out-of-cell coordinates (unwrapped inputs).
    rs.push_back({-0.9 * L, -1.3 * L, -0.1});
    rs.push_back({-2.5 * L, 1.7 * L, -L});
    rs.push_back({-1e-12, -h, -3.5 * h});

    // One window reused across atoms, as the kernels do.
    const std::size_t edge =
        static_cast<std::size_t>(std::ceil(2.0 * c.p.rs / h)) + 2;
    anton::ewald::MeshWindow reused;
    for (const Vec3d& r : rs) {
      anton::ewald::MeshWindow fresh;
      EXPECT_GT(expect_rows_match_oracle(gse, r, fresh), 0u);
      expect_rows_match_oracle(gse, r, reused);
      for (int a = 0; a < 3; ++a) {
        EXPECT_LE(fresh.w[a].size(), edge);
        EXPECT_EQ(fresh.d[a].size(),
                  fresh.w[a].size() +
                      (a == 0 ? anton::ewald::MeshWindow::kPad : 0));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Each instruction-set clone of the lane kernels, called through its
// detail:: entry point (not the dispatcher), against the scalar oracles.
// ---------------------------------------------------------------------------

namespace {

using anton::tables::simd::Isa;

class KernelsSimdIsa : public ::testing::TestWithParam<Isa> {
 protected:
  void SetUp() override {
    if (!anton::tables::simd::host_supports(GetParam()))
      GTEST_SKIP() << "this host cannot run the "
                   << anton::tables::simd::isa_name(GetParam())
                   << " clone; it is tested on hosts that can";
  }
};

/// Inputs for a table: segment edges of every tier, clamps, non-finite,
/// signed-zero and subnormal values, and random points.
std::vector<double> table_inputs(const anton::tables::TieredTable& t) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double sub = std::numeric_limits<double>::denorm_min();
  std::vector<double> u = {-0.5, 0.0, -0.0, std::nextafter(1.0, 0.0), 1.0,
                           1.5,  nan, -nan, inf, -inf, sub, -sub, 1e-310};
  for (int k = 0; k < t.layout().total_entries(); ++k) {
    double lo, hi;
    t.layout().segment_bounds(k, lo, hi);
    u.insert(u.end(), {lo, std::nextafter(lo, 0.0), std::nextafter(lo, 2.0),
                       0.5 * (lo + hi)});
  }
  anton::Xoshiro256 rng(31);
  for (int i = 0; i < 3001; ++i) u.push_back(rng.uniform(0.0, 1.0));
  return u;
}

anton::htis::PairKernels make_kernels(double cutoff, int mantissa_bits) {
  const auto p = anton::ewald::GseParams::for_cutoff(cutoff, 16);
  anton::htis::PairKernelParams tp;
  tp.cutoff = cutoff;
  tp.beta = p.beta;
  tp.sigma_s = p.sigma_s;
  tp.rs = p.rs;
  tp.mantissa_bits = mantissa_bits;
  return anton::htis::PairKernels(tp, {{3.2, 0.15}, {2.5, 0.05}});
}

/// Row lengths of every row the atoms' windows hold, mod 4.
std::vector<bool> row_tails(const Ctx& c) {
  std::vector<bool> seen(4, false);
  anton::ewald::MeshWindow win;
  for (const Vec3d& r : c.sys.positions)
    c.gse->for_each_mesh_row(r, win, [&](const anton::ewald::MeshRow& row) {
      seen[static_cast<std::size_t>(row.n % 4)] = true;
    });
  return seen;
}

}  // namespace

// Every table of two PairKernels -- the power-of-two default layout
// (multiply search) and the vdW layout (division search) -- plus a
// uniform(100) table, at all inputs, bitwise against eval_fixed.
TEST_P(KernelsSimdIsa, TablesMatchScalarBitwise) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const anton::htis::PairKernels k1 = make_kernels(9.0, 22);
  const anton::htis::PairKernels k2 = make_kernels(12.0, 24);
  const auto u100 = anton::tables::TieredTable::build(
      [](double u) { return std::exp(-4.0 * u) + 0.5; },
      anton::tables::TieredLayout::uniform(100), 22, 0.001);
  ASSERT_FALSE(u100.multiply_search());
  std::vector<std::pair<std::string, const anton::tables::TieredTable*>> all;
  for (const auto& [name, t] : k1.tables()) all.emplace_back(name, t);
  for (const auto& [name, t] : k2.tables())
    all.emplace_back(std::string(name) + "/k2", t);
  all.emplace_back("uniform100", &u100);
  for (const auto& [name, t] : all) {
    const std::vector<double> u = table_inputs(*t);
    std::vector<double> got(u.size());
    anton::tables::detail::eval_fixed_n(GetParam(), *t, u.data(), got.data(),
                                        u.size());
    for (std::size_t i = 0; i < u.size(); ++i)
      ASSERT_EQ(bits(got[i]), bits(t->eval_fixed(u[i])))
          << name << " u=" << u[i] << " i=" << i;
  }
}

// Spreading through the clone's row kernel equals the per-point oracle
// (for_each_mesh_point + eval_spread + quantize), in visit order, with
// rows of every length mod 4 so every vector tail is exercised.
TEST_P(KernelsSimdIsa, SpreadMatchesOracle) {
  Ctx c(anton::sysgen::build_test_system(30, 10.0, 9, true, 6), 4.0, 16);
  const std::vector<bool> tails = row_tails(c);
  EXPECT_TRUE(tails[1] && tails[2] && tails[3]);
  par::MeshScratch ms;
  for (std::size_t i = 0; i < c.sys.positions.size(); ++i) {
    const double qi = c.sys.top.charge[i];
    std::vector<std::pair<std::size_t, std::int64_t>> ref, got;
    c.gse->for_each_mesh_point(
        c.sys.positions[i], [&](std::size_t idx, const Vec3d&, double r2) {
          ref.emplace_back(idx,
                           fixedp::quantize(qi * c.kernels.eval_spread(r2),
                                            par::kMeshChargeScale));
        });
    std::int64_t ops = 0;
    par::detail::spread_atom(
        GetParam(), c.np, qi, c.sys.positions[i], ms,
        [&](std::size_t idx, std::int64_t dq) { got.emplace_back(idx, dq); },
        &ops);
    ASSERT_EQ(got, ref) << "atom " << i;
    EXPECT_EQ(ops, static_cast<std::int64_t>(ref.size()));
  }
}

namespace {

/// The per-point interpolation oracle: for_each_mesh_point +
/// eval_interp + fixed::quantize, wrap-added in visit order. `ops` counts
/// the points and `wide` those with a force product at or above 2^51.
Vec3l interp_oracle(const Ctx& c, double qi, const Vec3d& r,
                    const std::vector<std::int64_t>& phi_q,
                    std::int64_t& ops, int& wide) {
  const double h3 = std::pow(c.gse->mesh_spacing(), 3);
  const double inv_s2 = 1.0 / (c.gse_params.sigma_s * c.gse_params.sigma_s);
  const double pref = qi * h3 * inv_s2;
  Vec3l ref{0, 0, 0};
  c.gse->for_each_mesh_point(
      r, [&](std::size_t idx, const Vec3d& d, double r2) {
        const double phi = static_cast<double>(phi_q[idx]) / par::kPhiScale;
        const double cf = pref * phi * c.kernels.eval_interp(r2);
        for (const double di : {d.x, d.y, d.z})
          wide += std::fabs(cf * di * fixedp::kForceScale) >=
                  2251799813685248.0;
        ref.x = fixedp::wrap_add(
            ref.x, fixedp::quantize(cf * d.x, fixedp::kForceScale));
        ref.y = fixedp::wrap_add(
            ref.y, fixedp::quantize(cf * d.y, fixedp::kForceScale));
        ref.z = fixedp::wrap_add(
            ref.z, fixedp::quantize(cf * d.z, fixedp::kForceScale));
        ++ops;
      });
  return ref;
}

}  // namespace

// Interpolation through the clone's row kernel (four wrap-add lanes per
// component) equals the per-point oracle's sequential sum.
TEST_P(KernelsSimdIsa, InterpolateMatchesOracle) {
  Ctx c(anton::sysgen::build_test_system(30, 10.0, 10, true, 6), 4.0, 16);
  const std::vector<bool> tails = row_tails(c);
  EXPECT_TRUE(tails[1] && tails[2] && tails[3]);
  std::vector<std::int64_t> phi_q(c.gse->mesh_total());
  anton::Xoshiro256 rng(24);
  for (auto& v : phi_q) v = static_cast<std::int64_t>(rng()) >> 24;
  par::MeshScratch ms;
  for (std::size_t i = 0; i < c.sys.positions.size(); ++i) {
    std::int64_t ref_ops = 0, ops = 0;
    int wide = 0;
    const Vec3l ref = interp_oracle(c, c.sys.top.charge[i],
                                    c.sys.positions[i], phi_q, ref_ops, wide);
    const Vec3l got = par::detail::interpolate_atom(
        GetParam(), c.np, c.sys.top.charge[i], c.sys.positions[i], ms,
        [&](std::size_t idx) { return phi_q[idx]; }, &ops);
    EXPECT_EQ(got.x, ref.x) << "atom " << i;
    EXPECT_EQ(got.y, ref.y) << "atom " << i;
    EXPECT_EQ(got.z, ref.z) << "atom " << i;
    EXPECT_EQ(ops, ref_ops);
  }
}

// A potential large enough on some mesh points that their force
// products reach 2^51: the batches holding them rerun with the exact
// per-lane quantize (llrint on those lanes), and the sum still matches.
TEST_P(KernelsSimdIsa, InterpolateQuantizeFallsBackAboveTwo51) {
  Ctx c(anton::sysgen::build_test_system(4, 10.0, 12, true, 0), 4.0, 16);
  std::vector<std::int64_t> phi_q(c.gse->mesh_total());
  anton::Xoshiro256 rng(25);
  for (auto& v : phi_q) v = static_cast<std::int64_t>(rng()) >> 24;
  for (std::size_t m = 0; m < phi_q.size(); m += 7)
    phi_q[m] = std::int64_t{1} << 62;
  par::MeshScratch ms;
  int wide_atoms = 0;
  for (std::size_t i = 0; i < c.sys.positions.size(); ++i) {
    const double qi = c.sys.top.charge[i] != 0.0 ? c.sys.top.charge[i] : 1.0;
    std::int64_t ref_ops = 0;
    int wide = 0;
    const Vec3l ref =
        interp_oracle(c, qi, c.sys.positions[i], phi_q, ref_ops, wide);
    wide_atoms += wide > 0;
    const Vec3l got = par::detail::interpolate_atom(
        GetParam(), c.np, qi, c.sys.positions[i], ms,
        [&](std::size_t idx) { return phi_q[idx]; }, nullptr);
    EXPECT_EQ(got.x, ref.x) << "atom " << i;
    EXPECT_EQ(got.y, ref.y) << "atom " << i;
    EXPECT_EQ(got.z, ref.z) << "atom " << i;
  }
  EXPECT_GT(wide_atoms, 0);
}

// A charge large enough that |q g 2^40| >= 2^51 near the atom: those
// lanes leave the magic-number round for llrint, the rest stay on it,
// and both match fixed::quantize.
TEST_P(KernelsSimdIsa, SpreadQuantizeFallsBackAboveTwo51) {
  Ctx c(anton::sysgen::build_test_system(4, 10.0, 11, true, 0), 4.0, 16);
  const double qi = 1.0e5;
  const Vec3d r = c.sys.positions[0];
  std::vector<std::pair<std::size_t, std::int64_t>> ref, got;
  int big = 0;
  c.gse->for_each_mesh_point(r, [&](std::size_t idx, const Vec3d&,
                                    double r2) {
    const double y = qi * c.kernels.eval_spread(r2) * par::kMeshChargeScale;
    big += std::fabs(y) >= 2251799813685248.0 ? 1 : 0;
    ref.emplace_back(idx, fixedp::quantize(qi * c.kernels.eval_spread(r2),
                                           par::kMeshChargeScale));
  });
  ASSERT_GT(big, 0);
  ASSERT_LT(static_cast<std::size_t>(big), ref.size());
  par::MeshScratch ms;
  par::detail::spread_atom(
      GetParam(), c.np, qi, r, ms,
      [&](std::size_t idx, std::int64_t dq) { got.emplace_back(idx, dq); },
      nullptr);
  EXPECT_EQ(got, ref);
}

INSTANTIATE_TEST_SUITE_P(
    Isas, KernelsSimdIsa, ::testing::ValuesIn(anton::tables::simd::kAllIsas),
    [](const ::testing::TestParamInfo<Isa>& info) {
      return std::string(anton::tables::simd::isa_name(info.param));
    });

TEST(ErfcTableSpline, TracksLibmTightly) {
  const anton::ewald::ErfcTable t(4.0);
  // The cubic Hermite fit at dx = 1/256 is accurate to ~1e-11.
  EXPECT_LT(t.max_error(), 1e-10);
  for (int i = 0; i <= 1000; ++i) {
    const double x = 4.0 * i / 1000.0 * 0.999;
    EXPECT_NEAR(t.value(x), std::erfc(x), 1e-10) << "x=" << x;
  }
}

TEST(ErfcTableSpline, FallsBackOutsideDomain) {
  const anton::ewald::ErfcTable t(2.0);
  // volatile blocks constant folding: gcc folds erfc(literal) with
  // correct rounding, which can differ from runtime libm by an ulp --
  // the fallback must match the RUNTIME call exactly.
  volatile double lo = -0.5, hi = 3.0;
  EXPECT_EQ(t.value(-0.5), std::erfc(lo));  // exact: std::erfc fallback
  EXPECT_EQ(t.value(3.0), std::erfc(hi));
  EXPECT_TRUE(anton::ewald::ErfcTable().empty());
  EXPECT_FALSE(t.empty());
}
