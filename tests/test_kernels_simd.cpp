// SoA pair-block and batched mesh kernels against their scalar
// references: the bitwise-identity contract the engines rely on (the
// stepping path runs the batched kernels; the golden fixtures were
// recorded through the scalar ones).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "ewald/erfc_table.hpp"
#include "ewald/gse.hpp"
#include "fixed/fixed.hpp"
#include "fixed/lattice.hpp"
#include "htis/pair_kernels.hpp"
#include "pairlist/exclusion_table.hpp"
#include "parallel/node_program.hpp"
#include "sysgen/systems.hpp"
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
    std::int64_t ops = 0;
    const Vec3l got = par::interpolate_atom(
        c.np, c.sys.top.charge[i], c.sys.positions[i], ms,
        [&](std::size_t idx) { return phi_q[idx]; }, &ops);
    EXPECT_EQ(got.x, ref.x) << "atom " << i;
    EXPECT_EQ(got.y, ref.y) << "atom " << i;
    EXPECT_EQ(got.z, ref.z) << "atom " << i;
    EXPECT_EQ(ops, static_cast<std::int64_t>(ms.pts.size()));
  }
}

namespace {

/// The per-point visit for_each_mesh_point makes: the reference the
/// per-axis gather must reproduce.
struct MeshVisit {
  std::size_t idx;
  std::uint64_t dx, dy, dz, r2;  // bit patterns
  bool operator==(const MeshVisit&) const = default;
};

std::uint64_t dbits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Largest allocation among a batch's lanes, in entries.
std::size_t allocated(const anton::ewald::MeshPointBatch& b) {
  return std::max({b.idx.capacity(), b.dx.capacity(), b.dy.capacity(),
                   b.dz.capacity(), b.r2.capacity()});
}

/// Gathers `r` into `batch` and checks it point for point against the
/// for_each_mesh_point oracle: count, order, indices and bit-identical
/// displacements and r^2. Returns the hit count.
std::size_t expect_gather_matches_oracle(const anton::ewald::Gse& gse,
                                         const Vec3d& r,
                                         anton::ewald::MeshPointBatch& batch) {
  std::vector<MeshVisit> ref;
  gse.for_each_mesh_point(r, [&](std::size_t idx, const Vec3d& d, double r2) {
    ref.push_back({idx, dbits(d.x), dbits(d.y), dbits(d.z), dbits(r2)});
  });
  gse.gather_mesh_points(r, batch);
  std::vector<MeshVisit> got;
  for (std::size_t i = 0; i < batch.size(); ++i)
    got.push_back({batch.idx[i], dbits(batch.dx[i]), dbits(batch.dy[i]),
                   dbits(batch.dz[i]), dbits(batch.r2[i])});
  EXPECT_EQ(got.size(), ref.size())
      << "r=(" << r.x << "," << r.y << "," << r.z << ")";
  EXPECT_TRUE(got == ref) << "r=(" << r.x << "," << r.y << "," << r.z << ")";
  return ref.size();
}

}  // namespace

// Property: the per-axis gather (row skip + per-row hit interval) is the
// oracle's visit exactly, for atoms anywhere -- including on mesh points,
// on box faces, far outside the primary cell, and with a spreading
// radius wider than half the box so wrapped indices repeat in a window --
// and its lanes are sized by hits, never by the window volume.
TEST(KernelsSimd, GatherMeshPointsMatchesOracle) {
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

    // A reused batch keeps its largest allocation: at most the most hits
    // plus the longest row seen so far.
    anton::ewald::MeshPointBatch reused;
    std::size_t max_hits = 0, max_row = 0;
    for (const Vec3d& r : rs) {
      anton::ewald::MeshPointBatch fresh;
      const std::size_t hits = expect_gather_matches_oracle(gse, r, fresh);
      const std::size_t row = fresh.axis_d[0].size();
      EXPECT_GT(hits, 0u);
      EXPECT_LE(allocated(fresh), hits + row);
      expect_gather_matches_oracle(gse, r, reused);
      max_hits = std::max(max_hits, hits);
      max_row = std::max(max_row, row);
      EXPECT_LE(allocated(reused), max_hits + max_row);
    }
  }
}

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
