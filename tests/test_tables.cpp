// Remez fitting and the tiered-index block-floating-point tables
// (Section 4: PPIP function evaluators).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "ff/topology.hpp"
#include "htis/pair_kernels.hpp"
#include "tables/remez.hpp"
#include "tables/tiered_table.hpp"
#include "util/rng.hpp"

using anton::tables::RemezResult;
using anton::tables::TieredLayout;
using anton::tables::TieredTable;

TEST(Remez, ExactForPolynomials) {
  // A cubic is reproduced (near) exactly by a cubic minimax fit.
  auto f = [](double t) { return 2.0 + 3.0 * t - t * t + 0.5 * t * t * t; };
  const RemezResult r = anton::tables::remez_minimax(f, 0.0, 1.0, 3);
  EXPECT_LT(r.max_error, 1e-12);
  EXPECT_NEAR(anton::tables::polyval(r.coeffs, 0.3), f(0.3), 1e-12);
}

TEST(Remez, ExpAccuracy) {
  const RemezResult r = anton::tables::remez_minimax(
      [](double t) { return std::exp(t); }, 0.0, 1.0, 3);
  // Known minimax error of cubic fit to e^x on [0,1] is ~5.5e-4; allow 2x.
  EXPECT_LT(r.max_error, 1.2e-3);
  // Error should be roughly equioscillating: check it beats a naive
  // Taylor fit by a wide margin.
  double taylor_worst = 0.0;
  for (int i = 0; i <= 100; ++i) {
    const double t = i / 100.0;
    const double taylor = 1 + t + t * t / 2 + t * t * t / 6;
    taylor_worst = std::max(taylor_worst, std::fabs(std::exp(t) - taylor));
  }
  EXPECT_LT(r.max_error, 0.25 * taylor_worst);
}

TEST(Remez, SteepFunction) {
  // 1/x-like behaviour over a narrow segment (what the LJ tables see).
  const RemezResult r = anton::tables::remez_minimax(
      [](double t) { return 1.0 / (0.1 + t * 0.01); }, 0.0, 1.0, 3);
  EXPECT_LT(r.max_error / 10.0, 1e-6);  // relative to f ~ 10
}

TEST(TieredLayout, AntonDefaultMatchesPaperExample) {
  // Section 4: 64 entries on [0,1/128), 96 on [1/128,1/32), 56 on
  // [1/32,1/4), 24 on [1/4,1) -- 240 total.
  const TieredLayout lay = TieredLayout::anton_default();
  EXPECT_EQ(lay.total_entries(), 240);
  ASSERT_EQ(lay.tiers.size(), 4u);
  EXPECT_EQ(lay.tiers[0].entries, 64);
  EXPECT_EQ(lay.tiers[1].entries, 96);
  EXPECT_EQ(lay.tiers[2].entries, 56);
  EXPECT_EQ(lay.tiers[3].entries, 24);
}

TEST(TieredLayout, SegmentLookupIsConsistent) {
  const TieredLayout lay = TieredLayout::anton_default();
  for (int k = 0; k < lay.total_entries(); ++k) {
    double lo, hi;
    lay.segment_bounds(k, lo, hi);
    ASSERT_LT(lo, hi);
    double t;
    // Midpoint maps back to segment k with t ~ 0.5.
    EXPECT_EQ(lay.find_segment(0.5 * (lo + hi), t), k);
    EXPECT_NEAR(t, 0.5, 1e-9);
    // Left edge maps to k with t ~ 0.
    EXPECT_EQ(lay.find_segment(lo, t), k);
    EXPECT_NEAR(t, 0.0, 1e-9);
  }
}

TEST(TieredLayout, SegmentsAreContiguous) {
  const TieredLayout lay = TieredLayout::anton_default();
  double prev_hi = 0.0;
  for (int k = 0; k < lay.total_entries(); ++k) {
    double lo, hi;
    lay.segment_bounds(k, lo, hi);
    EXPECT_DOUBLE_EQ(lo, prev_hi);
    prev_hi = hi;
  }
  EXPECT_DOUBLE_EQ(prev_hi, 1.0);
}

TEST(TieredLayout, NarrowerSegmentsNearZero) {
  // The tiered scheme allows "narrower segments where the function is
  // rapidly varying" -- near r^2 = 0.
  const TieredLayout lay = TieredLayout::anton_default();
  double lo0, hi0, loN, hiN;
  lay.segment_bounds(0, lo0, hi0);
  lay.segment_bounds(lay.total_entries() - 1, loN, hiN);
  EXPECT_LT(hi0 - lo0, (hiN - loN) / 100.0);
}

TEST(TieredTable, SmoothFunctionAccuracy) {
  auto f = [](double u) { return std::exp(-3.0 * u) * std::cos(4.0 * u); };
  const TieredTable t =
      TieredTable::build(f, TieredLayout::anton_default(), 22);
  for (int i = 1; i < 1000; ++i) {
    const double u = i / 1000.0;
    EXPECT_NEAR(t.eval_fixed(u), f(u), 5e-6) << "u=" << u;
  }
}

TEST(TieredTable, ErfcKernelAccuracy) {
  // The electrostatic kernel shape: erfc(beta R sqrt(u)) / (R sqrt(u)).
  const double R = 13.0, beta = 0.24;
  auto f = [&](double u) {
    const double r = R * std::sqrt(u);
    return std::erfc(beta * r) / r;
  };
  const TieredTable t =
      TieredTable::build(f, TieredLayout::anton_default(), 22, 0.003);
  for (int i = 0; i < 2000; ++i) {
    const double u = 0.003 + (1.0 - 0.004) * i / 2000.0;
    const double exact = f(u);
    EXPECT_NEAR(t.eval_fixed(u), exact, 4e-6 * std::max(1.0, exact))
        << "u=" << u;
  }
}

TEST(TieredTable, SteepLJKernelRelativeAccuracy) {
  // 12/r^14 over the table domain spans ~16 decades; block floating
  // point must hold per-segment relative accuracy.
  const double R = 13.0;
  const double u_min = 0.005;
  auto f = [&](double u) {
    const double r2 = u * R * R;
    return 12.0 / std::pow(r2, 7);
  };
  const TieredTable t =
      TieredTable::build(f, anton::tables::TieredLayout::anton_default(), 22,
                         u_min);
  // Start the scan one segment above the u_min clamp kink; the fit in the
  // segment containing the kink is intentionally degraded (the engine
  // clamps there anyway).
  for (int i = 0; i <= 500; ++i) {
    const double u = 1.15 * u_min + (0.999 - 1.15 * u_min) * i / 500.0;
    const double exact = f(u);
    const double got = t.eval_fixed(u);
    EXPECT_NEAR(got, exact, 1e-3 * exact + 1e-15) << "u=" << u;
  }
}

TEST(TieredTable, ClampsBelowUMin) {
  auto f = [](double u) { return 1.0 / u; };
  const TieredTable t =
      TieredTable::build(f, TieredLayout::uniform(64), 22, 0.1);
  EXPECT_NEAR(t.eval_fixed(0.01), t.eval_fixed(0.1), 1e-3 * f(0.1));
}

TEST(TieredTable, FixedPathIsDeterministic) {
  auto f = [](double u) { return std::sin(6.0 * u) + 2.0; };
  const TieredTable t =
      TieredTable::build(f, TieredLayout::anton_default(), 22);
  for (int i = 0; i < 100; ++i) {
    const double u = (i + 0.5) / 100.0;
    const double a = t.eval_fixed(u);
    const double b = t.eval_fixed(u);
    EXPECT_EQ(a, b);  // bitwise
  }
}

TEST(TieredTable, MantissaBitsControlAccuracy) {
  auto f = [](double u) { return std::exp(-2.0 * u); };
  const TieredTable t12 =
      TieredTable::build(f, TieredLayout::uniform(64), 12);
  const TieredTable t22 =
      TieredTable::build(f, TieredLayout::uniform(64), 22);
  EXPECT_GT(t12.max_fit_error(), 4.0 * t22.max_fit_error());
}

TEST(TieredTable, UniformVsTieredForSteepFunctions) {
  // Ablation: the tiered layout beats a uniform layout with the same
  // entry count on a steep kernel (the design rationale in Section 4).
  const double u_min = 0.004;
  auto f = [&](double u) { return 1.0 / (u * u * u); };
  const TieredTable tiered =
      TieredTable::build(f, TieredLayout::anton_default(), 22, u_min);
  const TieredTable uniform =
      TieredTable::build(f, TieredLayout::uniform(240), 22, u_min);
  double worst_t = 0, worst_u = 0;
  for (int i = 0; i <= 2000; ++i) {
    const double u = u_min + (0.999 - u_min) * i / 2000.0;
    worst_t = std::max(worst_t, std::fabs(tiered.eval_fixed(u) - f(u)) / f(u));
    worst_u =
        std::max(worst_u, std::fabs(uniform.eval_fixed(u) - f(u)) / f(u));
  }
  EXPECT_LT(worst_t, 0.2 * worst_u);
}

// Property: the batched evaluator is the scalar fixed-point path run over
// lanes -- bitwise identical for every input, across the full tier layout,
// edge clamps and both the fast-batch and scalar-fallback regimes.
TEST(TieredTable, BatchedMatchesScalarBitwise) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  struct Case {
    const char* name;
    std::function<double(double)> f;
    TieredLayout layout;
    int mantissa_bits;
    double u_min;
  };
  const std::vector<Case> cases = {
      {"erfc-like", [](double u) { return std::exp(-3.0 * u) / (u + 0.01); },
       TieredLayout::anton_default(), 22, 0.005},
      {"steep-lj", [](double u) { return 1.0 / (u * u * u + 1e-4); },
       TieredLayout::anton_default(), 26, 0.004},
      {"uniform", [](double u) { return std::sin(6.0 * u) + 2.0; },
       TieredLayout::uniform(64), 22, 0.0},
      // mantissa_bits > 26 disables the fast batch; eval_fixed_n must
      // fall back to the scalar path and still match.
      {"wide-mantissa", [](double u) { return std::exp(-2.0 * u); },
       TieredLayout::anton_default(), 28, 0.005}};
  for (const Case& c : cases) {
    const TieredTable t =
        TieredTable::build(c.f, c.layout, c.mantissa_bits, c.u_min);
    std::vector<double> u;
    // Edge inputs: clamps, tier boundaries, the open upper end.
    u.insert(u.end(), {-0.5, 0.0, c.u_min * 0.5, c.u_min,
                       std::nextafter(1.0, 0.0), 1.0, 1.5});
    // Non-finite, signed-zero and subnormal inputs: NaN takes
    // find_segment's fall-through (last segment, t = 0).
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double sub = std::numeric_limits<double>::denorm_min();
    u.insert(u.end(), {0.5, nan, 0.25, 1.5, -nan, inf, -inf, -0.0, sub,
                       -sub, 1e-310, std::numeric_limits<double>::min()});
    for (const auto& tier : c.layout.tiers) {
      u.push_back(tier.lo);
      u.push_back(std::nextafter(tier.lo, 0.0));
      u.push_back(std::nextafter(tier.lo, 2.0));
    }
    anton::Xoshiro256 rng(99);
    for (int i = 0; i < 4000; ++i) u.push_back(rng.uniform(0.0, 1.0));
    std::vector<double> batched(u.size());
    t.eval_fixed_n(u.data(), batched.data(), u.size());
    for (std::size_t i = 0; i < u.size(); ++i)
      ASSERT_EQ(bits(t.eval_fixed(u[i])), bits(batched[i]))
          << c.name << " u=" << u[i];
  }
}

// Property: the batched segment search multiplies by 1/w instead of
// dividing by the tier width w only when every w is a power of two, and
// there the two are bitwise the same. Checked against the scalar
// (dividing) path for every table PairKernels builds -- the erfc and
// spreading tables on the power-of-two default layout, the LJ tables on
// the non-power-of-two vdW layout -- at segment edges and random inputs.
TEST(TieredTable, MultiplySearchMatchesDivisionBitwise) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  EXPECT_TRUE(TieredTable::build([](double u) { return 1.0 + u; },
                                 TieredLayout::anton_default())
                  .multiply_search());
  EXPECT_TRUE(TieredTable::build([](double u) { return 1.0 + u; },
                                 TieredLayout::uniform(64))
                  .multiply_search());
  // w = 1/100 is not a power of two: the search must keep the division.
  const TieredTable div100 = TieredTable::build(
      [](double u) { return std::exp(-u); }, TieredLayout::uniform(100));
  EXPECT_FALSE(div100.multiply_search());

  std::vector<anton::htis::PairKernelParams> params(2);
  params[0].cutoff = 13.0;  // the engine's default GSE parameters
  params[0].beta = 0.35;
  params[0].sigma_s = 1.0;
  params[0].rs = 5.0;
  params[1].cutoff = 9.0;
  params[1].beta = 0.3444;
  params[1].sigma_s = 1.2;
  params[1].rs = 4.3;
  const std::vector<anton::LJType> types{
      {3.15, 0.152}, {1.0, 0.0}, {3.4, 0.086}};

  std::vector<std::pair<std::string, const TieredTable*>> all;
  std::vector<anton::htis::PairKernels> kernels;
  kernels.reserve(params.size());
  for (const auto& p : params) kernels.emplace_back(p, types);
  for (std::size_t i = 0; i < kernels.size(); ++i)
    for (const auto& [name, t] : kernels[i].tables())
      all.emplace_back(std::string(name) + "#" + std::to_string(i), t);
  all.emplace_back("uniform100", &div100);

  int multiplying = 0;
  for (const auto& [name, t] : all) {
    multiplying += t->multiply_search() ? 1 : 0;
    std::vector<double> u{-1.0, -0.0, 0.0, 4.9e-324, 2.2250738585072014e-308,
                          std::nextafter(1.0, 0.0), 1.0, 2.0};
    // Every segment boundary and its neighbours: where k and t round.
    const int nseg = t->layout().total_entries();
    for (int k = 0; k < nseg; ++k) {
      double lo, hi;
      t->layout().segment_bounds(k, lo, hi);
      for (const double x : {lo, hi, 0.5 * (lo + hi)}) {
        u.push_back(x);
        u.push_back(std::nextafter(x, -1.0));
        u.push_back(std::nextafter(x, 2.0));
      }
    }
    anton::Xoshiro256 rng(2024);
    for (int i = 0; i < 100000; ++i) u.push_back(rng.uniform(0.0, 1.0));
    // Log-uniform small inputs probe the densest tier down to u_min.
    for (int i = 0; i < 1000; ++i)
      u.push_back(std::ldexp(rng.uniform(0.5, 1.0),
                             -static_cast<int>(rng() % 40)));
    std::vector<double> batched(u.size());
    t->eval_fixed_n(u.data(), batched.data(), u.size());
    for (std::size_t i = 0; i < u.size(); ++i)
      ASSERT_EQ(bits(t->eval_fixed(u[i])), bits(batched[i]))
          << name << " u=" << u[i];
  }
  // Per PairKernels: f_elec, e_elec and g_spread use the default layout.
  EXPECT_EQ(multiplying, 3 * static_cast<int>(kernels.size()));
}
