// Property tests for the fixed-point substrate: seeded-random streams
// exercise the algebraic claims the engine's determinism rests on.
//
//  * Wrapping 64-bit accumulation is associative and commutative, so any
//    permutation of a contribution stream -- and any partition of it into
//    per-lane shards reduced afterwards -- yields the same bits. This is
//    the exact discipline AntonEngine's force/energy shards rely on.
//  * The 32-bit position lattice wraps exactly at the box boundary: a
//    full box length of accumulated displacement is a no-op, and
//    minimum-image deltas agree across the wrap seam.
//  * quantize, the one round-to-integer every kernel goes through, is
//    bitwise std::llrint(x * scale) on every input: ties, the 2^51 edge
//    of its inline path, signed zero, subnormals, infinities and NaN.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <random>
#include <vector>

#include "fixed/accum.hpp"
#include "fixed/fixed.hpp"
#include "fixed/lattice.hpp"
#include "geom/box.hpp"
#include "util/rng.hpp"

using anton::PeriodicBox;
using anton::Vec3d;
using anton::Vec3i;
namespace fx = anton::fixed;

namespace {

// A seeded stream of "force-like" contributions: a wide mix of small and
// huge magnitudes, both signs, including values that overflow int64 when
// summed naively.
std::vector<std::int64_t> random_stream(std::uint64_t seed, int n) {
  anton::Xoshiro256 rng(seed);
  std::vector<std::int64_t> v(n);
  for (auto& x : v) {
    const std::uint64_t bits = rng();
    // Shift by a random amount so magnitudes span the full 64-bit range.
    const int shift = static_cast<int>(rng() % 64);
    x = static_cast<std::int64_t>(bits >> shift);
    if (rng() & 1) x = -x;
  }
  return v;
}

std::int64_t wrap_sum(const std::vector<std::int64_t>& v) {
  fx::Accum64 a;
  for (std::int64_t x : v) a.add(x);
  return a.value();
}

TEST(FixedProperty, WrappingSumIsPermutationInvariant) {
  for (std::uint64_t seed : {1ull, 42ull, 0xdeadbeefull}) {
    const auto stream = random_stream(seed, 2000);
    const std::int64_t golden = wrap_sum(stream);

    std::mt19937_64 perm_rng(seed ^ 0x9e3779b97f4a7c15ull);
    auto shuffled = stream;
    for (int trial = 0; trial < 5; ++trial) {
      std::shuffle(shuffled.begin(), shuffled.end(), perm_rng);
      EXPECT_EQ(wrap_sum(shuffled), golden) << "seed " << seed;
    }
    // Reversal, a permutation float sums notoriously fail.
    auto rev = stream;
    std::reverse(rev.begin(), rev.end());
    EXPECT_EQ(wrap_sum(rev), golden);
  }
}

TEST(FixedProperty, ShardPartitionInvariance) {
  // Partition the stream into per-lane shards (any assignment), reduce
  // the shards, and require the same bits as the serial sum -- the
  // AntonEngine flush discipline in miniature.
  const auto stream = random_stream(7, 4096);
  const std::int64_t golden = wrap_sum(stream);

  anton::Xoshiro256 rng(99);
  for (int lanes : {1, 2, 3, 4, 7, 16}) {
    // Round-robin and random assignment both must agree.
    for (int mode = 0; mode < 2; ++mode) {
      std::vector<fx::Accum64> shard(lanes);
      for (std::size_t i = 0; i < stream.size(); ++i) {
        const int lane = mode == 0 ? static_cast<int>(i) % lanes
                                   : static_cast<int>(rng() % lanes);
        shard[lane].add(stream[i]);
      }
      fx::Accum64 total;
      for (const auto& s : shard) total.add(s.value());
      EXPECT_EQ(total.value(), golden)
          << lanes << " lanes, mode " << mode;
    }
  }
}

TEST(FixedProperty, WrapAddSubRoundTrip) {
  const auto a = random_stream(11, 500);
  const auto b = random_stream(12, 500);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(fx::wrap_sub(fx::wrap_add(a[i], b[i]), b[i]), a[i]);
    EXPECT_EQ(fx::wrap_add(fx::wrap_sub(a[i], b[i]), b[i]), a[i]);
  }
}

TEST(FixedProperty, LatticeWrapsExactlyAtBoxBoundary) {
  const PeriodicBox box(14.0);
  const fx::PositionLattice lat(box);

  // Advancing by the box length on any axis is an exact no-op: 2^32
  // lattice steps wrap to zero. Do it in two half-box hops (each half box
  // is exactly 2^31 steps, representable in the displacement quantizer).
  anton::Xoshiro256 rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    const Vec3i p{static_cast<std::int32_t>(rng()),
                  static_cast<std::int32_t>(rng()),
                  static_cast<std::int32_t>(rng())};
    Vec3i q = lat.advance(p, {box.side().x / 2, 0, 0});
    q = lat.advance(q, {box.side().x / 2, 0, 0});
    q = lat.advance(q, {0, -box.side().y / 2, box.side().z / 2});
    q = lat.advance(q, {0, -box.side().y / 2, box.side().z / 2});
    EXPECT_EQ(q, p);
  }

  // Minimum-image delta across the wrap seam: two points straddling the
  // boundary are a few lattice steps apart, not a box apart.
  const Vec3i near_max{INT32_MAX - 2, 0, 0};
  const Vec3i near_min{INT32_MIN + 3, 0, 0};
  const Vec3i d = fx::PositionLattice::delta(near_min, near_max);
  EXPECT_EQ(d.x, 6);  // wraps through the seam
  EXPECT_EQ(d.y, 0);
  EXPECT_EQ(d.z, 0);
  // And the physical distance is a few LSBs, not ~L.
  EXPECT_LT(lat.dist2(near_min, near_max), 1e-10);
}

TEST(FixedProperty, LatticeRoundTripsPhysicalPoints) {
  const PeriodicBox box(14.0);
  const fx::PositionLattice lat(box);
  anton::Xoshiro256 rng(31);
  for (int trial = 0; trial < 500; ++trial) {
    auto unit = [&] {
      return (static_cast<double>(rng() >> 11) / 9007199254740992.0 -
              0.5);
    };
    const Vec3d r{unit() * box.side().x, unit() * box.side().y, unit() * box.side().z};
    const Vec3i p = lat.to_lattice(r);
    const Vec3d back = lat.to_phys(p);
    // to_phys(to_lattice(r)) is within half an LSB on each axis (modulo
    // the box).
    EXPECT_NEAR(back.x, r.x, lat.lsb().x);
    EXPECT_NEAR(back.y, r.y, lat.lsb().y);
    EXPECT_NEAR(back.z, r.z, lat.lsb().z);
    // And quantizing again is idempotent: the lattice point is a fixed
    // point of the round trip.
    EXPECT_EQ(lat.to_lattice(back), p);
  }
}

// The reference is the libm call quantize replaces. Inputs pass through
// a volatile so neither side is constant-folded at compile time.
void expect_quantize_matches_llrint(double x, double scale) {
  volatile double vx = x;
  const double xr = vx;
  EXPECT_EQ(fx::quantize(xr, scale), std::llrint(xr * scale))
      << "x=" << xr << " bits=" << std::hex
      << std::bit_cast<std::uint64_t>(xr) << " scale=" << scale;
}

constexpr double kTwo51 = 2251799813685248.0;  // 2^51

TEST(FixedProperty, QuantizeTiesRoundToEven) {
  for (std::int64_t k = -1000; k <= 1000; ++k) {
    expect_quantize_matches_llrint(static_cast<double>(k) + 0.5, 1.0);
    expect_quantize_matches_llrint(static_cast<double>(k) - 0.5, 1.0);
  }
  // Ties at every magnitude up to the top of the inline path, where
  // k + 0.5 is still representable, on both sides of zero.
  for (int e = 1; e <= 51; ++e) {
    const double k = std::ldexp(1.0, e);
    for (const double x : {k - 0.5, k + 0.5, k - 1.5, k + 1.5}) {
      if (std::fabs(x) >= 2 * kTwo51) continue;
      expect_quantize_matches_llrint(x, 1.0);
      expect_quantize_matches_llrint(-x, 1.0);
    }
  }
  EXPECT_EQ(fx::quantize(0.5, 1.0), 0);
  EXPECT_EQ(fx::quantize(1.5, 1.0), 2);
  EXPECT_EQ(fx::quantize(2.5, 1.0), 2);
  EXPECT_EQ(fx::quantize(-2.5, 1.0), -2);
  // Ties produced by the scale multiply rather than the input.
  expect_quantize_matches_llrint(0.5, 4294967296.0 /* 2^32 */);
  expect_quantize_matches_llrint(3.0 / 8.0, 4.0);
  expect_quantize_matches_llrint(-3.0 / 8.0, 4.0);
}

TEST(FixedProperty, QuantizeAroundTwo51) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const double edge : {kTwo51, 2 * kTwo51, 4 * kTwo51,
                            9.2233720368547758e18 /* 2^63 */}) {
    double x = edge;
    for (int i = 0; i < 8; ++i) x = std::nextafter(x, 0.0);
    for (int i = 0; i < 16; ++i) {  // just below, at and above the edge
      expect_quantize_matches_llrint(x, 1.0);
      expect_quantize_matches_llrint(-x, 1.0);
      x = std::nextafter(x, inf);
    }
  }
  // Products that cross 2^51 only after scaling.
  expect_quantize_matches_llrint(std::nextafter(kTwo51 / 4096.0, 0.0),
                                 4096.0);
  expect_quantize_matches_llrint(kTwo51 / 4096.0, 4096.0);
  expect_quantize_matches_llrint(std::nextafter(kTwo51 / 4096.0, inf),
                                 4096.0);
  expect_quantize_matches_llrint(-kTwo51 / 4096.0, 4096.0);
}

TEST(FixedProperty, QuantizeSignedZeroSubnormalsAndNonFinite) {
  const double dmin = std::numeric_limits<double>::denorm_min();
  const double nmin = std::numeric_limits<double>::min();
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double scale : {1.0, 1099511627776.0 /* 2^40 */, 0.75}) {
    for (const double x : {0.0, -0.0, dmin, -dmin, 3 * dmin, nmin, -nmin,
                           std::nextafter(nmin, 0.0), inf, -inf, nan, -nan,
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::lowest()})
      expect_quantize_matches_llrint(x, scale);
  }
  EXPECT_EQ(fx::quantize(-0.0, 1.0), 0);
}

TEST(FixedProperty, QuantizeRandomDoublesAllExponents) {
  anton::Xoshiro256 rng(0x51);
  // The scales the engine quantizes with: force/energy 2^32, velocity and
  // mesh charge 2^40, unit, and non-power-of-two kick/thermostat-like
  // coefficients whose product rounds before the round-to-integer.
  const double scales[] = {1.0, 4294967296.0, 1099511627776.0,
                           0.9999871, 3.7e-9, 1.0 / 3.0};
  for (int i = 0; i < 1000000; ++i) {
    const double scale = scales[i % 6];
    double x;
    if (i % 2 == 0) {
      // Uniform over all bit patterns: every exponent, both signs,
      // subnormals, infinities and NaNs.
      x = std::bit_cast<double>(rng());
    } else {
      // Magnitudes concentrated where the inline path and the fallback
      // meet: mantissa * 2^e with e in [-64, 64).
      const double m = static_cast<double>(rng() >> 11) / 9007199254740992.0;
      x = std::ldexp(m, static_cast<int>(rng() % 128) - 64);
      if (rng() & 1) x = -x;
    }
    volatile double vx = x;
    const double xr = vx;
    ASSERT_EQ(fx::quantize(xr, scale), std::llrint(xr * scale))
        << "x bits=" << std::hex << std::bit_cast<std::uint64_t>(xr)
        << " scale=" << scale;
  }
}

}  // namespace
