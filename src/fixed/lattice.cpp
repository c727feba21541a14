#include "fixed/lattice.hpp"

#include <cmath>

namespace anton::fixed {

namespace {
constexpr double kTwo32 = 4294967296.0;  // 2^32

// Quantize one coordinate and wrap it into int32 (two's-complement wrap is
// well-defined via the uint64 intermediate).
inline std::int32_t to_lat1(double r, double inv_lsb) {
  return static_cast<std::int32_t>(
      static_cast<std::uint64_t>(quantize(r, inv_lsb)));
}
}  // namespace

PositionLattice::PositionLattice(const PeriodicBox& box) : box_(box) {
  const Vec3d s = box.side();
  lsb_ = {s.x / kTwo32, s.y / kTwo32, s.z / kTwo32};
  inv_lsb_ = {kTwo32 / s.x, kTwo32 / s.y, kTwo32 / s.z};
}

Vec3i PositionLattice::to_lattice(const Vec3d& r) const {
  return {to_lat1(r.x, inv_lsb_.x), to_lat1(r.y, inv_lsb_.y),
          to_lat1(r.z, inv_lsb_.z)};
}

Vec3d PositionLattice::to_phys(const Vec3i& p) const {
  return {p.x * lsb_.x, p.y * lsb_.y, p.z * lsb_.z};
}

double PositionLattice::dist2(const Vec3i& a, const Vec3i& b) const {
  const Vec3i d = delta(a, b);
  const Vec3d dr = delta_to_phys(d);
  return dr.norm2();
}

Vec3i PositionLattice::advance(const Vec3i& p, const Vec3d& dr) const {
  const std::int32_t dx = to_lat1(dr.x, inv_lsb_.x);
  const std::int32_t dy = to_lat1(dr.y, inv_lsb_.y);
  const std::int32_t dz = to_lat1(dr.z, inv_lsb_.z);
  return {wrap_add32(p.x, dx), wrap_add32(p.y, dy), wrap_add32(p.z, dz)};
}

}  // namespace anton::fixed
