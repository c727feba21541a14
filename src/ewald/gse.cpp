#include "ewald/gse.hpp"

#include <cmath>
#include <stdexcept>

#include "ewald/kernels.hpp"
#include "util/units.hpp"

namespace anton::ewald {

GseParams GseParams::for_cutoff(double rc, int mesh) {
  GseParams p;
  // erfc(x) ~ 1e-5 at x ~ 3.1; beta = 3.1 / rc.
  p.beta = 3.1 / rc;
  const double sigma = p.sigma();
  p.sigma_s = 0.85 * sigma / std::sqrt(2.0);
  p.rs = 4.2 * p.sigma_s;
  p.mesh = mesh;
  return p;
}

Gse::Gse(const PeriodicBox& box, const GseParams& p)
    : box_(box), p_(p), h_(box.side().x / p.mesh), fft_(p.mesh) {
  if (!box.is_cubic())
    throw std::invalid_argument("Gse: requires a cubic box");
  if (p.sigma_k2() < 0.0)
    throw std::invalid_argument("Gse: sigma_s too large for beta");
  // Precompute the k-space kernel on the DFT index grid.
  const int M = p_.mesh;
  const double L = box.side().x;
  green_.resize(mesh_total());
  const double sk2 = p_.sigma_k2();
  for (int nz = 0; nz < M; ++nz) {
    const int fz = (nz <= M / 2) ? nz : nz - M;
    for (int ny = 0; ny < M; ++ny) {
      const int fy = (ny <= M / 2) ? ny : ny - M;
      for (int nx = 0; nx < M; ++nx) {
        const int fx = (nx <= M / 2) ? nx : nx - M;
        const std::size_t idx = (static_cast<std::size_t>(nz) * M + ny) * M + nx;
        if (fx == 0 && fy == 0 && fz == 0) {
          green_[idx] = 0.0;  // k = 0: tinfoil boundary, neutral system
          continue;
        }
        const double kx = 2.0 * M_PI * fx / L;
        const double ky = 2.0 * M_PI * fy / L;
        const double kz = 2.0 * M_PI * fz / L;
        const double k2 = kx * kx + ky * ky + kz * kz;
        green_[idx] =
            units::kCoulomb * 4.0 * M_PI / k2 * std::exp(-0.5 * k2 * sk2);
      }
    }
  }
}

void Gse::spread(std::span<const Vec3d> pos, std::span<const double> q,
                 std::span<double> Q) const {
  for (std::size_t i = 0; i < pos.size(); ++i) {
    const double qi = q[i];
    if (qi == 0.0) continue;
    for_each_mesh_point(pos[i], [&](std::size_t idx, const Vec3d&, double r2) {
      Q[idx] += qi * gaussian3d(r2, p_.sigma_s);
    });
  }
}

double Gse::convolve(std::span<const double> Q, std::span<double> phi) const {
  const std::size_t n = mesh_total();
  std::vector<fft::cplx> grid(n);
  for (std::size_t i = 0; i < n; ++i) grid[i] = {Q[i], 0.0};
  fft_.forward(grid);
  for (std::size_t i = 0; i < n; ++i) grid[i] *= green_[i];
  fft_.inverse(grid);
  const double h3 = h_ * h_ * h_;
  double energy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    phi[i] = grid[i].real();
    energy += phi[i] * Q[i];
  }
  return 0.5 * h3 * energy;
}

void Gse::interpolate(std::span<const Vec3d> pos, std::span<const double> q,
                      std::span<const double> phi,
                      std::span<Vec3d> force) const {
  const double h3 = h_ * h_ * h_;
  const double inv_s2 = 1.0 / (p_.sigma_s * p_.sigma_s);
  for (std::size_t i = 0; i < pos.size(); ++i) {
    const double qi = q[i];
    if (qi == 0.0) continue;
    Vec3d f{0, 0, 0};
    for_each_mesh_point(pos[i],
                        [&](std::size_t idx, const Vec3d& dr, double r2) {
                          const double g = gaussian3d(r2, p_.sigma_s);
                          // F = -q grad_i sum phi G(r_i - r_m) h^3
                          //   = +q sum phi (dr / s^2) G h^3
                          f += dr * (phi[idx] * g);
                        });
    force[i] += f * (qi * h3 * inv_s2);
  }
}

namespace {

// Regrows every lane of `b` to exactly `cap` entries (length and
// allocation); the contents are not kept.
void regrow_lanes(MeshPointBatch& b, std::size_t cap) {
  b.idx = std::vector<std::size_t>(cap);
  for (std::vector<double>* v : {&b.dx, &b.dy, &b.dz, &b.r2})
    *v = std::vector<double>(cap);
}

}  // namespace

void Gse::gather_mesh_points(const Vec3d& r, MeshPointBatch& out) const {
  const int M = p_.mesh;
  const double half = 0.5 * box_.side().x;
  const double rs2 = p_.rs * p_.rs;
  // The window and every double below are formed exactly as in
  // for_each_mesh_point; only the loop structure differs.
  const double rr[3] = {r.x, r.y, r.z};
  for (int a = 0; a < 3; ++a) {
    const int lo = static_cast<int>(std::floor((rr[a] + half - p_.rs) / h_));
    const int hi = static_cast<int>(std::ceil((rr[a] + half + p_.rs) / h_));
    std::vector<double>& d = out.axis_d[a];
    std::vector<int>& w = out.axis_w[a];
    d.clear();
    w.clear();
    for (int m = lo; m <= hi; ++m) {
      d.push_back(rr[a] - (m * h_ - half));
      w.push_back(((m % M) + M) % M);
    }
  }
  const int nx = static_cast<int>(out.axis_d[0].size());
  const double* xd = out.axis_d[0].data();
  const int* xw = out.axis_w[0].data();
  const std::vector<double>& yd = out.axis_d[1];
  const std::vector<double>& zd = out.axis_d[2];

  // Pass 1: the hits of every (y, z) row, counted before anything is
  // stored so the lanes are sized by hits. Both steps are exact:
  //  * a row is skipped when dy*dy + dz*dz > rs2, because the visitor's
  //    r2 = (dx*dx + dy*dy) + dz*dz, rounding is monotone and
  //    dx*dx >= 0, so every point of the row fails the cutoff too;
  //  * within a row the hits are one interval: dx = rx - (m h - L/2)
  //    falls monotonically with m (each rounding step is monotone), so
  //    dx*dx and with it r2 first fall, then rise, and the points with
  //    !(r2 > rs2) are contiguous. Scanning in from both ends finds them.
  out.rows.clear();
  std::size_t total = 0;
  for (std::size_t kz = 0; kz < zd.size(); ++kz) {
    const double dz2 = zd[kz] * zd[kz];
    for (std::size_t ky = 0; ky < yd.size(); ++ky) {
      const double dy2 = yd[ky] * yd[ky];
      if (dy2 + dz2 > rs2) continue;
      const auto miss = [&](int kx) {
        return xd[kx] * xd[kx] + dy2 + dz2 > rs2;
      };
      int x0 = 0;
      while (x0 < nx && miss(x0)) ++x0;
      if (x0 == nx) continue;
      int x1 = nx;
      while (miss(x1 - 1)) --x1;  // stops at x0 at the latest
      out.rows.push_back({static_cast<int>(ky), static_cast<int>(kz), x0, x1});
      total += static_cast<std::size_t>(x1 - x0);
    }
  }

  // Pass 2: write the hits in visitor order, r2 in its association.
  // Hit counts differ little between atoms (~1% on the golden config),
  // and every regrowth leaves the old lanes behind as resident heap, so
  // the lanes grow with one row of slack.
  if (out.idx.size() < total) regrow_lanes(out, total + nx);
  std::size_t* idx = out.idx.data();
  double* ldx = out.dx.data();
  double* ldy = out.dy.data();
  double* ldz = out.dz.data();
  double* lr2 = out.r2.data();
  std::size_t n = 0;
  for (const MeshPointBatch::Row& row : out.rows) {
    const double dy = yd[row.ky], dz = zd[row.kz];
    const double dy2 = dy * dy, dz2 = dz * dz;
    const std::size_t base =
        (static_cast<std::size_t>(out.axis_w[2][row.kz]) * M +
         out.axis_w[1][row.ky]) * M;
    for (int kx = row.x0; kx < row.x1; ++kx, ++n) {
      const double dx = xd[kx];
      idx[n] = base + static_cast<std::size_t>(xw[kx]);
      ldx[n] = dx;
      ldy[n] = dy;
      ldz[n] = dz;
      lr2[n] = dx * dx + dy2 + dz2;
    }
  }
  out.n = n;
}

double Gse::self_energy(std::span<const double> q) const {
  double s = 0.0;
  for (double qi : q) s += qi * qi;
  return -units::kCoulomb * p_.beta / std::sqrt(M_PI) * s;
}

}  // namespace anton::ewald
