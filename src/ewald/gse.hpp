// Gaussian Split Ewald (GSE) -- the paper's long-range electrostatics
// method (Shan et al., J. Chem. Phys. 122, 054101; Section 3.1 here).
//
// The Ewald decomposition splits the Coulomb interaction with parameter
// beta: a direct-space part erfc(beta r)/r summed over nearby pairs, and a
// smooth reciprocal part evaluated on a mesh. GSE's twist -- the reason it
// maps onto Anton's HTIS -- is that both charge spreading and force
// interpolation use *radially symmetric Gaussians* instead of the
// B-splines of Smooth PME, so they are "interactions between atoms and
// nearby mesh points" computable by the pairwise point interaction
// pipelines.
//
// The split used here: spreading/interpolation Gaussians of width sigma_s
// each contribute exp(-k^2 sigma_s^2 / 2) in Fourier space; the on-mesh
// convolution kernel supplies the remainder,
//     G(k) = kC * (4 pi / k^2) * exp(-k^2 (sigma^2 - 2 sigma_s^2) / 2),
// with sigma = 1/(sqrt(2) beta), which requires sigma_s <= sigma/sqrt(2).
// Together: spreading x kernel x interpolation = the standard Ewald
// reciprocal-space damping exp(-k^2 / 4 beta^2).
#pragma once

#include <cmath>
#include <span>
#include <vector>

#include "fft/fft3d.hpp"
#include "geom/box.hpp"
#include "geom/vec3.hpp"

namespace anton::ewald {

struct GseParams {
  double beta = 0.35;     // Ewald splitting parameter, 1/A
  double sigma_s = 1.0;   // spreading/interpolation Gaussian width, A
  double rs = 5.0;        // spreading/interpolation cutoff, A
  int mesh = 32;          // mesh points per axis (power of two)

  double sigma() const { return 1.0 / (1.4142135623730951 * beta); }
  /// Width^2 remaining in the k-space kernel; must be >= 0.
  double sigma_k2() const {
    const double s = sigma();
    return s * s - 2.0 * sigma_s * sigma_s;
  }

  /// A reasonable parameter set for a given direct-space cutoff: beta
  /// chosen so erfc(beta rc) ~ 1e-5 at the cutoff, sigma_s at its maximum
  /// (sigma/sqrt(2)) shrunk slightly to leave smoothing in k-space, and
  /// rs covering ~4.2 sigma_s of the spreading Gaussian.
  static GseParams for_cutoff(double rc, int mesh);
};

/// Per-axis geometry of one atom's mesh window: for every window
/// coordinate m along an axis, the displacement r_a - (m h - L/2) and the
/// wrapped mesh index m mod M. Reused across atoms (one per engine lane
/// or worker); sized by the window edge, ~2 rs / h + 2 entries per axis.
/// The x displacements carry kPad trailing zeros past the window, so
/// vector kernels may read whole four-point vectors past a row's end.
struct MeshWindow {
  static constexpr int kPad = 3;
  std::vector<double> d[3];
  std::vector<int> w[3];
};

/// One (y, z) row of the window with hits: n consecutive window x
/// coordinates, all within rs of the atom. Point k of the row is mesh
/// index base + wx[k] with displacement (dx[k], dy, dz), and its r^2 in
/// for_each_mesh_point's association is (dx[k]*dx[k] + dy*dy) + dz*dz.
struct MeshRow {
  std::size_t base = 0;  // mesh index of x = 0 on this row
  double dy = 0.0, dz = 0.0;
  const double* dx = nullptr;
  const int* wx = nullptr;
  int n = 0;
};

class Gse {
 public:
  Gse(const PeriodicBox& box, const GseParams& p);

  const GseParams& params() const { return p_; }
  std::size_t mesh_total() const {
    return static_cast<std::size_t>(p_.mesh) * p_.mesh * p_.mesh;
  }
  double mesh_spacing() const { return h_; }

  /// Charge spreading: accumulates the Gaussian-smeared charge density
  /// (units e/A^3) of each atom onto mesh points within rs. Q must have
  /// mesh_total() entries, pre-zeroed by the caller.
  void spread(std::span<const Vec3d> pos, std::span<const double> q,
              std::span<double> Q) const;

  /// On-mesh convolution: forward FFT, multiply by G(k), inverse FFT.
  /// Writes the mesh potential phi (kcal/mol per e) and returns the
  /// reciprocal-space energy (kcal/mol).
  double convolve(std::span<const double> Q, std::span<double> phi) const;

  /// Force interpolation: F_i += q_i * sum_m phi(m) h^3 * grad G terms.
  /// Also accumulates the per-atom reciprocal potential energy if
  /// `atom_energy` is non-empty.
  void interpolate(std::span<const Vec3d> pos, std::span<const double> q,
                   std::span<const double> phi, std::span<Vec3d> force) const;

  /// Ewald self-energy (constant per configuration): -kC beta/sqrt(pi) sum q^2.
  double self_energy(std::span<const double> q) const;

  /// The k-space kernel G(k) on the DFT index grid. Exposed so a
  /// distributed convolution (the VM's block-owned slabs) applies exactly
  /// the per-point multiply convolve() applies.
  const std::vector<double>& green() const { return green_; }

  /// Enumerates (index, weight) of mesh points within rs of a position;
  /// used by both the double path above and the Anton engine's HTIS-style
  /// mesh interaction pass. f(mesh_index, dr, r2) with dr = r_atom - r_mesh.
  template <typename F>
  void for_each_mesh_point(const Vec3d& r, F&& f) const {
    const int M = p_.mesh;
    const double half = 0.5 * box_.side().x;
    const double rs2 = p_.rs * p_.rs;
    // Index window along each axis around the atom.
    int lo[3], hi[3];
    const double rr[3] = {r.x, r.y, r.z};
    for (int a = 0; a < 3; ++a) {
      lo[a] = static_cast<int>(std::floor((rr[a] + half - p_.rs) / h_));
      hi[a] = static_cast<int>(std::ceil((rr[a] + half + p_.rs) / h_));
    }
    for (int mz = lo[2]; mz <= hi[2]; ++mz) {
      const double dz = rr[2] - (mz * h_ - half);
      for (int my = lo[1]; my <= hi[1]; ++my) {
        const double dy = rr[1] - (my * h_ - half);
        for (int mx = lo[0]; mx <= hi[0]; ++mx) {
          const double dx = rr[0] - (mx * h_ - half);
          const double r2 = dx * dx + dy * dy + dz * dz;
          if (r2 > rs2) continue;
          const int wx = ((mx % M) + M) % M;
          const int wy = ((my % M) + M) % M;
          const int wz = ((mz % M) + M) % M;
          const std::size_t idx =
              (static_cast<std::size_t>(wz) * M + wy) * M + wx;
          f(idx, Vec3d{dx, dy, dz}, r2);
        }
      }
    }
  }

  /// The mesh points for_each_mesh_point visits, as rows: f(MeshRow)
  /// for every (y, z) row of the window with hits, in the visitor's
  /// order, so expanding the rows reproduces the visit point for point
  /// with the same doubles. Two facts make the row search exact:
  ///  * a row is skipped when dy*dy + dz*dz > rs2, because the visitor's
  ///    r2 = (dx*dx + dy*dy) + dz*dz, rounding is monotone and
  ///    dx*dx >= 0, so every point of the row fails the cutoff too;
  ///  * within a row the hits are one interval: dx = rx - (m h - L/2)
  ///    falls monotonically with m (each rounding step is monotone), so
  ///    dx*dx and with it r2 first fall, then rise, and the points with
  ///    !(r2 > rs2) are contiguous. Scanning in from both ends finds them.
  /// for_each_mesh_point stays the reference this is tested against.
  template <typename F>
  void for_each_mesh_row(const Vec3d& r, MeshWindow& win, F&& f) const {
    mesh_window(r, win);
    const int M = p_.mesh;
    const double rs2 = p_.rs * p_.rs;
    const int nx = static_cast<int>(win.w[0].size());
    const double* xd = win.d[0].data();
    for (std::size_t kz = 0; kz < win.d[2].size(); ++kz) {
      const double dz = win.d[2][kz];
      const double dz2 = dz * dz;
      for (std::size_t ky = 0; ky < win.d[1].size(); ++ky) {
        const double dy = win.d[1][ky];
        const double dy2 = dy * dy;
        if (dy2 + dz2 > rs2) continue;
        const auto miss = [&](int kx) {
          return xd[kx] * xd[kx] + dy2 + dz2 > rs2;
        };
        int x0 = 0;
        while (x0 < nx && miss(x0)) ++x0;
        if (x0 == nx) continue;
        int x1 = nx;
        while (miss(x1 - 1)) --x1;  // stops at x0 at the latest
        MeshRow row;
        row.base = (static_cast<std::size_t>(win.w[2][kz]) * M +
                    static_cast<std::size_t>(win.w[1][ky])) *
                   static_cast<std::size_t>(M);
        row.dy = dy;
        row.dz = dz;
        row.dx = xd + x0;
        row.wx = win.w[0].data() + x0;
        row.n = x1 - x0;
        f(row);
      }
    }
  }

  /// Fills `win` for an atom at r: the index window and every per-axis
  /// double formed exactly as in for_each_mesh_point (plus the x pad).
  void mesh_window(const Vec3d& r, MeshWindow& win) const;

 private:
  PeriodicBox box_;
  GseParams p_;
  double h_;  // mesh spacing
  fft::Fft3D fft_;
  std::vector<double> green_;  // G(k) on the DFT index grid
};

}  // namespace anton::ewald
