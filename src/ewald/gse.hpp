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

/// Structure-of-arrays batch of mesh points within rs of one atom
/// (indices, displacement components, squared distances in lanes). The
/// first size() entries of each lane are live. The lanes are reused
/// across atoms and grown only when an atom has more hits than they
/// hold, to that count plus one window row: their length tracks the hit
/// count, not the window volume.
struct MeshPointBatch {
  std::vector<std::size_t> idx;
  std::vector<double> dx, dy, dz, r2;
  std::size_t n = 0;

  std::size_t size() const { return n; }

  // Gather scratch: per axis, the displacement r_a - r_mesh and the
  // wrapped mesh index of every window coordinate; per (y, z) window row
  // with hits, the x range [x0, x1) of its hits.
  std::vector<double> axis_d[3];
  std::vector<int> axis_w[3];
  struct Row {
    int ky, kz, x0, x1;
  };
  std::vector<Row> rows;
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

  /// SoA batch of the mesh points for_each_mesh_point would visit, in the
  /// same order with the same doubles. Gathering first lets callers run
  /// the Gaussian table over all ~(2 rs/h)^3 points of an atom in one
  /// vectorized eval_fixed_n sweep instead of a branchy per-point call.
  /// for_each_mesh_point stays the reference this is tested against.
  void gather_mesh_points(const Vec3d& r, MeshPointBatch& out) const;

 private:
  PeriodicBox box_;
  GseParams p_;
  double h_;  // mesh spacing
  fft::Fft3D fft_;
  std::vector<double> green_;  // G(k) on the DFT index grid
};

}  // namespace anton::ewald
