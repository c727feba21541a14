// Shared engine vocabulary: configuration, energy reports, per-phase
// timings (Table 2 rows) and workload counters (machine-model inputs).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "ewald/gse.hpp"
#include "geom/vec3.hpp"

namespace anton::core {

/// The Table 2 task taxonomy. Anton accelerates the first, third and
/// fourth with special-purpose pipelines; FFT, bonded and integration run
/// on the flexible subsystem.
enum class Phase : int {
  kRangeLimited = 0,
  kFft,
  kMeshInterpolation,  // charge spreading + force interpolation
  kCorrection,
  kBonded,
  kIntegration,
  kCount
};

inline const char* phase_name(Phase p) {
  static const char* names[] = {"Range-limited forces", "FFT & inverse FFT",
                                "Mesh interpolation",   "Correction forces",
                                "Bonded forces",        "Integration"};
  return names[static_cast<int>(p)];
}

struct PhaseTimes {
  std::array<double, static_cast<int>(Phase::kCount)> seconds{};
  double& operator[](Phase p) { return seconds[static_cast<int>(p)]; }
  double operator[](Phase p) const { return seconds[static_cast<int>(p)]; }
  double total() const {
    double s = 0;
    for (double x : seconds) s += x;
    return s;
  }
};

struct EnergyReport {
  double bonded = 0.0;
  double lj = 0.0;
  double coul_direct = 0.0;
  double coul_recip = 0.0;
  double coul_self = 0.0;
  double correction = 0.0;  // scaled 1-4 terms + reciprocal exclusions
  double kinetic = 0.0;
  double potential() const {
    return bonded + lj + coul_direct + coul_recip + coul_self + correction;
  }
  double total() const { return potential() + kinetic; }
  double temperature = 0.0;
};

/// Instantaneous pressure decomposition. The pairwise virial is summed in
/// 128-bit fixed-point accumulators on the Anton engine (the paper's
/// 86-bit multiply/accumulators, Figure 4c, which let Anton guarantee
/// determinism and parallel invariance for pressure-controlled runs);
/// the reciprocal-space contribution comes from a volume derivative of
/// the mesh energy.
struct PressureReport {
  double virial_pair = 0.0;   // sum r_ij . F_ij over pair terms (kcal/mol)
  double virial_bonded = 0.0; // bonded-term virial (kcal/mol)
  double virial_recip = 0.0;  // reciprocal-space virial (kcal/mol)
  double kinetic = 0.0;       // kcal/mol
  double volume = 0.0;        // A^3

  double virial_total() const {
    return virial_pair + virial_bonded + virial_recip;
  }
  /// Pressure in kcal/(mol A^3): P V = (2/3) KE + (1/3) W.
  double pressure() const {
    return volume > 0.0
               ? (2.0 / 3.0 * kinetic + virial_total() / 3.0) / volume
               : 0.0;
  }
  /// Pressure in atmospheres (1 kcal/(mol A^3) = 68568.4 atm).
  double pressure_atm() const { return pressure() * 68568.4; }
};

/// Per-virtual-node workload counters for one time step (or accumulated
/// over several); consumed by the machine performance model.
struct NodeCounters {
  std::int64_t atoms = 0;
  std::int64_t pairs_considered = 0;  // match-unit checks
  std::int64_t ppip_queue = 0;        // passed the low-precision check
  std::int64_t interactions = 0;      // within cutoff, not excluded
  std::int64_t tower_import_atoms = 0;
  std::int64_t plate_import_atoms = 0;
  std::int64_t spread_ops = 0;  // (atom, mesh point) interactions
  std::int64_t interp_ops = 0;
  std::int64_t bond_terms = 0;
  std::int64_t correction_pairs = 0;
  std::int64_t constraint_bonds = 0;

  NodeCounters& operator+=(const NodeCounters& o) {
    atoms += o.atoms;
    pairs_considered += o.pairs_considered;
    ppip_queue += o.ppip_queue;
    interactions += o.interactions;
    tower_import_atoms += o.tower_import_atoms;
    plate_import_atoms += o.plate_import_atoms;
    spread_ops += o.spread_ops;
    interp_ops += o.interp_ops;
    bond_terms += o.bond_terms;
    correction_pairs += o.correction_pairs;
    constraint_bonds += o.constraint_bonds;
    return *this;
  }
};

struct WorkloadProfile {
  std::vector<NodeCounters> nodes;
  /// Steps over which the dynamic counters were accumulated.
  std::int64_t steps_accumulated = 0;

  NodeCounters max_node() const;
  NodeCounters mean_node() const;
};

/// Which mesh-Ewald method evaluates long-range electrostatics.
/// Anton requires GSE (radially symmetric kernels fit the HTIS); the
/// conventional engine defaults to GSE for apples-to-apples numerics but
/// can run SPME, the commodity standard the paper contrasts (Section 3.1).
enum class LongRangeMethod { kGse, kSpme };

/// Simulation parameters common to both engines.
struct SimParams {
  double cutoff = 13.0;  // range-limited cutoff (A)
  // GSE parameters, used as given: GseParams defaults to mesh 32, beta
  // 0.35, sigma_s 1, rs 5 whatever the cutoff. Only a caller that sets
  // gse.mesh = 0 gets them derived from the cutoff and `mesh` below;
  // otherwise `mesh` is ignored (a config setting only mesh = 16 still
  // runs mesh 32).
  ewald::GseParams gse;
  int mesh = 32;  // read only when gse.mesh == 0
  double dt = 2.5;       // fs
  int long_range_every = 2;
  LongRangeMethod long_range = LongRangeMethod::kGse;
  int spme_order = 6;  // B-spline order when long_range == kSpme

  bool thermostat = false;
  double target_temperature = 300.0;  // K
  double berendsen_tau = 1000.0;      // fs

  // Reference-engine pair-loop options (AntonEngine ignores both; its NT
  // pipeline has no pair list and its erfc lives in the tiered tables).
  // A positive skin enables Verlet-list reuse across steps: the list is
  // rebuilt only when some atom has moved more than skin/2 since build.
  double ref_skin = 1.0;       // A; 0 disables list reuse (rebin per call)
  bool ref_erfc_table = true;  // spline erfc in the direct-space sum

  /// Resolves gse from cutoff/mesh when gse.mesh == 0; returns gse
  /// unchanged otherwise (including for the default-constructed gse).
  ewald::GseParams resolved_gse() const {
    if (gse.mesh != 0) return gse;
    return ewald::GseParams::for_cutoff(cutoff, mesh);
  }
};

}  // namespace anton::core
