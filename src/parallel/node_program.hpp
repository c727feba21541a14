// The node program: the per-phase kernels one virtual node executes
// during an MD time step, extracted from AntonEngine so that the
// global-array engine and the message-passing VirtualMachine drive the
// SAME arithmetic.
//
// Every kernel here is a pure function of node-local inputs (lattice
// positions, fixed-point velocities/forces, static topology), and every
// force/energy output is quantized onto the fixed-point grids BEFORE the
// caller accumulates it with wrapping adds. That combination is the whole
// bitwise-parity story: the engine accumulates into per-lane shards over
// global arrays, the VM accumulates into per-node mailboxes over message
// payloads, and because wrapping addition is associative and commutative
// the two runtimes produce identical sums from the identical contribution
// multiset. Tests assert the equality step for step on the golden
// fixtures.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "bonded/bonded.hpp"
#include "ewald/gse.hpp"
#include "ff/topology.hpp"
#include "fixed/fixed.hpp"
#include "fixed/lattice.hpp"
#include "geom/box.hpp"
#include "geom/vec3.hpp"
#include "htis/pair_kernels.hpp"
#include "pairlist/exclusion_table.hpp"
#include "tables/simd.hpp"

namespace anton::parallel {

// Fixed-point scales for the mesh quantities (shared by the engine's
// global mesh and the VM's node-local slabs). Charge densities on the
// mesh are O(0.1) e/A^3; potentials are O(100) kcal/mol/e. Both grids
// leave orders of magnitude of headroom in int64.
inline constexpr double kMeshChargeScale = 1099511627776.0;  // 2^40
inline constexpr double kPhiScale = 4294967296.0;            // 2^32

/// Read-only context a node program runs against: the static replicated
/// data (topology, tables, geometry constants) every node holds a copy of.
/// Positions/velocities/forces are NOT here -- they are the dynamic state
/// the caller owns (global arrays or per-node memories).
struct NodeProgram {
  const Topology* top = nullptr;
  const PeriodicBox* box = nullptr;
  const fixed::PositionLattice* lat = nullptr;
  const htis::PairKernels* kernels = nullptr;
  const pairlist::ExclusionTable* excl = nullptr;
  /// Mesh geometry + k-space kernel; null when the caller only runs
  /// range-limited phases (the legacy VM evaluate() path).
  const ewald::Gse* gse = nullptr;
  ewald::GseParams gse_params;
  std::uint64_t r2_limit_lattice = 0;
  double lat2_to_phys2 = 0.0;  // lattice r^2 -> A^2
  bool have_molecules = false;
};

// ---------------------------------------------------------------------------
// Range-limited pair phase (match unit -> PPIP datapath).
// ---------------------------------------------------------------------------

/// Where a candidate pair exited the datapath; callers attribute their
/// workload counters from this (pairs_considered is counted by the caller,
/// ppip_queue when status != kFailedMatch, interactions when kComputed).
enum class PairStatus { kFailedMatch, kBeyondCutoff, kExcluded, kComputed };

struct PairResult {
  PairStatus status = PairStatus::kFailedMatch;
  std::int32_t lo = 0, hi = 0;  // canonical order: lo < hi
  /// Quantized force on `lo` (the caller wrap-subtracts it from `hi`).
  Vec3l f{0, 0, 0};
  std::int64_t e_lj_q = 0;    // with_energy only
  std::int64_t e_coul_q = 0;  // with_energy only
  std::int64_t virial_q = 0;  // with_energy only
};

/// One candidate pair through the match-unit/PPIP datapath. The pair is
/// reoriented to canonical (lower global index first) order internally, so
/// the quantized force is identical no matter which node or decomposition
/// evaluates the pair.
PairResult eval_pair(const NodeProgram& np, std::int32_t i0, std::int32_t j0,
                     const Vec3i& p0, const Vec3i& p1, bool with_energy);

// ---------------------------------------------------------------------------
// SoA pair-block path: the same datapath over whole bins at once.
// ---------------------------------------------------------------------------

/// Structure-of-arrays view of one bin: atom ids, the three lattice
/// coordinates, and the static per-pair parameters (charge, LJ type) in
/// contiguous lanes. The match unit and exact-cutoff filter then run as
/// flat branch-free loops over these lanes; ids/charges/types are packed
/// once per migration, positions are refreshed in place each pass.
struct BinSoA {
  std::vector<std::int32_t> id;
  std::vector<std::int32_t> x, y, z;
  std::vector<double> charge;
  std::vector<std::int32_t> type;

  std::size_t size() const { return id.size(); }
  bool empty() const { return id.empty(); }
  void clear();
  void reserve(std::size_t n);
  /// Appends atom `a` at lattice position `p` (charge/type from `top`).
  void push_atom(const Topology& top, std::int32_t a, const Vec3i& p);
  /// Overwrites slot `s`'s position lanes (id/charge/type unchanged).
  void set_pos(std::size_t s, const Vec3i& p) {
    x[s] = p.x;
    y[s] = p.y;
    z[s] = p.z;
  }
};

/// Workload counter deltas of one pair block, in the exact semantics of
/// the scalar loop: `considered` counts every tower x plate candidate,
/// `queued` those passing the match unit (including beyond-cutoff and
/// excluded -- they enter the PPIP queue), `computed` the pairs that
/// produced a force.
struct PairBlockCounters {
  std::int64_t considered = 0;
  std::int64_t queued = 0;
  std::int64_t computed = 0;
};

/// One computed pair: quantized force on `lo` (canonical lo < hi; the
/// caller wrap-adds to lo's accumulator and wrap-subtracts from hi's).
struct PairHit {
  std::int32_t lo = 0, hi = 0;
  Vec3l f{0, 0, 0};
};

/// Reusable lane buffers for eval_pair_block (one per engine lane / per
/// worker; never shared across threads).
struct PairBlockScratch {
  std::vector<PairHit> hits;
  // Per-plate-row filter lanes.
  std::vector<unsigned char> match;
  std::vector<std::int32_t> dx, dy, dz;
  // Compacted candidates of the whole block.
  std::vector<std::int32_t> c_lo, c_hi, c_dx, c_dy, c_dz;
  std::vector<double> c_r2, c_qq, c_a, c_b, c_coef;
};

/// Evaluates every tower[a] x plate[b] pair of a bin pair (b starting at
/// a+1 when same_bin) through the match unit -> PPIP datapath, batched:
/// a vectorized filter over the SoA lanes, scalar compaction of the
/// survivors, then one batched table sweep. Forces, counter deltas and
/// hit order are bitwise identical to the scalar eval_pair loop with
/// with_energy = false (the energy path stays scalar). Appends nothing
/// but scr.hits; counters are overwritten.
void eval_pair_block(const NodeProgram& np, const BinSoA& tower,
                     const BinSoA& plate, bool same_bin, PairBlockScratch& scr,
                     PairBlockCounters& counters);

// ---------------------------------------------------------------------------
// Correction pipeline (excluded/scaled pairs).
// ---------------------------------------------------------------------------

struct CorrectionResult {
  /// False for short-range corrections on fully excluded pairs (both
  /// scales zero): nothing to compute, no force.
  bool computed = false;
  Vec3l f{0, 0, 0};  // quantized force on e.i (negate for e.j)
  std::int64_t energy_q = 0;
  std::int64_t virial_q = 0;
};

/// Scaled 1-4 direct-space interaction for one exclusion pair.
CorrectionResult eval_correction_short(const NodeProgram& np,
                                       const ExclusionPair& e, const Vec3i& pi,
                                       const Vec3i& pj, bool with_energy);

/// Reciprocal-space subtraction (-erf term) for one exclusion pair.
CorrectionResult eval_correction_long(const NodeProgram& np,
                                      const ExclusionPair& e, const Vec3i& pi,
                                      const Vec3i& pj, bool with_energy);

// ---------------------------------------------------------------------------
// Bonded terms (bond destinations / geometry cores).
// ---------------------------------------------------------------------------

/// A bonded term's forces quantized onto the fixed force grid, plus the
/// quantized energy/virial contributions.
struct QuantizedTerm {
  int n = 0;
  std::int32_t atom[4] = {0, 0, 0, 0};
  Vec3l f[4] = {};
  std::int64_t energy_q = 0;  // with_energy only
  std::int64_t virial_q = 0;  // with_energy only
};

/// Quantizes an evaluated term. `term_pos[k]` must be the physical
/// position of `t.atom[k]` (lat->to_phys of its lattice position); it is
/// only read for the virial, whose reference is the term's first atom.
QuantizedTerm quantize_term(const NodeProgram& np, const bonded::TermForces& t,
                            const Vec3d* term_pos, bool with_energy);

// ---------------------------------------------------------------------------
// GSE mesh phases (HTIS atom-mesh interactions).
// ---------------------------------------------------------------------------

/// Reusable mesh scratch (one per engine lane / per worker): the per-axis
/// geometry of the current atom's mesh window.
struct MeshScratch {
  ewald::MeshWindow window;
};

namespace detail {

/// Rows of an atom's mesh window, collected into batches for the row
/// kernels (htis::detail::spread_rows / interp_rows).
struct MeshRowBatch {
  static constexpr int kSlots = htis::detail::kBatchSlots;
  ewald::MeshRow rows[kSlots / 4];
  int nrows = 0, slots = 0;

  /// Walks the rows of `r`, in runs of at most kSlots points, calling
  /// flush() whenever the next run would not fit, and once at the end.
  template <typename Flush>
  void walk(const NodeProgram& np, const Vec3d& r, MeshScratch& ms,
            std::int64_t* ops, Flush&& flush) {
    np.gse->for_each_mesh_row(r, ms.window, [&](const ewald::MeshRow& row) {
      if (ops) *ops += row.n;
      for (int k0 = 0; k0 < row.n; k0 += kSlots) {
        const int n = std::min(kSlots, row.n - k0);
        if (slots + htis::detail::round4(n) > kSlots) {
          flush();
          nrows = slots = 0;
        }
        ewald::MeshRow& run = rows[nrows++];
        run = row;
        run.dx += k0;
        run.wx += k0;
        run.n = n;
        slots += htis::detail::round4(n);
      }
    });
    if (nrows) flush();
    nrows = slots = 0;
  }
};

/// spread_atom on one instruction-set clone of the row kernels (`isa`
/// must be supported by the host).
template <typename Sink>
void spread_atom(tables::simd::Isa isa, const NodeProgram& np, double qi,
                 const Vec3d& r, MeshScratch& ms, Sink&& sink,
                 std::int64_t* ops) {
  MeshRowBatch b;
  std::int64_t dq[MeshRowBatch::kSlots];
  b.walk(np, r, ms, ops, [&] {
    htis::detail::spread_rows(isa, *np.kernels, b.rows, b.nrows, qi,
                              kMeshChargeScale, dq);
    const std::int64_t* d = dq;
    for (int i = 0; i < b.nrows; ++i) {
      const ewald::MeshRow& row = b.rows[i];
      for (int k = 0; k < row.n; ++k)
        sink(row.base + static_cast<std::size_t>(row.wx[k]), d[k]);
      d += htis::detail::round4(row.n);
    }
  });
}

/// interpolate_atom on one instruction-set clone of the row kernels.
template <typename PhiQ>
Vec3l interpolate_atom(tables::simd::Isa isa, const NodeProgram& np,
                       double qi, const Vec3d& r, MeshScratch& ms,
                       PhiQ&& phi_q, std::int64_t* ops) {
  const double h3 = std::pow(np.gse->mesh_spacing(), 3);
  const double inv_s2 =
      1.0 / (np.gse_params.sigma_s * np.gse_params.sigma_s);
  const double pref = qi * h3 * inv_s2;
  htis::ForceLanes acc;
  MeshRowBatch b;
  double phi[MeshRowBatch::kSlots];
  b.walk(np, r, ms, ops, [&] {
    double* p = phi;
    for (int i = 0; i < b.nrows; ++i) {
      const ewald::MeshRow& row = b.rows[i];
      for (int k = 0; k < row.n; ++k)
        p[k] = static_cast<double>(
                   phi_q(row.base + static_cast<std::size_t>(row.wx[k]))) /
               kPhiScale;
      for (int k = row.n; k < htis::detail::round4(row.n); ++k) p[k] = 0.0;
      p += htis::detail::round4(row.n);
    }
    htis::detail::interp_rows(isa, *np.kernels, b.rows, b.nrows, phi, pref,
                              fixed::kForceScale, acc);
  });
  return acc.fold();
}

}  // namespace detail

/// Spreads one atom's Gaussian charge onto nearby mesh points.
/// `sink(mesh_index, dq)` receives each quantized contribution; the caller
/// wrap-adds it into whatever storage it owns (lane shard or node slab).
/// Row-fused: each (y, z) row of the mesh window runs the Gaussian table
/// and the charge quantize in vector lanes (htis::detail::spread_rows on
/// the host's best instruction-set clone), and the contributions reach
/// the sink in for_each_mesh_point order, each bitwise what the
/// per-point scalar path produces. `ops`, if non-null, is incremented
/// once per (atom, mesh point) interaction.
template <typename Sink>
void spread_atom(const NodeProgram& np, double qi, const Vec3d& r,
                 MeshScratch& ms, Sink&& sink, std::int64_t* ops = nullptr) {
  detail::spread_atom(tables::simd::active_isa(), np, qi, r, ms, sink, ops);
}

/// Interpolates the mesh force on one atom. `phi_q(mesh_index)` returns
/// the quantized potential at a mesh point (the caller resolves it from
/// its global array or from its halo mailbox); the whole contribution is
/// accumulated locally and returned as one Vec3l. `ops`, if non-null, is
/// incremented once per (atom, mesh point) interaction. Row-fused like
/// spread_atom, with four wrap-add lanes per force component folded at
/// the end: bitwise identical to the per-point path, because the
/// quantized contributions are the same and wrap-adds commute.
template <typename PhiQ>
Vec3l interpolate_atom(const NodeProgram& np, double qi, const Vec3d& r,
                       MeshScratch& ms, PhiQ&& phi_q,
                       std::int64_t* ops = nullptr) {
  return detail::interpolate_atom(tables::simd::active_isa(), np, qi, r, ms,
                                  phi_q, ops);
}

// ---------------------------------------------------------------------------
// Fixed-point integration (kick / drift), per atom.
// ---------------------------------------------------------------------------

/// Per-atom integration coefficients. dv[counts] = F[counts] * kick coef;
/// dx[counts] = v[counts] * drift coef.
struct IntegrationCoefs {
  std::vector<double> kick_short;  // zero for massless virtual sites
  std::vector<double> kick_long;
  Vec3d drift{0, 0, 0};  // lattice counts per velocity count, per axis
};

IntegrationCoefs make_integration_coefs(const Topology& top, double dt,
                                        int long_range_every,
                                        const fixed::PositionLattice& lat);

inline void kick_atom(Vec3l& v, const Vec3l& f, double c) {
  v.x = fixed::wrap_add(v.x, fixed::quantize(static_cast<double>(f.x), c));
  v.y = fixed::wrap_add(v.y, fixed::quantize(static_cast<double>(f.y), c));
  v.z = fixed::wrap_add(v.z, fixed::quantize(static_cast<double>(f.z), c));
}

inline Vec3i drift_atom(const Vec3i& p, const Vec3l& v, const Vec3d& dc) {
  // The lattice step wraps to int32 like the position lattice itself.
  const auto step = [](std::int64_t vi, double c) {
    return static_cast<std::int32_t>(static_cast<std::uint64_t>(
        fixed::quantize(static_cast<double>(vi), c)));
  };
  return {fixed::wrap_add32(p.x, step(v.x, dc.x)),
          fixed::wrap_add32(p.y, step(v.y, dc.y)),
          fixed::wrap_add32(p.z, step(v.z, dc.z))};
}

// ---------------------------------------------------------------------------
// Constraint groups (co-resident units; Section 3.2.4).
// ---------------------------------------------------------------------------

/// SHAKE one co-resident unit after its drift: constrains the post-drift
/// positions against the pre-drift reference, applies the implied velocity
/// correction dv = (constrained - unconstrained)/dt, and re-quantizes the
/// unit onto the lattice. All spans are unit-local arrays parallel to
/// `atoms` (the constraint bonds carry global ids and are remapped
/// internally), so a node can solve a unit it hosts without any global
/// state. Returns false if the solver failed to converge.
bool shake_unit(const NodeProgram& np, std::span<const std::int32_t> atoms,
                std::span<const ConstraintBond> bonds, double dt,
                std::span<const Vec3d> ref, std::span<Vec3d> pos_phys,
                std::span<Vec3i> pos, std::span<Vec3l> vel);

/// RATTLE one unit's velocities against its current positions;
/// re-quantizes every unit atom's velocity. Returns false on
/// non-convergence.
bool rattle_unit(const NodeProgram& np, std::span<const std::int32_t> atoms,
                 std::span<const ConstraintBond> bonds,
                 std::span<const Vec3d> pos_phys, std::span<Vec3l> vel);

// ---------------------------------------------------------------------------
// Virtual sites (massless interaction sites; 4-site water).
// ---------------------------------------------------------------------------

/// r_site = r_o + a (r_h1 + r_h2 - 2 r_o), assembled from minimum-image
/// displacements so molecules straddling the boundary stay intact. A pure
/// function of the parent positions: bitwise decomposition-independent.
inline Vec3i rebuild_virtual_site(const NodeProgram& np, const VirtualSite& v,
                                  const Vec3d& o, const Vec3d& h1,
                                  const Vec3d& h2) {
  const Vec3d d1 = np.box->min_image(h1, o);
  const Vec3d d2 = np.box->min_image(h2, o);
  const Vec3d m = o + (d1 + d2) * v.a;
  return np.lat->to_lattice(m);
}

/// F_o += (1-2a) F_m, F_h += a F_m; the oxygen share is computed as the
/// exact remainder so the redistribution conserves the total force
/// bit-for-bit. `fh` applies to BOTH hydrogens.
struct VsiteForceShare {
  Vec3l fh{0, 0, 0};
  Vec3l fo{0, 0, 0};
};

inline VsiteForceShare split_virtual_site_force(const VirtualSite& v,
                                                const Vec3l& fm) {
  VsiteForceShare s;
  s.fh = {fixed::quantize(static_cast<double>(fm.x) * v.a, 1.0),
          fixed::quantize(static_cast<double>(fm.y) * v.a, 1.0),
          fixed::quantize(static_cast<double>(fm.z) * v.a, 1.0)};
  s.fo = {fixed::wrap_sub(fixed::wrap_sub(fm.x, s.fh.x), s.fh.x),
          fixed::wrap_sub(fixed::wrap_sub(fm.y, s.fh.y), s.fh.y),
          fixed::wrap_sub(fixed::wrap_sub(fm.z, s.fh.z), s.fh.z)};
  return s;
}

// ---------------------------------------------------------------------------
// Thermostat (the one serial double reduction of the cycle).
// ---------------------------------------------------------------------------

/// One atom's m|v|^2 term. The SUM of these is order-sensitive double
/// arithmetic, so both runtimes must add the terms in canonical (global
/// atom index) order -- the engine's loop order, which the VM reproduces
/// with an ordered gather.
inline double kinetic_term(double mass, const Vec3l& v) {
  const Vec3d vp{fixed::vel_to_phys(v.x), fixed::vel_to_phys(v.y),
                 fixed::vel_to_phys(v.z)};
  return mass * vp.norm2();
}

/// Berendsen scale factor from the canonical-order sum of kinetic_term.
double thermostat_lambda(const Topology& top, double mv2_sum, double dt_long,
                         double target_temperature, double tau);

inline void scale_velocity(Vec3l& v, double lambda) {
  v.x = fixed::quantize(static_cast<double>(v.x), lambda);
  v.y = fixed::quantize(static_cast<double>(v.y), lambda);
  v.z = fixed::quantize(static_cast<double>(v.z), lambda);
}

// ---------------------------------------------------------------------------
// Shared structure helpers.
// ---------------------------------------------------------------------------

/// Migration units: constraint groups move as one; all other atoms are
/// singleton units. Unit order follows the lowest atom index so the
/// decomposition is deterministic; `constraints[u]` are the bonds solved
/// on unit u's home node.
struct MigrationUnits {
  std::vector<std::vector<std::int32_t>> atoms;
  std::vector<std::vector<ConstraintBond>> constraints;
};

MigrationUnits build_migration_units(const Topology& top);

/// FNV-1a over the fixed-point state in global atom order: the one hash
/// both runtimes report, equal iff the trajectories are bitwise equal.
std::uint64_t state_hash(std::span<const Vec3i> pos,
                         std::span<const Vec3l> vel);

}  // namespace anton::parallel
