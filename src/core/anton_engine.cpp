#include "core/anton_engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "bonded/bonded.hpp"
#include "constraints/shake.hpp"
#include "ewald/kernels.hpp"
#include "fixed/fixed.hpp"
#include "htis/match_unit.hpp"
#include "integrate/kinetic.hpp"
#include "util/units.hpp"

namespace anton::core {

using parallel::kMeshChargeScale;
using parallel::kPhiScale;

AntonEngine::AntonEngine(System sys, const AntonConfig& cfg)
    : AntonEngine(std::move(sys), cfg,
                  std::make_unique<util::ThreadPool>(cfg.nthreads), nullptr,
                  0) {}

AntonEngine::AntonEngine(System sys, const AntonConfig& cfg,
                         util::ThreadPool& shared_pool, int budget)
    : AntonEngine(std::move(sys), cfg, nullptr, &shared_pool, budget) {}

AntonEngine::AntonEngine(System sys, const AntonConfig& cfg,
                         std::unique_ptr<util::ThreadPool> owned,
                         util::ThreadPool* shared, int budget)
    : sys_(std::move(sys)), cfg_(cfg),
      gse_params_(cfg.sim.resolved_gse()), lat_(sys_.box),
      excl_(sys_.top), owned_pool_(std::move(owned)),
      lanes_(owned_pool_ ? owned_pool_->group(owned_pool_->lanes())
                         : shared->group(budget)) {
  sys_.top.validate();
  if (!sys_.box.is_cubic())
    throw std::invalid_argument("AntonEngine: requires a cubic box");

  const Topology& top = sys_.top;
  const std::int32_t n = top.natoms;

  // Quantize the initial conditions onto the fixed-point grids.
  pos_.resize(n);
  vel_.resize(n);
  for (std::int32_t i = 0; i < n; ++i) {
    pos_[i] = lat_.to_lattice(sys_.positions[i]);
    vel_[i] = {fixed::quantize(sys_.velocities[i].x, fixed::kVelScale),
               fixed::quantize(sys_.velocities[i].y, fixed::kVelScale),
               fixed::quantize(sys_.velocities[i].z, fixed::kVelScale)};
  }
  f_short_.assign(n, {0, 0, 0});
  f_long_.assign(n, {0, 0, 0});
  pos_phys_.resize(n);

  // Integration coefficients. dv[counts] = F[counts] * kick_coef;
  // dx[counts] = v[counts] * drift_coef.
  coefs_ = parallel::make_integration_coefs(top, cfg_.sim.dt,
                                            cfg_.sim.long_range_every, lat_);
  const Vec3d lsb = lat_.lsb();

  // PPIP tables.
  htis::PairKernelParams tp;
  tp.cutoff = cfg_.sim.cutoff;
  tp.beta = gse_params_.beta;
  tp.sigma_s = gse_params_.sigma_s;
  tp.rs = gse_params_.rs;
  tp.mantissa_bits = cfg_.table_mantissa_bits;
  kernels_ = htis::PairKernels(tp, top.lj_types);

  gse_ = std::make_unique<ewald::Gse>(sys_.box, gse_params_);
  mesh_q_.assign(gse_->mesh_total(), 0);
  mesh_phi_.assign(gse_->mesh_total(), 0);
  scratch_q_.assign(gse_->mesh_total(), 0.0);
  scratch_phi_.assign(gse_->mesh_total(), 0.0);

  // Per-lane accumulator shards (wl_shards_ is sized per node count in
  // build_decomposition below).
  const int lanes = lanes_.lanes();
  f_shards_.assign(lanes, std::vector<Vec3l>(n, Vec3l{0, 0, 0}));
  mesh_shards_.assign(lanes,
                      std::vector<std::int64_t>(gse_->mesh_total(), 0));
  acc_shards_.assign(lanes, LaneAccums{});
  pair_scratch_.resize(lanes);
  mesh_scratch_.resize(lanes);

  // Cutoff thresholds in lattice units (cubic box: lsb identical per axis).
  const double cut_lat = cfg_.sim.cutoff / lsb.x;
  r2_limit_lattice_ = static_cast<std::uint64_t>(cut_lat * cut_lat);
  lat2_to_phys2_ = lsb.x * lsb.x;

  np_.top = &sys_.top;
  np_.box = &sys_.box;
  np_.lat = &lat_;
  np_.kernels = &kernels_;
  np_.excl = &excl_;
  np_.gse = gse_.get();
  np_.gse_params = gse_params_;
  np_.r2_limit_lattice = r2_limit_lattice_;
  np_.lat2_to_phys2 = lat2_to_phys2_;
  np_.have_molecules = !top.molecule.empty();

  build_decomposition();
  refresh_phys_positions();
  rebuild_virtual_sites();
  migrate();
  e_self_ = gse_->self_energy(top.charge);

  compute_short_forces(false);
  compute_long_forces(false);
}

void AntonEngine::build_decomposition() {
  nt::NtConfig nc;
  nc.node_grid = cfg_.node_grid;
  nc.subbox_div = cfg_.subbox_div;
  nc.cutoff = cfg_.sim.cutoff;
  nc.margin = cfg_.import_margin;
  nc.box = sys_.box;
  geom_ = std::make_unique<nt::NtGeometry>(nc);

  const Topology& top = sys_.top;
  bins_.assign(geom_->subbox_count(), {});
  assigned_subbox_.assign(top.natoms, 0);

  // Migration units (shared with the VM): constraint groups move as one;
  // all other atoms are singleton units.
  parallel::MigrationUnits mu = parallel::build_migration_units(top);
  units_ = std::move(mu.atoms);
  group_constraints_ = std::move(mu.constraints);

  // Per-node import subbox lists (tower / plate, home subboxes removed),
  // used for the import-volume counters the machine model consumes.
  const std::int64_t nnodes = std::int64_t{1} * cfg_.node_grid.x *
                              cfg_.node_grid.y * cfg_.node_grid.z;
  node_import_subboxes_.assign(nnodes, {});
  std::vector<std::vector<char>> seen(nnodes);
  for (auto& s : seen) s.assign(geom_->subbox_count(), 0);
  for (std::int32_t sb = 0; sb < geom_->subbox_count(); ++sb) {
    const Vec3i h = geom_->coords_of(sb);
    const std::int32_t node = geom_->node_index_of(h);
    auto add = [&](const Vec3i& c) {
      const std::int32_t idx = geom_->index_of(geom_->wrap_coords(c));
      if (seen[node][idx]) return;
      seen[node][idx] = 1;
      if (geom_->node_index_of(geom_->coords_of(idx)) != node)
        node_import_subboxes_[node].push_back(idx);
    };
    for (std::int32_t dz : geom_->tower_dz()) add({h.x, h.y, h.z + dz});
    for (const Vec3i& p : geom_->plate_half())
      add({h.x + p.x, h.y + p.y, h.z});
  }

  workload_.nodes.assign(nnodes, {});
  workload_.steps_accumulated = 0;
  wl_shards_.assign(lanes_.lanes(),
                    std::vector<NodeCounters>(nnodes, NodeCounters{}));
}

void AntonEngine::zero_force_shards() {
  lanes_.run_lanes([&](int lane) {
    std::fill(f_shards_[lane].begin(), f_shards_[lane].end(),
              Vec3l{0, 0, 0});
    acc_shards_[lane] = LaneAccums{};
  });
}

void AntonEngine::reduce_force_shards(std::vector<Vec3l>& into) {
  // Each destination atom is reduced by exactly one lane; wrapping adds
  // make the sum independent of shard order.
  lanes_.parallel_for(
      static_cast<std::int64_t>(into.size()),
      [&](int, std::int64_t a0, std::int64_t a1) {
        for (std::int64_t i = a0; i < a1; ++i) {
          Vec3l s{0, 0, 0};
          for (const auto& fsh : f_shards_) {
            s.x = fixed::wrap_add(s.x, fsh[i].x);
            s.y = fixed::wrap_add(s.y, fsh[i].y);
            s.z = fixed::wrap_add(s.z, fsh[i].z);
          }
          into[i] = s;
        }
      });
}

void AntonEngine::reduce_energy_shards() {
  for (LaneAccums& a : acc_shards_) {
    e_lj_acc_.add(a.lj.value());
    e_coul_acc_.add(a.coul.value());
    e_bonded_acc_.add(a.bonded.value());
    e_corr_acc_.add(a.corr.value());
    w_pair_acc_.add(a.w_pair.value());
    w_bonded_acc_.add(a.w_bonded.value());
    a = LaneAccums{};
  }
}

void AntonEngine::set_metrics(obs::MetricsRegistry* m) {
  if (m && m->lanes() < lanes_.lanes())
    throw std::invalid_argument(
        "AntonEngine::set_metrics: registry has fewer lanes than the "
        "engine's thread pool");
  metrics_ = m;
  if (!m) return;
  mid_.steps = m->counter("engine.steps");
  mid_.cycles = m->counter("engine.mts_cycles");
  mid_.migrations = m->counter("engine.migrations");
  mid_.lane_chunks = m->counter("engine.lane_chunks");
  mid_.pairs_considered = m->counter("engine.pairs_considered");
  mid_.ppip_queue = m->counter("engine.ppip_queue");
  mid_.interactions = m->counter("engine.interactions");
  mid_.spread_ops = m->counter("engine.spread_ops");
  mid_.interp_ops = m->counter("engine.interp_ops");
  mid_.bond_terms = m->counter("engine.bond_terms");
  mid_.correction_pairs = m->counter("engine.correction_pairs");
}

void AntonEngine::flush_counter_shards() {
  // Single source of truth: the metrics registry's per-phase counters are
  // published from the exact same lane shards the workload profile
  // aggregates, at the same (serial) flush point.
  NodeCounters delta;
  for (auto& lane : wl_shards_) {
    for (std::size_t node = 0; node < lane.size(); ++node) {
      delta += lane[node];
      workload_.nodes[node] += lane[node];
      lane[node] = NodeCounters{};
    }
  }
  if (metrics_) {
    metrics_->count(mid_.pairs_considered, 0, delta.pairs_considered);
    metrics_->count(mid_.ppip_queue, 0, delta.ppip_queue);
    metrics_->count(mid_.interactions, 0, delta.interactions);
    metrics_->count(mid_.spread_ops, 0, delta.spread_ops);
    metrics_->count(mid_.interp_ops, 0, delta.interp_ops);
    metrics_->count(mid_.bond_terms, 0, delta.bond_terms);
    metrics_->count(mid_.correction_pairs, 0, delta.correction_pairs);
  }
}

void AntonEngine::refresh_phys_positions() {
  for (std::size_t i = 0; i < pos_.size(); ++i)
    pos_phys_[i] = lat_.to_phys(pos_[i]);
}

void AntonEngine::rebuild_virtual_sites() {
  // r_site = r_o + a (r_h1 + r_h2 - 2 r_o), assembled from minimum-image
  // displacements so molecules straddling the boundary stay intact. A pure
  // function of the parent lattice positions: bitwise decomposition-
  // independent.
  for (const VirtualSite& v : sys_.top.virtual_sites) {
    pos_[v.site] = parallel::rebuild_virtual_site(
        np_, v, pos_phys_[v.o], pos_phys_[v.h1], pos_phys_[v.h2]);
    pos_phys_[v.site] = lat_.to_phys(pos_[v.site]);
    vel_[v.site] = {0, 0, 0};
  }
}

void AntonEngine::redistribute_virtual_site_forces(std::vector<Vec3l>& f) {
  // F_o += (1-2a) F_m, F_h += a F_m; the oxygen share is computed as the
  // exact remainder so the redistribution conserves the total force
  // bit-for-bit.
  for (const VirtualSite& v : sys_.top.virtual_sites) {
    const parallel::VsiteForceShare s =
        parallel::split_virtual_site_force(v, f[v.site]);
    f[v.h1].x = fixed::wrap_add(f[v.h1].x, s.fh.x);
    f[v.h1].y = fixed::wrap_add(f[v.h1].y, s.fh.y);
    f[v.h1].z = fixed::wrap_add(f[v.h1].z, s.fh.z);
    f[v.h2].x = fixed::wrap_add(f[v.h2].x, s.fh.x);
    f[v.h2].y = fixed::wrap_add(f[v.h2].y, s.fh.y);
    f[v.h2].z = fixed::wrap_add(f[v.h2].z, s.fh.z);
    f[v.o].x = fixed::wrap_add(f[v.o].x, s.fo.x);
    f[v.o].y = fixed::wrap_add(f[v.o].y, s.fo.y);
    f[v.o].z = fixed::wrap_add(f[v.o].z, s.fo.z);
    f[v.site] = {0, 0, 0};
  }
}

void AntonEngine::migrate() {
  for (auto& b : bins_) b.clear();
  for (const auto& unit : units_) {
    const Vec3i sb = geom_->subbox_of(pos_phys_[unit[0]]);
    const std::int32_t idx = geom_->index_of(sb);
    for (std::int32_t a : unit) {
      assigned_subbox_[a] = idx;
      bins_[idx].push_back(a);
    }
  }
  // Keep bin contents sorted by atom index: deterministic and independent
  // of unit enumeration order.
  for (auto& b : bins_) std::sort(b.begin(), b.end());
  pack_bin_soa();
}

void AntonEngine::pack_bin_soa() {
  bin_soa_.resize(bins_.size());
  for (std::size_t sb = 0; sb < bins_.size(); ++sb) {
    parallel::BinSoA& s = bin_soa_[sb];
    s.clear();
    s.reserve(bins_[sb].size());
    for (std::int32_t a : bins_[sb]) s.push_atom(sys_.top, a, pos_[a]);
  }
}

void AntonEngine::refresh_bin_soa_positions() {
  lanes_.parallel_for(
      static_cast<std::int64_t>(bins_.size()),
      [&](int, std::int64_t lo, std::int64_t hi) {
        for (std::int64_t sb = lo; sb < hi; ++sb) {
          parallel::BinSoA& s = bin_soa_[sb];
          const auto& ids = bins_[sb];
          for (std::size_t k = 0; k < ids.size(); ++k)
            s.set_pos(k, pos_[ids[k]]);
        }
      });
}

void AntonEngine::range_limited_pass(bool with_energy) {
  // Parallel over home subboxes. Each lane owns a force shard, a counter
  // shard and an energy shard; a pair's quantized force is a pure function
  // of the two lattice positions, so which lane computes it cannot change
  // the value, and the wrapping shard reduction cannot change the sum.
  //
  // The stepping path (with_energy == false, gated by the golden
  // fixtures) runs the SoA block datapath: positions refreshed into the
  // bin lanes, then eval_pair_block per (tower, plate) bin pair -- bitwise
  // identical to the scalar loop. The energy path (measure_energy only)
  // keeps the scalar per-pair loop, which also evaluates energy tables.
  if (!with_energy) refresh_bin_soa_positions();
  const std::int64_t nsub = geom_->subbox_count();
  lanes_.parallel_for(nsub, [&](int lane, std::int64_t h0, std::int64_t h1) {
    // Lane-tagged, lock-free: each lane writes only its own registry
    // shard, reduced at the next flush (never on the hot pair path).
    if (metrics_) metrics_->count(mid_.lane_chunks, lane, 1);
    std::vector<Vec3l>& fsh = f_shards_[lane];
    LaneAccums& acc = acc_shards_[lane];
    for (std::int64_t hidx = h0; hidx < h1; ++hidx) {
      const Vec3i h = geom_->coords_of(static_cast<std::int32_t>(hidx));
      NodeCounters& nc = wl_shards_[lane][geom_->node_index_of(h)];
      for (std::int32_t dz : geom_->tower_dz()) {
        const std::int32_t tidx =
            geom_->index_of(geom_->wrap_coords({h.x, h.y, h.z + dz}));
        const auto& tower = bins_[tidx];
        if (tower.empty()) continue;
        for (const Vec3i& poff : geom_->plate_half()) {
          if (!geom_->owns_pair(h, dz, poff)) continue;
          const std::int32_t pidx = geom_->index_of(
              geom_->wrap_coords({h.x + poff.x, h.y + poff.y, h.z}));
          const auto& plate = bins_[pidx];
          if (plate.empty()) continue;
          const bool same = tidx == pidx;
          if (!with_energy) {
            parallel::PairBlockCounters pc;
            parallel::eval_pair_block(np_, bin_soa_[tidx], bin_soa_[pidx],
                                      same, pair_scratch_[lane], pc);
            nc.pairs_considered += pc.considered;
            nc.ppip_queue += pc.queued;
            nc.interactions += pc.computed;
            for (const parallel::PairHit& ph : pair_scratch_[lane].hits) {
              fsh[ph.lo].x = fixed::wrap_add(fsh[ph.lo].x, ph.f.x);
              fsh[ph.lo].y = fixed::wrap_add(fsh[ph.lo].y, ph.f.y);
              fsh[ph.lo].z = fixed::wrap_add(fsh[ph.lo].z, ph.f.z);
              fsh[ph.hi].x = fixed::wrap_sub(fsh[ph.hi].x, ph.f.x);
              fsh[ph.hi].y = fixed::wrap_sub(fsh[ph.hi].y, ph.f.y);
              fsh[ph.hi].z = fixed::wrap_sub(fsh[ph.hi].z, ph.f.z);
            }
            continue;
          }
          for (std::size_t a = 0; a < tower.size(); ++a) {
            const std::int32_t i0 = tower[a];
            const Vec3i pi = pos_[i0];
            const std::size_t b0 = same ? a + 1 : 0;
            for (std::size_t b = b0; b < plate.size(); ++b) {
              const std::int32_t j0 = plate[b];
              ++nc.pairs_considered;
              const parallel::PairResult pr = parallel::eval_pair(
                  np_, i0, j0, pi, pos_[j0], with_energy);
              if (pr.status == parallel::PairStatus::kFailedMatch) continue;
              ++nc.ppip_queue;
              if (pr.status != parallel::PairStatus::kComputed) continue;
              ++nc.interactions;
              fsh[pr.lo].x = fixed::wrap_add(fsh[pr.lo].x, pr.f.x);
              fsh[pr.lo].y = fixed::wrap_add(fsh[pr.lo].y, pr.f.y);
              fsh[pr.lo].z = fixed::wrap_add(fsh[pr.lo].z, pr.f.z);
              fsh[pr.hi].x = fixed::wrap_sub(fsh[pr.hi].x, pr.f.x);
              fsh[pr.hi].y = fixed::wrap_sub(fsh[pr.hi].y, pr.f.y);
              fsh[pr.hi].z = fixed::wrap_sub(fsh[pr.hi].z, pr.f.z);
              if (with_energy) {
                acc.coul.add(pr.e_coul_q);
                acc.lj.add(pr.e_lj_q);
                acc.w_pair.add(pr.virial_q);
              }
            }
          }
        }
      }
    }
  });
}

void AntonEngine::bonded_pass(bool with_energy) {
  const Topology& top = sys_.top;
  // Parallel over bond destinations: each term's quantized forces are a
  // pure function of its atoms' positions and land in the evaluating
  // lane's shard, so the totals are lane-count invariant.
  auto apply = [&](const bonded::TermForces& t, int lane,
                   std::int32_t dest_atom) {
    NodeCounters& nc = wl_shards_[lane][geom_->node_index_of(
        geom_->coords_of(assigned_subbox_[dest_atom]))];
    ++nc.bond_terms;
    LaneAccums& acc = acc_shards_[lane];
    Vec3d tp[4];
    for (int i = 0; i < t.n; ++i) tp[i] = pos_phys_[t.atom[i]];
    const parallel::QuantizedTerm qt =
        parallel::quantize_term(np_, t, tp, with_energy);
    if (with_energy) acc.w_bonded.add(qt.virial_q);
    std::vector<Vec3l>& fsh = f_shards_[lane];
    for (int i = 0; i < qt.n; ++i) {
      Vec3l& f = fsh[qt.atom[i]];
      f.x = fixed::wrap_add(f.x, qt.f[i].x);
      f.y = fixed::wrap_add(f.y, qt.f[i].y);
      f.z = fixed::wrap_add(f.z, qt.f[i].z);
    }
    if (with_energy) acc.bonded.add(qt.energy_q);
  };
  lanes_.parallel_for(
      static_cast<std::int64_t>(top.bonds.size()),
      [&](int lane, std::int64_t k0, std::int64_t k1) {
        for (std::int64_t k = k0; k < k1; ++k) {
          const BondTerm& b = top.bonds[k];
          apply(bonded::eval_bond(b, pos_phys_, sys_.box), lane, b.i);
        }
      });
  lanes_.parallel_for(
      static_cast<std::int64_t>(top.angles.size()),
      [&](int lane, std::int64_t k0, std::int64_t k1) {
        for (std::int64_t k = k0; k < k1; ++k) {
          const AngleTerm& a = top.angles[k];
          apply(bonded::eval_angle(a, pos_phys_, sys_.box), lane, a.i);
        }
      });
  lanes_.parallel_for(
      static_cast<std::int64_t>(top.dihedrals.size()),
      [&](int lane, std::int64_t k0, std::int64_t k1) {
        for (std::int64_t k = k0; k < k1; ++k) {
          const DihedralTerm& d = top.dihedrals[k];
          apply(bonded::eval_dihedral(d, pos_phys_, sys_.box), lane, d.i);
        }
      });
}

void AntonEngine::correction_short_pass(bool with_energy) {
  // Scaled 1-4 interactions: the stiff, every-step half of the correction
  // pipeline's work. Parallel over exclusion pairs, sharded like the
  // range-limited pass.
  const Topology& top = sys_.top;
  lanes_.parallel_for(
      static_cast<std::int64_t>(top.exclusions.size()),
      [&](int lane, std::int64_t k0, std::int64_t k1) {
        std::vector<Vec3l>& fsh = f_shards_[lane];
        LaneAccums& acc = acc_shards_[lane];
        for (std::int64_t k = k0; k < k1; ++k) {
          const ExclusionPair& e = top.exclusions[k];
          const parallel::CorrectionResult cr = parallel::eval_correction_short(
              np_, e, pos_[e.i], pos_[e.j], with_energy);
          if (!cr.computed) continue;
          fsh[e.i].x = fixed::wrap_add(fsh[e.i].x, cr.f.x);
          fsh[e.i].y = fixed::wrap_add(fsh[e.i].y, cr.f.y);
          fsh[e.i].z = fixed::wrap_add(fsh[e.i].z, cr.f.z);
          fsh[e.j].x = fixed::wrap_sub(fsh[e.j].x, cr.f.x);
          fsh[e.j].y = fixed::wrap_sub(fsh[e.j].y, cr.f.y);
          fsh[e.j].z = fixed::wrap_sub(fsh[e.j].z, cr.f.z);
          if (with_energy) {
            acc.corr.add(cr.energy_q);
            acc.w_pair.add(cr.virial_q);
          }
        }
      });
}

void AntonEngine::correction_long_pass(bool with_energy) {
  // Reciprocal-space subtraction (-erf terms) for every excluded pair;
  // parallel over exclusion pairs.
  const Topology& top = sys_.top;
  lanes_.parallel_for(
      static_cast<std::int64_t>(top.exclusions.size()),
      [&](int lane, std::int64_t k0, std::int64_t k1) {
        std::vector<Vec3l>& fsh = f_shards_[lane];
        LaneAccums& acc = acc_shards_[lane];
        for (std::int64_t k = k0; k < k1; ++k) {
          const ExclusionPair& e = top.exclusions[k];
          NodeCounters& nc = wl_shards_[lane][geom_->node_index_of(
              geom_->coords_of(assigned_subbox_[e.i]))];
          ++nc.correction_pairs;
          const parallel::CorrectionResult cr = parallel::eval_correction_long(
              np_, e, pos_[e.i], pos_[e.j], with_energy);
          fsh[e.i].x = fixed::wrap_add(fsh[e.i].x, cr.f.x);
          fsh[e.i].y = fixed::wrap_add(fsh[e.i].y, cr.f.y);
          fsh[e.i].z = fixed::wrap_add(fsh[e.i].z, cr.f.z);
          fsh[e.j].x = fixed::wrap_sub(fsh[e.j].x, cr.f.x);
          fsh[e.j].y = fixed::wrap_sub(fsh[e.j].y, cr.f.y);
          fsh[e.j].z = fixed::wrap_sub(fsh[e.j].z, cr.f.z);
          if (with_energy) {
            acc.corr.add(cr.energy_q);
            acc.w_pair.add(cr.virial_q);
          }
        }
      });
}

void AntonEngine::mesh_pass(bool with_energy) {
  (void)with_energy;  // reciprocal energy is a by-product of the convolve
  const Topology& top = sys_.top;
  const std::int64_t mesh_total =
      static_cast<std::int64_t>(mesh_q_.size());

  // Charge spreading: HTIS atom-mesh interactions through the Gaussian
  // table; each contribution quantized, accumulated with wrapping adds
  // into per-lane mesh shards so the mesh is bitwise independent of
  // traversal order AND of which lane spread which atom.
  if (tracer_) tracer_->begin("gse.spread");
  lanes_.run_lanes([&](int lane) {
    std::fill(mesh_shards_[lane].begin(), mesh_shards_[lane].end(), 0);
  });
  lanes_.parallel_for(
      top.natoms, [&](int lane, std::int64_t i0, std::int64_t i1) {
        std::vector<std::int64_t>& msh = mesh_shards_[lane];
        for (std::int64_t i = i0; i < i1; ++i) {
          const double qi = top.charge[i];
          if (qi == 0.0) continue;
          NodeCounters& nc = wl_shards_[lane][geom_->node_index_of(
              geom_->coords_of(assigned_subbox_[i]))];
          parallel::spread_atom(
              np_, qi, pos_phys_[i], mesh_scratch_[lane],
              [&](std::size_t idx, std::int64_t dq) {
                msh[idx] = fixed::wrap_add(msh[idx], dq);
              },
              &nc.spread_ops);
        }
      });
  // Mesh-slab reduction: each lane reduces a disjoint slab of mesh points
  // across all shards (wrap adds: shard order is irrelevant).
  lanes_.parallel_for(mesh_total,
                     [&](int, std::int64_t m0, std::int64_t m1) {
                       for (std::int64_t m = m0; m < m1; ++m) {
                         std::int64_t s = 0;
                         for (const auto& msh : mesh_shards_)
                           s = fixed::wrap_add(s, msh[m]);
                         mesh_q_[m] = s;
                         scratch_q_[m] =
                             static_cast<double>(s) / kMeshChargeScale;
                       }
                     });
  if (tracer_) tracer_->end();  // gse.spread

  // FFT + k-space convolution (geometry cores / flexible subsystem): the
  // canonical line-ordered transform, bitwise identical on any node
  // decomposition; result quantized back onto the fixed phi grid. Kept
  // serial: the transform's value is already decomposition-invariant.
  if (tracer_) tracer_->begin("gse.fft");
  e_recip_ = gse_->convolve(scratch_q_, scratch_phi_);
  lanes_.parallel_for(mesh_total,
                     [&](int, std::int64_t m0, std::int64_t m1) {
                       for (std::int64_t m = m0; m < m1; ++m)
                         mesh_phi_[m] =
                             fixed::quantize(scratch_phi_[m], kPhiScale);
                     });
  if (tracer_) tracer_->end();  // gse.fft

  // Force interpolation: the mirrored atom-mesh interaction. Atoms are
  // partitioned disjointly, and each atom's whole contribution is
  // accumulated locally, so lanes write disjoint shard entries.
  obs::Tracer::Span interp_span(tracer_, "gse.interpolate");
  lanes_.parallel_for(
      top.natoms, [&](int lane, std::int64_t i0, std::int64_t i1) {
        std::vector<Vec3l>& fsh = f_shards_[lane];
        for (std::int64_t i = i0; i < i1; ++i) {
          const double qi = top.charge[i];
          if (qi == 0.0) continue;
          NodeCounters& nc = wl_shards_[lane][geom_->node_index_of(
              geom_->coords_of(assigned_subbox_[i]))];
          const Vec3l acc = parallel::interpolate_atom(
              np_, qi, pos_phys_[i], mesh_scratch_[lane],
              [&](std::size_t idx) { return mesh_phi_[idx]; },
              &nc.interp_ops);
          fsh[i].x = fixed::wrap_add(fsh[i].x, acc.x);
          fsh[i].y = fixed::wrap_add(fsh[i].y, acc.y);
          fsh[i].z = fixed::wrap_add(fsh[i].z, acc.z);
        }
      });
}

void AntonEngine::compute_short_forces(bool with_energy) {
  if (with_energy) {
    e_lj_acc_.reset();
    e_coul_acc_.reset();
    e_bonded_acc_.reset();
    e_corr_acc_.reset();
    w_pair_acc_ = fixed::Accum128{};
    w_bonded_acc_ = fixed::Accum128{};
  }
  zero_force_shards();
  {
    obs::Tracer::Span sp(tracer_, "range_limited");
    range_limited_pass(with_energy);
  }
  {
    obs::Tracer::Span sp(tracer_, "bonded");
    bonded_pass(with_energy);
  }
  {
    obs::Tracer::Span sp(tracer_, "correction");
    correction_short_pass(with_energy);
  }
  obs::Tracer::Span sp(tracer_, "force_reduce");
  reduce_force_shards(f_short_);
  if (with_energy) reduce_energy_shards();
  flush_counter_shards();
  redistribute_virtual_site_forces(f_short_);
}

void AntonEngine::compute_long_forces(bool with_energy) {
  zero_force_shards();
  mesh_pass(with_energy);
  {
    obs::Tracer::Span sp(tracer_, "correction");
    correction_long_pass(with_energy);
  }
  obs::Tracer::Span sp(tracer_, "force_reduce");
  reduce_force_shards(f_long_);
  if (with_energy) reduce_energy_shards();
  flush_counter_shards();
  redistribute_virtual_site_forces(f_long_);
}

void AntonEngine::kick(const std::vector<Vec3l>& f, bool long_kick) {
  const auto& coef = long_kick ? coefs_.kick_long : coefs_.kick_short;
  for (std::size_t i = 0; i < vel_.size(); ++i)
    parallel::kick_atom(vel_[i], f[i], coef[i]);
}

void AntonEngine::drift_and_constrain() {
  const Topology& top = sys_.top;
  const bool constrained = !top.constraints.empty();
  std::vector<Vec3d> ref;
  if (constrained) ref = pos_phys_;

  for (std::size_t i = 0; i < pos_.size(); ++i)
    pos_[i] = parallel::drift_atom(pos_[i], vel_[i], coefs_.drift);
  refresh_phys_positions();

  if (constrained) {
    // Unit-local gather/scatter around shake_unit. Constraint groups are
    // disjoint, so the unit-local views read exactly the doubles a global
    // solve would read: bitwise-neutral, and identical to what a VM node
    // computes for a co-resident unit it hosts.
    std::vector<Vec3d> uref, upos;
    std::vector<Vec3i> ulat;
    std::vector<Vec3l> uvel;
    for (std::size_t g = 0; g < units_.size(); ++g) {
      if (group_constraints_[g].empty()) continue;
      const auto& unit = units_[g];
      const std::size_t n = unit.size();
      uref.resize(n);
      upos.resize(n);
      ulat.resize(n);
      uvel.resize(n);
      for (std::size_t k = 0; k < n; ++k) {
        uref[k] = ref[unit[k]];
        upos[k] = pos_phys_[unit[k]];
        ulat[k] = pos_[unit[k]];
        uvel[k] = vel_[unit[k]];
      }
      if (!parallel::shake_unit(np_, unit, group_constraints_[g], cfg_.sim.dt,
                                uref, upos, ulat, uvel))
        throw std::runtime_error("AntonEngine: SHAKE failed to converge");
      for (std::size_t k = 0; k < n; ++k) {
        pos_phys_[unit[k]] = upos[k];
        pos_[unit[k]] = ulat[k];
        vel_[unit[k]] = uvel[k];
      }
    }
  }
}

void AntonEngine::finish_drift() { rebuild_virtual_sites(); }

void AntonEngine::rattle_groups() {
  if (sys_.top.constraints.empty()) return;
  std::vector<Vec3d> upos;
  std::vector<Vec3l> uvel;
  for (std::size_t g = 0; g < units_.size(); ++g) {
    if (group_constraints_[g].empty()) continue;
    const auto& unit = units_[g];
    const std::size_t n = unit.size();
    upos.resize(n);
    uvel.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
      upos[k] = pos_phys_[unit[k]];
      uvel[k] = vel_[unit[k]];
    }
    if (!parallel::rattle_unit(np_, unit, group_constraints_[g], upos, uvel))
      throw std::runtime_error("AntonEngine: RATTLE failed to converge");
    for (std::size_t k = 0; k < n; ++k) vel_[unit[k]] = uvel[k];
  }
}

void AntonEngine::apply_thermostat() {
  const Topology& top = sys_.top;
  // Kinetic energy in a canonical (atom-index) order: deterministic and
  // decomposition-independent.
  double mv2 = 0.0;
  for (std::size_t i = 0; i < vel_.size(); ++i)
    mv2 += parallel::kinetic_term(top.mass[i], vel_[i]);
  const int k = std::max(1, cfg_.sim.long_range_every);
  const double lambda =
      parallel::thermostat_lambda(top, mv2, k * cfg_.sim.dt,
                                  cfg_.sim.target_temperature,
                                  cfg_.sim.berendsen_tau);
  for (auto& v : vel_) parallel::scale_velocity(v, lambda);
}

void AntonEngine::run_cycles(int ncycles) {
  const int k = std::max(1, cfg_.sim.long_range_every);
  for (int c = 0; c < ncycles; ++c) {
    // All spans begin/end on this thread in program order: the span
    // sequence is deterministic and independent of nthreads.
    obs::Tracer::Span cycle_span(tracer_, "mts_cycle");
    if (cfg_.migration_interval > 0 &&
        steps_ % cfg_.migration_interval == 0) {
      obs::Tracer::Span sp(tracer_, "migrate");
      migrate();
      if (metrics_) metrics_->count(mid_.migrations, 0, 1);
    }
    {
      obs::Tracer::Span sp(tracer_, "integrate");
      kick(f_long_, true);
    }
    for (int s = 0; s < k; ++s) {
      obs::Tracer::Span step_span(tracer_, "step");
      {
        obs::Tracer::Span sp(tracer_, "integrate");
        kick(f_short_, false);
        drift_and_constrain();
        finish_drift();
      }
      compute_short_forces(false);
      {
        obs::Tracer::Span sp(tracer_, "integrate");
        kick(f_short_, false);
        rattle_groups();
      }
      ++steps_;
      ++workload_.steps_accumulated;
      if (metrics_) metrics_->count(mid_.steps, 0, 1);
    }
    compute_long_forces(false);
    {
      obs::Tracer::Span sp(tracer_, "integrate");
      kick(f_long_, true);
      rattle_groups();
      if (cfg_.sim.thermostat) apply_thermostat();
    }
    if (metrics_) {
      metrics_->count(mid_.cycles, 0, 1);
      metrics_->flush();  // step-boundary shard reduction
    }
  }
  // The tracer carries the measured counters to the perf model
  // (obs::cross_validate); snapshot them exactly as workload() reports.
  if (tracer_ && ncycles > 0) tracer_->capture_workload(workload());
}

std::vector<Vec3d> AntonEngine::positions() const {
  std::vector<Vec3d> out(pos_.size());
  for (std::size_t i = 0; i < pos_.size(); ++i) out[i] = lat_.to_phys(pos_[i]);
  return out;
}

std::vector<Vec3d> AntonEngine::velocities() const {
  std::vector<Vec3d> out(vel_.size());
  for (std::size_t i = 0; i < vel_.size(); ++i)
    out[i] = {fixed::vel_to_phys(vel_[i].x), fixed::vel_to_phys(vel_[i].y),
              fixed::vel_to_phys(vel_[i].z)};
  return out;
}

std::uint64_t AntonEngine::state_hash() const {
  return parallel::state_hash(pos_, vel_);
}

void AntonEngine::negate_velocities() {
  for (auto& v : vel_) {
    v.x = fixed::wrap_sub(0, v.x);
    v.y = fixed::wrap_sub(0, v.y);
    v.z = fixed::wrap_sub(0, v.z);
  }
}

std::vector<Vec3d> AntonEngine::compute_forces_now() {
  compute_short_forces(false);
  compute_long_forces(false);
  std::vector<Vec3d> out(pos_.size());
  for (std::size_t i = 0; i < pos_.size(); ++i) {
    out[i] = {
        fixed::force_to_phys(fixed::wrap_add(f_short_[i].x, f_long_[i].x)),
        fixed::force_to_phys(fixed::wrap_add(f_short_[i].y, f_long_[i].y)),
        fixed::force_to_phys(fixed::wrap_add(f_short_[i].z, f_long_[i].z))};
  }
  return out;
}

EnergyReport AntonEngine::measure_energy() {
  compute_short_forces(true);
  compute_long_forces(true);
  EnergyReport r;
  r.bonded = fixed::energy_to_phys(e_bonded_acc_.value());
  r.lj = fixed::energy_to_phys(e_lj_acc_.value());
  r.coul_direct = fixed::energy_to_phys(e_coul_acc_.value());
  r.coul_recip = e_recip_;
  r.coul_self = e_self_;
  r.correction = fixed::energy_to_phys(e_corr_acc_.value());
  const Topology& top = sys_.top;
  double ke = 0.0;
  for (std::size_t i = 0; i < vel_.size(); ++i) {
    const Vec3d v{fixed::vel_to_phys(vel_[i].x), fixed::vel_to_phys(vel_[i].y),
                  fixed::vel_to_phys(vel_[i].z)};
    ke += top.mass[i] * v.norm2();
  }
  r.kinetic = 0.5 * ke / units::kForceToAccel;
  r.temperature =
      integrate::temperature(r.kinetic, top.degrees_of_freedom());
  return r;
}

PressureReport AntonEngine::measure_pressure() {
  compute_short_forces(true);
  compute_long_forces(true);
  PressureReport r;
  r.volume = sys_.box.volume();
  r.virial_pair = w_pair_acc_.to_double() / fixed::kVirialScale;
  r.virial_bonded = w_bonded_acc_.to_double() / fixed::kVirialScale;

  // Reciprocal-space virial: W_rec = -3 V dE_rec/dV, via a symmetric
  // volume perturbation with atoms at fixed fractional coordinates. Pure
  // double-precision function of the state: deterministic.
  const double delta = 1e-4;
  const Topology& top = sys_.top;
  auto recip_energy_at = [&](double lambda) {
    const PeriodicBox scaled_box(sys_.box.side().x * lambda);
    ewald::GseParams gp = gse_params_;
    ewald::Gse gse(scaled_box, gp);
    std::vector<Vec3d> scaled(pos_phys_.size());
    for (std::size_t i = 0; i < scaled.size(); ++i)
      scaled[i] = pos_phys_[i] * lambda;
    std::vector<double> Q(gse.mesh_total(), 0.0), phi(gse.mesh_total(), 0.0);
    gse.spread(scaled, top.charge, Q);
    double e = gse.convolve(Q, phi);
    // Exclusion corrections and self energy also depend on the geometry.
    for (const ExclusionPair& ex : top.exclusions) {
      const Vec3d dr = scaled_box.min_image(scaled[ex.i], scaled[ex.j]);
      e -= top.charge[ex.i] * top.charge[ex.j] *
           ewald::coul_recip_energy(dr.norm(), gp.beta);
    }
    return e;
  };
  const double e_plus = recip_energy_at(1.0 + delta);
  const double e_minus = recip_energy_at(1.0 - delta);
  const double V = r.volume;
  const double dV = V * (std::pow(1.0 + delta, 3) - std::pow(1.0 - delta, 3));
  r.virial_recip = -3.0 * V * (e_plus - e_minus) / dV;
  // The pairwise -erf corrections were already counted in virial_pair;
  // remove their double-counted share from the perturbation estimate.
  // (recip_energy_at included them so the derivative is of the full
  // reciprocal class; subtract the pair part measured exactly above.)
  double w_corr_pair = 0.0;
  for (const ExclusionPair& ex : top.exclusions) {
    const Vec3i d = fixed::PositionLattice::delta(pos_[ex.i], pos_[ex.j]);
    const Vec3d drp = lat_.delta_to_phys(d);
    const double rr = drp.norm();
    w_corr_pair += -top.charge[ex.i] * top.charge[ex.j] *
                   ewald::coul_recip_force(rr, gse_params_.beta) * rr * rr;
  }
  r.virial_recip -= w_corr_pair;

  double ke = 0.0;
  for (std::size_t i = 0; i < vel_.size(); ++i) {
    const Vec3d v{fixed::vel_to_phys(vel_[i].x), fixed::vel_to_phys(vel_[i].y),
                  fixed::vel_to_phys(vel_[i].z)};
    ke += top.mass[i] * v.norm2();
  }
  r.kinetic = 0.5 * ke / units::kForceToAccel;
  return r;
}

const WorkloadProfile& AntonEngine::workload() {
  // Refresh the per-node snapshots (atoms, imports, static term counts are
  // instantaneous; the dynamic counters accumulated over
  // steps_accumulated inner steps).
  for (auto& nc : workload_.nodes) {
    nc.atoms = 0;
    nc.tower_import_atoms = 0;
    nc.plate_import_atoms = 0;
    nc.constraint_bonds = 0;
  }
  for (std::int32_t sb = 0; sb < geom_->subbox_count(); ++sb) {
    const std::int32_t node = geom_->node_index_of(geom_->coords_of(sb));
    workload_.nodes[node].atoms +=
        static_cast<std::int64_t>(bins_[sb].size());
  }
  for (std::size_t node = 0; node < node_import_subboxes_.size(); ++node) {
    for (std::int32_t sb : node_import_subboxes_[node]) {
      workload_.nodes[node].tower_import_atoms +=
          static_cast<std::int64_t>(bins_[sb].size());
    }
  }
  for (std::size_t g = 0; g < units_.size(); ++g) {
    if (group_constraints_[g].empty()) continue;
    const std::int32_t node = geom_->node_index_of(
        geom_->coords_of(assigned_subbox_[units_[g][0]]));
    workload_.nodes[node].constraint_bonds +=
        static_cast<std::int64_t>(group_constraints_[g].size());
  }
  return workload_;
}

void AntonEngine::reset_workload() {
  for (auto& nc : workload_.nodes) nc = NodeCounters{};
  for (auto& lane : wl_shards_)
    for (auto& nc : lane) nc = NodeCounters{};
  workload_.steps_accumulated = 0;
}

double AntonEngine::assignment_slack() const {
  const Vec3d sb = geom_->subbox_size();
  double worst = 0.0;
  for (std::size_t i = 0; i < pos_.size(); ++i) {
    const Vec3i c = geom_->coords_of(assigned_subbox_[i]);
    // Subbox bounds in [-L/2, L/2) coordinates.
    const Vec3d s = sys_.box.side();
    const Vec3d lo{-0.5 * s.x + c.x * sb.x, -0.5 * s.y + c.y * sb.y,
                   -0.5 * s.z + c.z * sb.z};
    const Vec3d r = pos_phys_[i];
    double d2 = 0.0;
    for (int a = 0; a < 3; ++a) {
      // Distance outside the subbox along each axis, periodic-aware.
      double x = r[a] - lo[a];
      const double L = s[a];
      x -= L * std::floor(x / L);  // into [0, L)
      double gap = 0.0;
      if (x > sb[a]) gap = std::min(x - sb[a], L - x);
      d2 += gap * gap;
    }
    worst = std::max(worst, std::sqrt(d2));
  }
  return worst;
}

}  // namespace anton::core
