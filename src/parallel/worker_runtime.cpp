#include "parallel/worker_runtime.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <type_traits>
#include <variant>

#include "bonded/bonded.hpp"
#include "fixed/fixed.hpp"

namespace anton::parallel {

namespace {

inline void acc3(Vec3l& a, const Vec3l& d) {
  a.x = fixed::wrap_add(a.x, d.x);
  a.y = fixed::wrap_add(a.y, d.y);
  a.z = fixed::wrap_add(a.z, d.z);
}

inline void sub3(Vec3l& a, const Vec3l& d) {
  a.x = fixed::wrap_sub(a.x, d.x);
  a.y = fixed::wrap_sub(a.y, d.y);
  a.z = fixed::wrap_sub(a.z, d.z);
}

/// Coordinator ordered an abort: unwind to the event loop, acknowledge,
/// and wait for the StateBlock restore.
struct AbortException {};

/// Coordinator ordered shutdown: unwind out of run().
struct ShutdownException {};

}  // namespace

const char* const WorkerRuntime::kSpanNames[WorkerRuntime::kNumSpans] = {
    "vm.position_multicast", "vm.compute",  "vm.bond_dispatch",
    "vm.bond_terms",         "vm.force_return", "vm.gse.spread",
    "vm.gse.fft",            "vm.gse.interpolate", "vm.correction",
    "vm.integrate",          "vm.migrate",  "vm.mts_cycle",
};

void rebuild_node_bins_and_terms(
    const Topology& top, const std::vector<std::vector<std::int32_t>>& units,
    const std::vector<std::int32_t>& unit_sb,
    const std::vector<std::int32_t>& directory, int self, NodeState& nd) {
  nd.bins.clear();
  nd.bonds.clear();
  nd.angles.clear();
  nd.dihedrals.clear();
  nd.exclusions.clear();
  nd.vsites.clear();
  for (std::int32_t u : nd.units) {
    auto& bin = nd.bins[unit_sb[u]];
    for (std::int32_t a : units[u]) bin.push_back(a);
  }
  for (auto& [sb, ids] : nd.bins) std::sort(ids.begin(), ids.end());
  for (std::size_t k = 0; k < top.bonds.size(); ++k)
    if (directory[top.bonds[k].i] == self)
      nd.bonds.push_back(static_cast<std::int32_t>(k));
  for (std::size_t k = 0; k < top.angles.size(); ++k)
    if (directory[top.angles[k].i] == self)
      nd.angles.push_back(static_cast<std::int32_t>(k));
  for (std::size_t k = 0; k < top.dihedrals.size(); ++k)
    if (directory[top.dihedrals[k].i] == self)
      nd.dihedrals.push_back(static_cast<std::int32_t>(k));
  for (std::size_t k = 0; k < top.exclusions.size(); ++k)
    if (directory[top.exclusions[k].i] == self)
      nd.exclusions.push_back(static_cast<std::int32_t>(k));
  for (std::size_t k = 0; k < top.virtual_sites.size(); ++k)
    if (directory[top.virtual_sites[k].site] == self)
      nd.vsites.push_back(static_cast<std::int32_t>(k));
}

// ---------------------------------------------------------------------------
// Construction.
// ---------------------------------------------------------------------------

WorkerRuntime::WorkerRuntime(const VmWorld& w, int rank, WorkerEndpoint& ep,
                             NodeState initial,
                             std::vector<std::int32_t> directory,
                             std::vector<std::int32_t> unit_sb,
                             std::int64_t steps)
    : w_(w),
      rank_(rank),
      ep_(ep),
      np_(*w.np),
      fft1_(static_cast<std::size_t>(w.np->gse_params.mesh)),
      link_(rank,
            [this](const std::vector<std::uint8_t>& f) { ep_.send(f); }),
      nd_(std::move(initial)),
      directory_(std::move(directory)),
      unit_sb_(std::move(unit_sb)),
      steps_(steps) {
  if (rank_ == 0) {
    const int M = np_.gse_params.mesh;
    const std::size_t mesh_total = static_cast<std::size_t>(M) * M * M;
    master_q_full_.assign(mesh_total, 0.0);
    master_phi_full_.assign(mesh_total, 0.0);
    red_kin_.assign(static_cast<std::size_t>(np_.top->natoms), 0.0);
  }
}

// ---------------------------------------------------------------------------
// Event loop.
// ---------------------------------------------------------------------------

wire::Frame WorkerRuntime::recv_frame() {
  return wire::decode_frame(ep_.recv());
}

void WorkerRuntime::send_ctl(wire::Payload payload) {
  ep_.send(wire::encode_frame(wire::kChControl, rank_, wire::kCoordinator,
                              ctl_seq_++, payload));
}

void WorkerRuntime::run() {
  try {
    for (;;) {
      wire::Frame f;
      try {
        f = recv_frame();
      } catch (const wire::WireError& we) {
        // A corrupted frame reached this rank. Surface it as a typed
        // report; the coordinator answers with a coordinated rollback
        // instead of letting the worker abort.
        report_error(we);
        await_rollback();
        continue;
      }
      try {
        handle(f);
      } catch (const AbortException&) {
        ack_abort();
      } catch (const wire::WireError& we) {
        report_error(we);
        await_rollback();
      }
    }
  } catch (const ShutdownException&) {
    // Graceful exit: the coordinator is joining us.
  }
}

void WorkerRuntime::handle(const wire::Frame& f) {
  switch (f.header.msg_type) {
    case wire::MsgType::kControl: {
      const auto& c = std::get<wire::Control>(f.payload);
      switch (c.op) {
        case wire::CtrlOp::kInitForces:
          init_forces();
          send_report();
          break;
        case wire::CtrlOp::kRunCycle:
          run_cycle();
          send_report();
          break;
        case wire::CtrlOp::kNegateVelocities:
          for (auto& [id, st] : nd_.atoms) {
            st.vel.x = fixed::wrap_sub(0, st.vel.x);
            st.vel.y = fixed::wrap_sub(0, st.vel.y);
            st.vel.z = fixed::wrap_sub(0, st.vel.z);
          }
          break;
        case wire::CtrlOp::kSetFault: {
          FaultConfig fc;
          fc.seed = ReliableLink::derive_seed(
              static_cast<std::uint64_t>(c.i0), rank_);
          fc.max_attempts = static_cast<int>(c.i1);
          fc.drop = c.f0;
          fc.duplicate = c.f1;
          fc.reorder = c.f2;
          fc.delay = c.f3;
          link_.arm(fc);
          break;
        }
        case wire::CtrlOp::kClearFault:
          link_.disarm();
          break;
        case wire::CtrlOp::kStateRequest:
          send_state_block();
          break;
        case wire::CtrlOp::kAbort:
          throw AbortException{};
        case wire::CtrlOp::kShutdown:
          throw ShutdownException{};
        case wire::CtrlOp::kAbortAck:
          break;  // coordinator-bound; never meaningful here
      }
      break;
    }
    case wire::MsgType::kStateBlock:
      restore(std::get<wire::StateBlock>(f.payload));
      break;
    case wire::MsgType::kAck:
      link_.on_ack(f.header.src, std::get<wire::Ack>(f.payload));
      break;
    case wire::MsgType::kBarrier:
      break;  // stale release (pre-rollback); already satisfied
    default:
      // A data frame surfacing outside a barrier wait (e.g. an ack-less
      // straggler after this rank left its wait): same reliable path.
      link_.on_data(f, [this](const wire::Frame& df) {
        apply_payload(df.header.src, df.payload);
      });
      break;
  }
}

void WorkerRuntime::report_error(const wire::WireError& we) {
  wire::WorkerError err;
  err.code = static_cast<std::uint8_t>(we.kind()) + 1;
  send_ctl(err);
}

void WorkerRuntime::await_rollback() {
  // Everything inbound before the coordinator's Abort belongs to the
  // abandoned cycle: discard it (further decode failures included).
  for (;;) {
    wire::Frame f;
    try {
      f = recv_frame();
    } catch (const wire::WireError&) {
      continue;
    }
    if (f.header.msg_type == wire::MsgType::kControl) {
      const auto& c = std::get<wire::Control>(f.payload);
      if (c.op == wire::CtrlOp::kAbort) {
        ack_abort();
        return;
      }
      if (c.op == wire::CtrlOp::kShutdown) throw ShutdownException{};
    }
  }
}

void WorkerRuntime::ack_abort() {
  wire::Control c;
  c.op = wire::CtrlOp::kAbortAck;
  send_ctl(c);
}

void WorkerRuntime::restore(const wire::StateBlock& b) {
  steps_ = static_cast<std::int64_t>(b.steps);
  e_recip_ = b.e_recip;
  directory_ = b.directory;
  unit_sb_ = b.unit_sb;
  nd_.units = b.unit_id;
  nd_.atoms.clear();
  for (std::size_t i = 0; i < b.atom_id.size(); ++i)
    nd_.atoms.emplace(b.atom_id[i], b.atoms[i]);
  // Scrub per-step mailbox residue (checkpoints are taken at quiescent
  // cycle boundaries, but the replay must not see partial sums).
  nd_.recs.clear();
  for (std::int32_t id : nd_.plist) {
    nd_.partial[id] = {0, 0, 0};
    nd_.ptouched[id] = 0;
  }
  nd_.plist.clear();
  for (std::int32_t idx : nd_.touched) {
    nd_.spread_q[idx] = 0;
    nd_.stouched[idx] = 0;
  }
  nd_.touched.clear();
  for (auto& l : nd_.halo_req) l.clear();
  fft_lines_.clear();
  // Both ends of every channel restart from sequence zero; so does the
  // barrier sequence. (Diagnostics bases are NOT reset: partial-cycle
  // deltas fold into the next successful report.)
  link_.reset_channels();
  bar_id_ = 0;
  rebuild_node_bins_and_terms(top(), *w_.units, unit_sb_, directory_, rank_,
                              nd_);
}

void WorkerRuntime::send_state_block() {
  wire::StateBlock b;
  b.steps = static_cast<std::uint64_t>(steps_);
  b.e_recip = e_recip_;
  b.directory = directory_;
  b.unit_sb = unit_sb_;
  b.unit_id = nd_.units;
  b.atom_id.reserve(nd_.atoms.size());
  for (const auto& [id, st] : nd_.atoms) b.atom_id.push_back(id);
  std::sort(b.atom_id.begin(), b.atom_id.end());
  b.atoms.reserve(b.atom_id.size());
  for (std::int32_t id : b.atom_id) b.atoms.push_back(nd_.atoms.at(id));
  send_ctl(std::move(b));
}

void WorkerRuntime::send_report() {
  wire::RankReport r;
  r.pid = static_cast<std::int64_t>(::getpid());
  r.sent = sent_;
  r.e_recip = e_recip_;

  r.counters = {
      nc_.pairs_considered - nc_base_.pairs_considered,
      nc_.ppip_queue - nc_base_.ppip_queue,
      nc_.interactions - nc_base_.interactions,
      nc_.spread_ops - nc_base_.spread_ops,
      nc_.interp_ops - nc_base_.interp_ops,
      nc_.bond_terms - nc_base_.bond_terms,
      nc_.correction_pairs - nc_base_.correction_pairs,
  };

  r.ledger.reserve(kReportLedger);
  auto phase = [&](const PhaseComm& cur, const PhaseComm& base) {
    r.ledger.push_back(cur.messages - base.messages);
    r.ledger.push_back(cur.bytes - base.bytes);
    r.ledger.push_back(cur.max_hops);  // lifetime max, max-folded
  };
  phase(led_.position, led_base_.position);
  phase(led_.force, led_base_.force);
  phase(led_.bond, led_base_.bond);
  phase(led_.mesh, led_base_.mesh);
  phase(led_.fft, led_base_.fft);
  phase(led_.migration, led_base_.migration);
  phase(led_.reduce, led_base_.reduce);
  r.ledger.push_back(led_.pairs_considered - led_base_.pairs_considered);
  r.ledger.push_back(led_.interactions - led_base_.interactions);

  const FaultCounters& fc = link_.counters();
  r.faults = {
      fc.drops - fc_base_.drops,
      fc.duplicates - fc_base_.duplicates,
      fc.reorders - fc_base_.reorders,
      fc.delays - fc_base_.delays,
      fc.retransmits - fc_base_.retransmits,
      fc.retransmit_bytes - fc_base_.retransmit_bytes,
      fc.dups_suppressed - fc_base_.dups_suppressed,
      fc.out_of_order_held - fc_base_.out_of_order_held,
  };

  for (int i = 0; i < kNumSpans; ++i) {
    if (span_acc_[i] > 0.0) {
      r.span_id.push_back(static_cast<std::uint16_t>(i));
      r.span_us.push_back(span_acc_[i]);
    }
    span_acc_[i] = 0.0;
  }

  nc_base_ = nc_;
  led_base_ = led_;
  fc_base_ = fc;
  send_ctl(std::move(r));
}

void WorkerRuntime::init_forces() {
  sent_ = 0;
  compute_short_forces();
  compute_long_forces();
}

void WorkerRuntime::run_cycle() {
  const int k = std::max(1, w_.acfg->sim.long_range_every);
  SpanTimer cycle_t(span_acc_[kSpanMtsCycle]);
  sent_ = 0;
  if (w_.acfg->migration_interval > 0 &&
      steps_ % w_.acfg->migration_interval == 0) {
    SpanTimer t(span_acc_[kSpanMigrate]);
    migrate_by_message();
  }
  {
    SpanTimer t(span_acc_[kSpanIntegrate]);
    kick_all(true);
  }
  for (int s = 0; s < k; ++s) {
    {
      SpanTimer t(span_acc_[kSpanIntegrate]);
      kick_all(false);
      drift_and_constrain();
      finish_drift();
    }
    compute_short_forces();
    {
      SpanTimer t(span_acc_[kSpanIntegrate]);
      kick_all(false);
      rattle_groups();
    }
    ++steps_;
  }
  compute_long_forces();
  {
    SpanTimer t(span_acc_[kSpanIntegrate]);
    kick_all(true);
    rattle_groups();
    if (w_.acfg->sim.thermostat) apply_thermostat();
  }
}

// ---------------------------------------------------------------------------
// Delivery, application, barrier.
// ---------------------------------------------------------------------------

int WorkerRuntime::torus_hops(int dst) const {
  const Vec3i p = w_.geom->config().node_grid;
  auto ring = [](int a, int b, int n) {
    const int d = std::abs(a - b);
    return std::min(d, n - d);
  };
  const int sx = rank_ % p.x, sy = (rank_ / p.x) % p.y,
            sz = rank_ / (p.x * p.y);
  const int dx = dst % p.x, dy = (dst / p.x) % p.y, dz = dst / (p.x * p.y);
  return ring(sx, dx, p.x) + ring(sy, dy, p.y) + ring(sz, dz, p.z);
}

void WorkerRuntime::deliver(PhaseComm& phase, int channel_phase, int dst,
                            wire::Payload payload) {
  if (dst == rank_) {
    // Rank-local handoff: never touches the wire (and is never counted).
    apply_payload(rank_, payload);
    return;
  }
  const std::int64_t bytes =
      link_.send(dst, channel_phase, std::move(payload));
  ++phase.messages;
  phase.bytes += bytes;
  const int h = torus_hops(dst);
  if (h > phase.max_hops) phase.max_hops = h;
  ++sent_;
}

void WorkerRuntime::apply_payload(int src, const wire::Payload& p) {
  NodeState& nd = nd_;
  const int M = np_.gse_params.mesh;
  // Block-local index of global mesh point (x, y, z) on `b`'s block.
  auto block_index = [](const NodeState& b, int x, int y, int z) {
    return (static_cast<std::size_t>(z - b.block_lo.z) * b.block_sz.y +
            (y - b.block_lo.y)) *
               b.block_sz.x +
           (x - b.block_lo.x);
  };
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, wire::PositionBatch>) {
          records_of(m.sb) = m.recs;
        } else if constexpr (std::is_same_v<T, wire::BondPositions>) {
          for (const wire::PosRec& r : m.recs) nd.rpos[r.id] = r.pos;
        } else if constexpr (std::is_same_v<T, wire::ForceBatch>) {
          for (const wire::ForceRec& r : m.recs) {
            AtomState& st = nd.atoms.at(r.id);
            acc3(m.long_range ? st.f_long : st.f_short, r.f);
          }
        } else if constexpr (std::is_same_v<T, wire::MeshCharge>) {
          // Wrap-add the halo charges into the owned block; remember which
          // points the source touched so the potential halo can route
          // straight back.
          for (std::size_t i = 0; i < m.idx.size(); ++i) {
            const std::int32_t idx = m.idx[i];
            const int x = idx % M;
            const int y = (idx / M) % M;
            const int z = idx / (M * M);
            const std::size_t l = block_index(nd, x, y, z);
            nd.mesh_q[l] = fixed::wrap_add(nd.mesh_q[l], m.q[i]);
          }
          nd.halo_req[src] = m.idx;
        } else if constexpr (std::is_same_v<T, wire::MeshPhi>) {
          for (std::size_t i = 0; i < m.idx.size(); ++i)
            nd.halo_phi[m.idx[i]] = m.phi[i];
        } else if constexpr (std::is_same_v<T, wire::FftSegment>) {
          if (m.kind == 0) {
            // Gather: segment lands in the owner's assembled line for
            // (a, b) on this axis.
            auto& line = fft_lines_[{m.a, m.b}];
            if (line.empty())
              line.assign(static_cast<std::size_t>(M), fft::cplx{});
            std::copy(m.pts.begin(), m.pts.end(), line.begin() + m.s0);
          } else {
            // Scatter: transformed points return to the holder's slab at
            // the line's (a, b) coordinates on the message's axis.
            for (std::size_t i = 0; i < m.pts.size(); ++i) {
              const int k = m.s0 + static_cast<int>(i);
              int x, y, z;
              if (m.axis == 0) {
                x = k; y = m.a; z = m.b;
              } else if (m.axis == 1) {
                x = m.a; y = k; z = m.b;
              } else {
                x = m.a; y = m.b; z = k;
              }
              nd.fft_grid[block_index(nd, x, y, z)] = m.pts[i];
            }
          }
        } else if constexpr (std::is_same_v<T, wire::MeshEnergyBlock>) {
          for (std::size_t i = 0; i < m.gidx.size(); ++i) {
            master_q_full_[m.gidx[i]] = m.q[i];
            master_phi_full_[m.gidx[i]] = m.phi[i];
          }
        } else if constexpr (std::is_same_v<T, wire::KineticTerms>) {
          for (std::size_t i = 0; i < m.id.size(); ++i)
            red_kin_[m.id[i]] = m.term[i];
        } else if constexpr (std::is_same_v<T, wire::ScaleVelocities>) {
          for (auto& [id, st] : nd.atoms) scale_velocity(st.vel, m.lambda);
        } else if constexpr (std::is_same_v<T, wire::MigrationBatch>) {
          for (std::size_t i = 0; i < m.id.size(); ++i)
            nd.atoms[m.id[i]] = m.atoms[i];
        } else if constexpr (std::is_same_v<T, wire::DirectoryUpdate>) {
          for (std::size_t i = 0; i < m.id.size(); ++i)
            directory_[m.id[i]] = m.home[i];
        }
        // Control-plane payloads never reach apply_payload.
      },
      p);
}

void WorkerRuntime::barrier() {
  const std::uint32_t want = bar_id_++;
  send_ctl(wire::Barrier{want});
  for (;;) {
    const wire::Frame f = recv_frame();
    switch (f.header.msg_type) {
      case wire::MsgType::kBarrier: {
        const auto& b = std::get<wire::Barrier>(f.payload);
        if (b.id == want) return;
        break;  // stale release from before a rollback
      }
      case wire::MsgType::kAck:
        link_.on_ack(f.header.src, std::get<wire::Ack>(f.payload));
        break;
      case wire::MsgType::kControl: {
        const auto& c = std::get<wire::Control>(f.payload);
        if (c.op == wire::CtrlOp::kAbort) throw AbortException{};
        if (c.op == wire::CtrlOp::kShutdown) throw ShutdownException{};
        break;
      }
      default:
        // Data for this phase (or the next one racing ahead): the
        // reliable layer applies exactly once in channel order.
        link_.on_data(f, [this](const wire::Frame& df) {
          apply_payload(df.header.src, df.payload);
        });
        break;
    }
  }
}

// ---------------------------------------------------------------------------
// Helpers.
// ---------------------------------------------------------------------------

std::vector<AtomRecord>& WorkerRuntime::records_of(std::int32_t sb) {
  return nd_.recs[sb];
}

void WorkerRuntime::touch_partial(std::int32_t id) {
  if (!nd_.ptouched[id]) {
    nd_.ptouched[id] = 1;
    nd_.partial[id] = {0, 0, 0};
    nd_.plist.push_back(id);
  }
}

Vec3i WorkerRuntime::pos_of(std::int32_t id) const {
  const auto it = nd_.atoms.find(id);
  return it != nd_.atoms.end() ? it->second.pos : nd_.rpos[id];
}

// ---------------------------------------------------------------------------
// Range-limited choreography (shared by both compute passes).
// ---------------------------------------------------------------------------

void WorkerRuntime::position_multicast() {
  SpanTimer t(span_acc_[kSpanPositionMulticast]);
  nd_.recs.clear();
  for (const auto& [sb, ids] : nd_.bins) {
    std::vector<AtomRecord> payload;
    payload.reserve(ids.size());
    for (std::int32_t a : ids) payload.push_back({a, nd_.atoms.at(a).pos});
    for (int dst : (*w_.consumers)[sb])
      deliver(led_.position, kChPosition, dst,
              wire::PositionBatch{sb, payload});
  }
  link_.flush();
  barrier();  // pair phase reads the consumer mailboxes
}

void WorkerRuntime::pair_phase() {
  SpanTimer t(span_acc_[kSpanCompute]);
  NodeState& nd = nd_;
  core::NodeCounters& nc = nc_;
  // Pack the delivered position records into SoA lanes (keyed on recs, so
  // a bin absent from this step's mailboxes is never read stale).
  for (const auto& [sb, v] : nd.recs) {
    BinSoA& s = nd.soa[sb];
    s.clear();
    s.reserve(v.size());
    for (const AtomRecord& r : v) s.push_atom(top(), r.id, r.pos);
  }
  for (std::int32_t hidx : (*w_.node_subboxes)[rank_]) {
    const Vec3i h = w_.geom->coords_of(hidx);
    for (std::int32_t dz : w_.geom->tower_dz()) {
      const std::int32_t tidx =
          w_.geom->index_of(w_.geom->wrap_coords({h.x, h.y, h.z + dz}));
      const auto t_it = nd.recs.find(tidx);
      if (t_it == nd.recs.end() || t_it->second.empty()) continue;
      for (const Vec3i& poff : w_.geom->plate_half()) {
        if (!w_.geom->owns_pair(h, dz, poff)) continue;
        const std::int32_t pidx = w_.geom->index_of(
            w_.geom->wrap_coords({h.x + poff.x, h.y + poff.y, h.z}));
        const auto p_it = nd.recs.find(pidx);
        if (p_it == nd.recs.end() || p_it->second.empty()) continue;
        const bool same = tidx == pidx;
        // SoA block path: bitwise identical forces/counters to the scalar
        // eval_pair loop, hits emitted in its (a, b) order (so the
        // first-touch plist order -- and with it the force-return wire
        // frames -- are unchanged).
        PairBlockCounters pc;
        eval_pair_block(np_, nd.soa.at(tidx), nd.soa.at(pidx), same, nd.pscr,
                        pc);
        nc.pairs_considered += pc.considered;
        led_.pairs_considered += pc.considered;
        nc.ppip_queue += pc.queued;
        nc.interactions += pc.computed;
        led_.interactions += pc.computed;
        for (const PairHit& ph : nd.pscr.hits) {
          touch_partial(ph.lo);
          acc3(nd.partial[ph.lo], ph.f);
          touch_partial(ph.hi);
          sub3(nd.partial[ph.hi], ph.f);
        }
      }
    }
  }
}

void WorkerRuntime::bond_dispatch_and_terms(bool long_range) {
  const Topology& tp = top();
  NodeState& nd = nd_;
  if (!long_range) {
    // Bond-destination position dispatch: this rank sends the positions
    // of its home atoms to every rank evaluating a term (bonded or
    // correction) whose destination atom reads them. The long-range
    // correction pass reuses these mailboxes: positions have not changed
    // since the cycle's last short-range dispatch.
    SpanTimer t(span_acc_[kSpanBondDispatch]);
    std::vector<std::vector<AtomRecord>> out(w_.nnodes);
    std::vector<int> dsts;
    for (const auto& [sb, ids] : nd.bins) {
      for (std::int32_t a : ids) {
        if ((*w_.dest_feed)[a].empty()) continue;
        dsts.clear();
        for (std::int32_t dest : (*w_.dest_feed)[a]) {
          const int dst = directory_[dest];
          if (dst == rank_) continue;
          if (std::find(dsts.begin(), dsts.end(), dst) == dsts.end())
            dsts.push_back(dst);
        }
        const Vec3i p = nd.atoms.at(a).pos;
        for (int dst : dsts) out[dst].push_back({a, p});
      }
    }
    for (int dst = 0; dst < w_.nnodes; ++dst) {
      if (out[dst].empty()) continue;
      deliver(led_.bond, kChBond, dst,
              wire::BondPositions{std::move(out[dst])});
    }
    link_.flush();
    barrier();  // term evaluation reads the rpos mailboxes
  }

  SpanTimer t(span_acc_[long_range ? kSpanCorrection : kSpanBondTerms]);
  core::NodeCounters& nc = nc_;
  if (!long_range) {
    auto apply = [&](const bonded::TermForces& tf) {
      ++nc.bond_terms;
      Vec3d tpos[4];
      for (int i = 0; i < tf.n; ++i)
        tpos[i] = lat().to_phys(pos_of(tf.atom[i]));
      const QuantizedTerm qt = quantize_term(np_, tf, tpos, false);
      for (int i = 0; i < qt.n; ++i) {
        touch_partial(qt.atom[i]);
        acc3(nd.partial[qt.atom[i]], qt.f[i]);
      }
    };
    for (std::int32_t k : nd.bonds) {
      const BondTerm& b = tp.bonds[k];
      apply(bonded::eval_bond(b, lat().to_phys(pos_of(b.i)),
                              lat().to_phys(pos_of(b.j)), *np_.box));
    }
    for (std::int32_t k : nd.angles) {
      const AngleTerm& a = tp.angles[k];
      apply(bonded::eval_angle(a, lat().to_phys(pos_of(a.i)),
                               lat().to_phys(pos_of(a.j)),
                               lat().to_phys(pos_of(a.k)), *np_.box));
    }
    for (std::int32_t k : nd.dihedrals) {
      const DihedralTerm& d = tp.dihedrals[k];
      apply(bonded::eval_dihedral(d, lat().to_phys(pos_of(d.i)),
                                  lat().to_phys(pos_of(d.j)),
                                  lat().to_phys(pos_of(d.k)),
                                  lat().to_phys(pos_of(d.l)), *np_.box));
    }
    for (std::int32_t k : nd.exclusions) {
      const ExclusionPair& e = tp.exclusions[k];
      const CorrectionResult cr =
          eval_correction_short(np_, e, pos_of(e.i), pos_of(e.j), false);
      if (!cr.computed) continue;
      touch_partial(e.i);
      acc3(nd.partial[e.i], cr.f);
      touch_partial(e.j);
      sub3(nd.partial[e.j], cr.f);
    }
  } else {
    for (std::int32_t k : nd.exclusions) {
      const ExclusionPair& e = tp.exclusions[k];
      ++nc.correction_pairs;
      const CorrectionResult cr =
          eval_correction_long(np_, e, pos_of(e.i), pos_of(e.j), false);
      touch_partial(e.i);
      acc3(nd.partial[e.i], cr.f);
      touch_partial(e.j);
      sub3(nd.partial[e.j], cr.f);
    }
  }
}

void WorkerRuntime::force_return(bool long_range) {
  SpanTimer t(span_acc_[kSpanForceReturn]);
  NodeState& nd = nd_;
  std::sort(nd.plist.begin(), nd.plist.end());
  std::vector<std::vector<wire::ForceRec>> out(w_.nnodes);
  for (std::int32_t id : nd.plist) {
    out[directory_[id]].push_back({id, nd.partial[id]});
    nd.partial[id] = {0, 0, 0};
    nd.ptouched[id] = 0;
  }
  nd.plist.clear();
  for (int dst = 0; dst < w_.nnodes; ++dst) {
    if (out[dst].empty()) continue;
    deliver(led_.force, kChForce, dst,
            wire::ForceBatch{long_range, std::move(out[dst])});
  }
  link_.flush();
  barrier();  // the vsite round reads the home accumulators
}

void WorkerRuntime::vsite_force_round(bool long_range) {
  const Topology& tp = top();
  if (tp.virtual_sites.empty()) return;
  NodeState& nd = nd_;
  std::vector<std::vector<wire::ForceRec>> out(w_.nnodes);
  auto share = [&](std::int32_t target, const Vec3l& f) {
    out[directory_[target]].push_back({target, f});
  };
  for (std::int32_t k : nd.vsites) {
    const VirtualSite& v = tp.virtual_sites[k];
    AtomState& site = nd.atoms.at(v.site);
    Vec3l& f = long_range ? site.f_long : site.f_short;
    const VsiteForceShare s = split_virtual_site_force(v, f);
    f = {0, 0, 0};
    share(v.h1, s.fh);
    share(v.h2, s.fh);
    share(v.o, s.fo);
  }
  for (int dst = 0; dst < w_.nnodes; ++dst) {
    if (out[dst].empty()) continue;
    deliver(led_.force, kChForce, dst,
            wire::ForceBatch{long_range, std::move(out[dst])});
  }
  link_.flush();
  barrier();
}

void WorkerRuntime::compute_short_forces() {
  for (auto& [id, st] : nd_.atoms) st.f_short = {0, 0, 0};
  position_multicast();
  pair_phase();
  bond_dispatch_and_terms(false);
  force_return(false);
  vsite_force_round(false);
}

// ---------------------------------------------------------------------------
// Long-range (GSE) choreography.
// ---------------------------------------------------------------------------

void WorkerRuntime::spread_and_halo() {
  SpanTimer t(span_acc_[kSpanSpread]);
  const Topology& tp = top();
  const int M = np_.gse_params.mesh;
  const Vec3i pg = w_.geom->config().node_grid;
  NodeState& nd = nd_;

  for (std::int32_t idx : nd.touched) {
    nd.spread_q[idx] = 0;
    nd.stouched[idx] = 0;
  }
  nd.touched.clear();
  for (auto& l : nd.halo_req) l.clear();
  std::fill(nd.mesh_q.begin(), nd.mesh_q.end(), 0);

  // Node-local spreading of this rank's home atoms.
  core::NodeCounters& nc = nc_;
  for (const auto& [sb, ids] : nd.bins) {
    for (std::int32_t a : ids) {
      const double qi = tp.charge[a];
      if (qi == 0.0) continue;
      const Vec3d r = lat().to_phys(nd.atoms.at(a).pos);
      spread_atom(
          np_, qi, r, nd.mscr,
          [&](std::size_t idx, std::int64_t dq) {
            const auto i32 = static_cast<std::int32_t>(idx);
            if (!nd.stouched[idx]) {
              nd.stouched[idx] = 1;
              nd.touched.push_back(i32);
            }
            nd.spread_q[idx] = fixed::wrap_add(nd.spread_q[idx], dq);
          },
          &nc.spread_ops);
    }
  }

  // Charge halo: this rank's touched mesh points, grouped by owning rank,
  // are wrap-added into the owners' block accumulators. The owner records
  // which points each source touched -- the same lists route the
  // potential halo back.
  auto owner_of_mesh = [&](std::int32_t idx) {
    const int x = idx % M;
    const int y = (idx / M) % M;
    const int z = idx / (M * M);
    return (w_.mesh_owner[2][z] * pg.y + w_.mesh_owner[1][y]) * pg.x +
           w_.mesh_owner[0][x];
  };
  std::sort(nd.touched.begin(), nd.touched.end());
  std::map<int, std::vector<std::int32_t>> by_owner;
  for (std::int32_t idx : nd.touched)
    by_owner[owner_of_mesh(idx)].push_back(idx);
  for (auto& [o, list] : by_owner) {
    std::vector<std::int64_t> charge;
    charge.reserve(list.size());
    for (std::int32_t idx : list) charge.push_back(nd.spread_q[idx]);
    deliver(led_.mesh, kChMesh, o,
            wire::MeshCharge{std::move(list), std::move(charge)});
  }
  link_.flush();
  barrier();  // the owned-block accumulators are read below

  for (std::size_t l = 0; l < nd.mesh_q.size(); ++l) {
    nd.scratch_q[l] = static_cast<double>(nd.mesh_q[l]) / kMeshChargeScale;
    nd.fft_grid[l] = fft::cplx{nd.scratch_q[l], 0.0};
  }
}

void WorkerRuntime::distributed_fft_stage(int axis, bool inverse) {
  // One axis pass of the distributed 3D FFT (the fft::DistFftPlan
  // pattern): every mesh line along `axis` is assigned round-robin to one
  // rank of the torus row holding its segments; the owner gathers the
  // segments, runs the shared 1-D plan, and scatters them back. Under
  // SPMD the pass is two bulk exchanges -- a gather sweep over every line
  // (each rank ships its own segment to the line's owner), one barrier, a
  // transform-and-scatter sweep over the lines this rank owns, one
  // barrier -- with the same message multiset and bytes as a per-line
  // exchange. The gathered line is contiguous in ascending axis
  // coordinate, so the arithmetic is bitwise identical to fft::Fft3D's
  // strided transform.
  const int M = np_.gse_params.mesh;
  const Vec3i pg = w_.geom->config().node_grid;
  const int pa = axis == 0 ? pg.x : axis == 1 ? pg.y : pg.z;
  const int gx = rank_ % pg.x;
  const int gy = (rank_ / pg.x) % pg.y;
  const int gz = rank_ / (pg.x * pg.y);
  const int hc_self = axis == 0 ? gx : axis == 1 ? gy : gz;
  const int s0 = w_.mesh_start[axis][hc_self];
  const int s1 = w_.mesh_start[axis][hc_self + 1];

  auto row_ord_size = [&]() -> std::size_t {
    if (axis == 0) return static_cast<std::size_t>(pg.y) * pg.z;
    if (axis == 1) return static_cast<std::size_t>(pg.x) * pg.z;
    return static_cast<std::size_t>(pg.x) * pg.y;
  };
  // Line ownership is a deterministic function of (axis, a, b) every rank
  // recomputes identically: round-robin over the torus row via row_ord.
  auto owner_of = [&](std::vector<int>& row_ord, int a, int b) {
    // axis 0: (y, z) = (a, b); axis 1: (x, z) = (a, b);
    // axis 2: (x, y) = (a, b).
    if (axis == 0) {
      const int ly = w_.mesh_owner[1][a], lz = w_.mesh_owner[2][b];
      const int rid = lz * pg.y + ly;
      const int oc = row_ord[rid]++ % pa;
      return (lz * pg.y + ly) * pg.x + oc;
    }
    if (axis == 1) {
      const int lx = w_.mesh_owner[0][a], lz = w_.mesh_owner[2][b];
      const int rid = lz * pg.x + lx;
      const int oc = row_ord[rid]++ % pa;
      return (lz * pg.y + oc) * pg.x + lx;
    }
    const int lx = w_.mesh_owner[0][a], ly = w_.mesh_owner[1][b];
    const int rid = ly * pg.x + lx;
    const int oc = row_ord[rid]++ % pa;
    return (oc * pg.y + ly) * pg.x + lx;
  };
  auto point = [&](int k, int a, int b) -> std::size_t {
    int x, y, z;
    if (axis == 0) {
      x = k; y = a; z = b;
    } else if (axis == 1) {
      x = a; y = k; z = b;
    } else {
      x = a; y = b; z = k;
    }
    return (static_cast<std::size_t>(z - nd_.block_lo.z) * nd_.block_sz.y +
            (y - nd_.block_lo.y)) *
               nd_.block_sz.x +
           (x - nd_.block_lo.x);
  };

  // Gather sweep: ship this rank's segment of every line it holds to the
  // line's owner (the row_ord replay keeps ownership identical on every
  // rank whether or not a segment is sent).
  {
    std::vector<int> row_ord(row_ord_size(), 0);
    for (int a = 0; a < M; ++a) {
      for (int b = 0; b < M; ++b) {
        const int owner = owner_of(row_ord, a, b);
        bool holds;
        if (axis == 0)
          holds = w_.mesh_owner[1][a] == gy && w_.mesh_owner[2][b] == gz;
        else if (axis == 1)
          holds = w_.mesh_owner[0][a] == gx && w_.mesh_owner[2][b] == gz;
        else
          holds = w_.mesh_owner[0][a] == gx && w_.mesh_owner[1][b] == gy;
        if (!holds || s0 == s1) continue;
        std::vector<fft::cplx> seg(static_cast<std::size_t>(s1 - s0));
        for (int k = s0; k < s1; ++k)
          seg[static_cast<std::size_t>(k - s0)] = nd_.fft_grid[point(k, a, b)];
        deliver(led_.fft, kChFft, owner,
                wire::FftSegment{static_cast<std::uint8_t>(axis), 0, a, b,
                                 s0, std::move(seg)});
      }
    }
  }
  link_.flush();
  barrier();  // owners transform fully assembled lines

  // Transform-and-scatter sweep over the lines this rank owns.
  {
    std::vector<int> row_ord(row_ord_size(), 0);
    for (int a = 0; a < M; ++a) {
      for (int b = 0; b < M; ++b) {
        const int owner = owner_of(row_ord, a, b);
        if (owner != rank_) continue;
        auto& line = fft_lines_[{a, b}];
        if (line.empty()) line.assign(static_cast<std::size_t>(M), fft::cplx{});
        if (inverse)
          fft1_.inverse(line.data());
        else
          fft1_.forward(line.data());
        auto holder_index = [&](int hc) {
          if (axis == 0) return owner - owner % pg.x + hc;
          if (axis == 1) {
            const int lx = owner % pg.x;
            const int lz = owner / (pg.x * pg.y);
            return (lz * pg.y + hc) * pg.x + lx;
          }
          const int lx = owner % pg.x;
          const int ly = (owner / pg.x) % pg.y;
          return (hc * pg.y + ly) * pg.x + lx;
        };
        for (int hc = 0; hc < pa; ++hc) {
          const int t0 = w_.mesh_start[axis][hc];
          const int t1 = w_.mesh_start[axis][hc + 1];
          if (t0 == t1) continue;
          const int holder = holder_index(hc);
          std::vector<fft::cplx> seg(line.begin() + t0, line.begin() + t1);
          deliver(led_.fft, kChFft, holder,
                  wire::FftSegment{static_cast<std::uint8_t>(axis), 1, a, b,
                                   t0, std::move(seg)});
        }
      }
    }
  }
  link_.flush();
  barrier();  // the next stage reads every holder's settled slab
  fft_lines_.clear();
}

void WorkerRuntime::convolve_and_energy() {
  // Quantize the block-owned potentials, then gather (Q, phi) to rank 0
  // for the ordered reciprocal-energy reduction -- the sum must run in
  // global mesh-index order to match the engine's serial convolve bit for
  // bit.
  const int M = np_.gse_params.mesh;
  NodeState& nd = nd_;
  std::vector<std::uint64_t> gidx;
  std::vector<double> qv, phiv;
  gidx.reserve(nd.mesh_q.size());
  qv.reserve(nd.mesh_q.size());
  phiv.reserve(nd.mesh_q.size());
  std::size_t l = 0;
  for (int z = nd.block_lo.z; z < nd.block_lo.z + nd.block_sz.z; ++z)
    for (int y = nd.block_lo.y; y < nd.block_lo.y + nd.block_sz.y; ++y)
      for (int x = nd.block_lo.x; x < nd.block_lo.x + nd.block_sz.x;
           ++x, ++l) {
        const double phi = nd.fft_grid[l].real();
        nd.mesh_phi[l] = fixed::quantize(phi, kPhiScale);
        gidx.push_back((static_cast<std::uint64_t>(z) * M + y) * M + x);
        qv.push_back(nd.scratch_q[l]);
        phiv.push_back(phi);
      }
  if (!gidx.empty())
    deliver(led_.reduce, kChReduce, 0,
            wire::MeshEnergyBlock{std::move(gidx), std::move(qv),
                                  std::move(phiv)});
  link_.flush();
  barrier();  // the ordered reduction reads the gathered blocks
  if (rank_ == 0) {
    const std::size_t mesh_total = static_cast<std::size_t>(M) * M * M;
    double energy = 0.0;
    for (std::size_t i = 0; i < mesh_total; ++i)
      energy += master_phi_full_[i] * master_q_full_[i];
    const double h = np_.gse->mesh_spacing();
    e_recip_ = 0.5 * h * h * h * energy;
  }
}

void WorkerRuntime::phi_halo_back_and_interpolate() {
  SpanTimer t(span_acc_[kSpanInterpolate]);
  const Topology& tp = top();
  const int M = np_.gse_params.mesh;
  NodeState& nd = nd_;

  // Potential halo-back: this rank (as block owner) returns phi at
  // exactly the points each source spread to (recorded in halo_req
  // during the charge halo).
  for (int src = 0; src < w_.nnodes; ++src) {
    const auto& list = nd.halo_req[src];
    if (list.empty()) continue;
    std::vector<std::int64_t> phis;
    phis.reserve(list.size());
    for (std::int32_t idx : list) {
      const int x = idx % M;
      const int y = (idx / M) % M;
      const int z = idx / (M * M);
      const std::size_t l =
          (static_cast<std::size_t>(z - nd.block_lo.z) * nd.block_sz.y +
           (y - nd.block_lo.y)) *
              nd.block_sz.x +
          (x - nd.block_lo.x);
      phis.push_back(nd.mesh_phi[l]);
    }
    deliver(led_.mesh, kChMesh, src, wire::MeshPhi{list, std::move(phis)});
  }
  link_.flush();
  barrier();  // interpolation reads the node-local phi halos

  // Force interpolation against the node-local phi halo; each atom's
  // contribution lands directly on the home atom.
  core::NodeCounters& nc = nc_;
  for (const auto& [sb, ids] : nd.bins) {
    for (std::int32_t a : ids) {
      const double qi = tp.charge[a];
      if (qi == 0.0) continue;
      AtomState& st = nd.atoms.at(a);
      const Vec3l acc = interpolate_atom(
          np_, qi, lat().to_phys(st.pos), nd.mscr,
          [&](std::size_t idx) { return nd.halo_phi[idx]; }, &nc.interp_ops);
      acc3(st.f_long, acc);
    }
  }
}

void WorkerRuntime::compute_long_forces() {
  for (auto& [id, st] : nd_.atoms) st.f_long = {0, 0, 0};
  spread_and_halo();
  {
    SpanTimer t(span_acc_[kSpanFft]);
    distributed_fft_stage(0, false);
    distributed_fft_stage(1, false);
    distributed_fft_stage(2, false);
    const int M = np_.gse_params.mesh;
    const std::vector<double>& green = np_.gse->green();
    NodeState& nd = nd_;
    std::size_t l = 0;
    for (int z = nd.block_lo.z; z < nd.block_lo.z + nd.block_sz.z; ++z)
      for (int y = nd.block_lo.y; y < nd.block_lo.y + nd.block_sz.y; ++y)
        for (int x = nd.block_lo.x; x < nd.block_lo.x + nd.block_sz.x;
             ++x, ++l)
          nd.fft_grid[l] *=
              green[(static_cast<std::size_t>(z) * M + y) * M + x];
    distributed_fft_stage(2, true);
    distributed_fft_stage(1, true);
    distributed_fft_stage(0, true);
    convolve_and_energy();
  }
  phi_halo_back_and_interpolate();
  bond_dispatch_and_terms(true);
  force_return(true);
  vsite_force_round(true);
}

// ---------------------------------------------------------------------------
// Integration, constraints, thermostat.
// ---------------------------------------------------------------------------

void WorkerRuntime::kick_all(bool long_kick) {
  const auto& coef = long_kick ? w_.coefs->kick_long : w_.coefs->kick_short;
  for (auto& [id, st] : nd_.atoms)
    kick_atom(st.vel, long_kick ? st.f_long : st.f_short, coef[id]);
}

void WorkerRuntime::drift_and_constrain() {
  const bool constrained = !top().constraints.empty();
  NodeState& nd = nd_;
  // Pre-drift references for the co-resident constraint units.
  std::vector<std::int32_t> cunits;
  std::vector<std::vector<Vec3d>> refs;
  if (constrained) {
    for (std::int32_t u : nd.units) {
      if ((*w_.group_constraints)[u].empty()) continue;
      cunits.push_back(u);
      std::vector<Vec3d> ref((*w_.units)[u].size());
      for (std::size_t k = 0; k < (*w_.units)[u].size(); ++k)
        ref[k] = lat().to_phys(nd.atoms.at((*w_.units)[u][k]).pos);
      refs.push_back(std::move(ref));
    }
  }
  for (auto& [id, st] : nd.atoms)
    st.pos = drift_atom(st.pos, st.vel, w_.coefs->drift);
  for (std::size_t c = 0; c < cunits.size(); ++c) {
    const std::int32_t u = cunits[c];
    const auto& unit = (*w_.units)[u];
    const std::size_t nu = unit.size();
    std::vector<Vec3d> upos(nu);
    std::vector<Vec3i> ulat(nu);
    std::vector<Vec3l> uvel(nu);
    for (std::size_t k = 0; k < nu; ++k) {
      AtomState& st = nd.atoms.at(unit[k]);
      ulat[k] = st.pos;
      upos[k] = lat().to_phys(st.pos);
      uvel[k] = st.vel;
    }
    if (!shake_unit(np_, unit, (*w_.group_constraints)[u], w_.acfg->sim.dt,
                    refs[c], upos, ulat, uvel))
      throw std::runtime_error("WorkerRuntime: SHAKE failed to converge");
    for (std::size_t k = 0; k < nu; ++k) {
      AtomState& st = nd.atoms.at(unit[k]);
      st.pos = ulat[k];
      st.vel = uvel[k];
    }
  }
}

void WorkerRuntime::finish_drift() {
  const Topology& tp = top();
  if (tp.virtual_sites.empty()) return;
  NodeState& nd = nd_;
  // Parent position dispatch for off-node virtual sites.
  std::vector<std::vector<AtomRecord>> out(w_.nnodes);
  std::vector<int> dsts;
  for (const auto& [sb, ids] : nd.bins) {
    for (std::int32_t a : ids) {
      if ((*w_.vsite_feed)[a].empty()) continue;
      dsts.clear();
      for (std::int32_t site : (*w_.vsite_feed)[a]) {
        const int dst = directory_[site];
        if (dst == rank_) continue;
        if (std::find(dsts.begin(), dsts.end(), dst) == dsts.end())
          dsts.push_back(dst);
      }
      const Vec3i p = nd.atoms.at(a).pos;
      for (int dst : dsts) out[dst].push_back({a, p});
    }
  }
  for (int dst = 0; dst < w_.nnodes; ++dst) {
    if (out[dst].empty()) continue;
    deliver(led_.bond, kChBond, dst,
            wire::BondPositions{std::move(out[dst])});
  }
  link_.flush();
  barrier();  // site rebuild reads the parent positions
  for (std::int32_t k : nd.vsites) {
    const VirtualSite& v = tp.virtual_sites[k];
    AtomState& st = nd.atoms.at(v.site);
    st.pos = rebuild_virtual_site(np_, v, lat().to_phys(pos_of(v.o)),
                                  lat().to_phys(pos_of(v.h1)),
                                  lat().to_phys(pos_of(v.h2)));
    st.vel = {0, 0, 0};
  }
}

void WorkerRuntime::rattle_groups() {
  if (top().constraints.empty()) return;
  NodeState& nd = nd_;
  for (std::int32_t u : nd.units) {
    if ((*w_.group_constraints)[u].empty()) continue;
    const auto& unit = (*w_.units)[u];
    const std::size_t nu = unit.size();
    std::vector<Vec3d> upos(nu);
    std::vector<Vec3l> uvel(nu);
    for (std::size_t k = 0; k < nu; ++k) {
      const AtomState& st = nd.atoms.at(unit[k]);
      upos[k] = lat().to_phys(st.pos);
      uvel[k] = st.vel;
    }
    if (!rattle_unit(np_, unit, (*w_.group_constraints)[u], upos, uvel))
      throw std::runtime_error("WorkerRuntime: RATTLE failed to converge");
    for (std::size_t k = 0; k < nu; ++k)
      nd.atoms.at(unit[k]).vel = uvel[k];
  }
}

void WorkerRuntime::apply_thermostat() {
  // The one order-sensitive double reduction of the cycle: per-atom
  // kinetic terms are gathered to rank 0 and summed in global atom-index
  // order, exactly the engine's loop order.
  const Topology& tp = top();
  wire::KineticTerms out;
  out.id.reserve(nd_.atoms.size());
  out.term.reserve(nd_.atoms.size());
  for (const auto& [id, st] : nd_.atoms) {
    out.id.push_back(id);
    out.term.push_back(kinetic_term(tp.mass[id], st.vel));
  }
  if (!out.id.empty()) deliver(led_.reduce, kChReduce, 0, std::move(out));
  link_.flush();
  barrier();  // rank 0 sums in global atom-index order
  if (rank_ == 0) {
    double mv2 = 0.0;
    for (std::int32_t i = 0; i < tp.natoms; ++i) mv2 += red_kin_[i];
    const int k = std::max(1, w_.acfg->sim.long_range_every);
    const double lambda = thermostat_lambda(tp, mv2, k * w_.acfg->sim.dt,
                                            w_.acfg->sim.target_temperature,
                                            w_.acfg->sim.berendsen_tau);
    for (int n = 0; n < w_.nnodes; ++n)
      deliver(led_.reduce, kChReduce, n, wire::ScaleVelocities{lambda});
    link_.flush();
  }
  barrier();
}

// ---------------------------------------------------------------------------
// Migration by message.
// ---------------------------------------------------------------------------

void WorkerRuntime::migrate_by_message() {
  NodeState& nd = nd_;
  std::vector<std::vector<std::int32_t>> move_units(w_.nnodes);
  std::int64_t moved_atoms = 0;
  for (std::int32_t u : nd.units) {
    const std::int32_t head = (*w_.units)[u][0];
    const Vec3i sb =
        w_.geom->subbox_of(lat().to_phys(nd.atoms.at(head).pos));
    unit_sb_[u] = w_.geom->index_of(sb);
    const int dst = w_.geom->node_index_of(sb);
    if (dst != rank_) move_units[dst].push_back(u);
  }
  wire::DirectoryUpdate moved;
  for (int dst = 0; dst < w_.nnodes; ++dst) {
    if (move_units[dst].empty()) continue;
    // The sender evicts the unit and updates its directory replica
    // immediately; the receiver's copy (and everyone else's directory
    // entries) land via the reliable channel.
    wire::MigrationBatch payload;
    for (std::int32_t u : move_units[dst]) {
      for (std::int32_t a : (*w_.units)[u]) {
        payload.id.push_back(a);
        payload.atoms.push_back(nd.atoms.at(a));
        nd.atoms.erase(a);
        directory_[a] = dst;
        moved.id.push_back(a);
        moved.home.push_back(dst);
      }
    }
    moved_atoms += static_cast<std::int64_t>(payload.id.size());
    deliver(led_.migration, kChMigration, dst, std::move(payload));
  }
  // Directory announcement: every other rank learns the new homes.
  if (moved_atoms > 0)
    for (int o = 0; o < w_.nnodes; ++o)
      if (o != rank_) deliver(led_.migration, kChMigration, o, moved);
  link_.flush();
  barrier();  // unit reassignment reads the migrated atom states

  // Rescan ownership from the settled directory. Subbox assignments are
  // recomputed for every unit now homed here -- including arrivals, whose
  // unit_sb entry this rank never saw -- from the head atom's position,
  // which is deterministic and identical to what the sender computed.
  nd.units.clear();
  for (std::size_t u = 0; u < w_.units->size(); ++u)
    if (directory_[(*w_.units)[u][0]] == rank_)
      nd.units.push_back(static_cast<std::int32_t>(u));
  for (std::int32_t u : nd.units) {
    const std::int32_t head = (*w_.units)[u][0];
    const Vec3i sb =
        w_.geom->subbox_of(lat().to_phys(nd.atoms.at(head).pos));
    unit_sb_[u] = w_.geom->index_of(sb);
  }
  rebuild_node_bins_and_terms(top(), *w_.units, unit_sb_, directory_, rank_,
                              nd_);
}

}  // namespace anton::parallel
