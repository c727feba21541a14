// Hot-kernel benchmark: the scalar per-pair/per-point datapaths against
// the SoA batched paths the engines actually run (eval_pair_block,
// spread_atom/interpolate_atom, TieredTable::eval_fixed_n).
//
// Every section first PROVES bitwise identity -- the batched path must
// reproduce the scalar path's forces, mesh sums and counters exactly, the
// same invariant the golden-trajectory fixtures gate -- and only then
// times both. The mesh and table sections do so for every instruction-
// set clone of the lane kernels the host can run (tables/simd.hpp), and
// time each; "batched" is the clone the dispatcher picked. A mismatch
// exits nonzero, so this binary doubles as the scalar-vs-SIMD check in
// scripts/check.sh --kernels.
//
// Writes a machine-readable summary (BENCH_kernels.json by default, path
// overridable via argv[1]); EXPERIMENTS.md documents how to read it.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "ewald/gse.hpp"
#include "fixed/fixed.hpp"
#include "fixed/lattice.hpp"
#include "htis/pair_kernels.hpp"
#include "pairlist/exclusion_table.hpp"
#include "parallel/node_program.hpp"
#include "sysgen/systems.hpp"
#include "tables/simd.hpp"
#include "tables/tiered_table.hpp"
#include "util/rng.hpp"

using anton::System;
using anton::Vec3d;
using anton::Vec3i;
using anton::Vec3l;
using anton::tables::simd::Isa;
namespace fixedp = anton::fixed;
namespace par = anton::parallel;
namespace simd = anton::tables::simd;

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One instruction-set clone's run of a batched section.
struct IsaResult {
  Isa isa = Isa::kX86_64;
  double ns = 0.0;  // per op
  bool bitwise = false;
};

struct SectionResult {
  std::string name;
  std::int64_t ops = 0;        // per sweep
  double scalar_ns = 0.0;      // per op
  double batched_ns = 0.0;     // per op, the dispatched clone
  double speedup = 0.0;
  bool bitwise = false;        // every clone run
  std::vector<IsaResult> by_isa;  // clones the host can run
};

/// The benchmark harness state: one solvated system binned into
/// cutoff-sized cells, with the same NodeProgram context the engines use.
struct Harness {
  System sys;
  anton::fixed::PositionLattice lat;
  anton::ewald::GseParams gse_params;
  anton::htis::PairKernels kernels;
  anton::pairlist::ExclusionTable excl;
  std::unique_ptr<anton::ewald::Gse> gse;
  par::NodeProgram np;

  std::vector<Vec3i> lpos;                         // lattice positions
  std::vector<std::vector<std::int32_t>> bins;     // scalar path bins
  std::vector<par::BinSoA> soa;                    // SoA path bins
  std::vector<std::pair<int, int>> bin_pairs;      // (tower, plate), t==p ok

  explicit Harness(System s, double cutoff, int mesh)
      : sys(std::move(s)), lat(sys.box),
        gse_params(anton::ewald::GseParams::for_cutoff(cutoff, mesh)),
        excl(sys.top) {
    anton::htis::PairKernelParams tp;
    tp.cutoff = cutoff;
    tp.beta = gse_params.beta;
    tp.sigma_s = gse_params.sigma_s;
    tp.rs = gse_params.rs;
    tp.mantissa_bits = 22;  // the engine default (table_mantissa_bits)
    kernels = anton::htis::PairKernels(tp, sys.top.lj_types);
    gse = std::make_unique<anton::ewald::Gse>(sys.box, gse_params);

    np.top = &sys.top;
    np.box = &sys.box;
    np.lat = &lat;
    np.kernels = &kernels;
    np.excl = &excl;
    np.gse = gse.get();
    np.gse_params = gse_params;
    const double cut_lat = cutoff / lat.lsb().x;
    np.r2_limit_lattice = static_cast<std::uint64_t>(cut_lat * cut_lat);
    np.lat2_to_phys2 = lat.lsb().x * lat.lsb().x;
    np.have_molecules = !sys.top.molecule.empty();

    // Bin into cutoff-sized cells and enumerate self + half-stencil bin
    // pairs -- the same (tower, plate) workload shape as the NT loop.
    const double side = sys.box.side().x;
    const int nc = std::max(1, static_cast<int>(side / cutoff));
    const auto cell_of = [&](const Vec3d& r) {
      Vec3i c;
      const Vec3d w = sys.box.wrap(r);
      c.x = std::min(nc - 1, static_cast<int>((w.x / side + 0.5) * nc));
      c.y = std::min(nc - 1, static_cast<int>((w.y / side + 0.5) * nc));
      c.z = std::min(nc - 1, static_cast<int>((w.z / side + 0.5) * nc));
      return c;
    };
    const auto idx_of = [&](int x, int y, int z) {
      const auto m = [&](int v) { return ((v % nc) + nc) % nc; };
      return (m(z) * nc + m(y)) * nc + m(x);
    };
    bins.assign(static_cast<std::size_t>(nc) * nc * nc, {});
    lpos.resize(sys.positions.size());
    for (std::size_t i = 0; i < sys.positions.size(); ++i) {
      lpos[i] = lat.to_lattice(sys.positions[i]);
      const Vec3i c = cell_of(sys.positions[i]);
      bins[static_cast<std::size_t>(idx_of(c.x, c.y, c.z))].push_back(
          static_cast<std::int32_t>(i));
    }
    soa.resize(bins.size());
    for (std::size_t b = 0; b < bins.size(); ++b) {
      soa[b].reserve(bins[b].size());
      for (std::int32_t a : bins[b]) soa[b].push_atom(sys.top, a, lpos[a]);
    }
    // Half stencil: 13 neighbor offsets + the self pair, deduplicated
    // (small nc wraps distinct offsets onto the same neighbor).
    static const int off[13][3] = {
        {1, 0, 0},  {0, 1, 0},  {0, 0, 1},  {1, 1, 0},  {1, -1, 0},
        {1, 0, 1},  {1, 0, -1}, {0, 1, 1},  {0, 1, -1}, {1, 1, 1},
        {1, 1, -1}, {1, -1, 1}, {1, -1, -1}};
    std::vector<std::vector<bool>> seen(
        bins.size(), std::vector<bool>(bins.size(), false));
    for (int z = 0; z < nc; ++z)
      for (int y = 0; y < nc; ++y)
        for (int x = 0; x < nc; ++x) {
          const int t = idx_of(x, y, z);
          bin_pairs.emplace_back(t, t);
          for (const auto& o : off) {
            const int p = idx_of(x + o[0], y + o[1], z + o[2]);
            if (p == t) continue;
            const int lo = std::min(t, p), hi = std::max(t, p);
            if (seen[static_cast<std::size_t>(lo)]
                    [static_cast<std::size_t>(hi)])
              continue;
            seen[static_cast<std::size_t>(lo)]
                [static_cast<std::size_t>(hi)] = true;
            bin_pairs.emplace_back(t, p);
          }
        }
  }
};

// --- pair section -----------------------------------------------------------

struct PairSweep {
  std::vector<Vec3l> f;
  par::PairBlockCounters counters;
};

PairSweep pair_sweep_scalar(const Harness& h) {
  PairSweep s;
  s.f.assign(h.sys.positions.size(), Vec3l{0, 0, 0});
  for (const auto& [tidx, pidx] : h.bin_pairs) {
    const auto& tower = h.bins[static_cast<std::size_t>(tidx)];
    const auto& plate = h.bins[static_cast<std::size_t>(pidx)];
    const bool same = tidx == pidx;
    for (std::size_t a = 0; a < tower.size(); ++a) {
      const std::int32_t i0 = tower[a];
      const Vec3i pi = h.lpos[static_cast<std::size_t>(i0)];
      for (std::size_t b = same ? a + 1 : 0; b < plate.size(); ++b) {
        const std::int32_t j0 = plate[b];
        ++s.counters.considered;
        const par::PairResult pr = par::eval_pair(
            h.np, i0, j0, pi, h.lpos[static_cast<std::size_t>(j0)], false);
        if (pr.status == par::PairStatus::kFailedMatch) continue;
        ++s.counters.queued;
        if (pr.status != par::PairStatus::kComputed) continue;
        ++s.counters.computed;
        auto& flo = s.f[static_cast<std::size_t>(pr.lo)];
        auto& fhi = s.f[static_cast<std::size_t>(pr.hi)];
        flo.x = fixedp::wrap_add(flo.x, pr.f.x);
        flo.y = fixedp::wrap_add(flo.y, pr.f.y);
        flo.z = fixedp::wrap_add(flo.z, pr.f.z);
        fhi.x = fixedp::wrap_sub(fhi.x, pr.f.x);
        fhi.y = fixedp::wrap_sub(fhi.y, pr.f.y);
        fhi.z = fixedp::wrap_sub(fhi.z, pr.f.z);
      }
    }
  }
  return s;
}

PairSweep pair_sweep_block(const Harness& h, par::PairBlockScratch& scr) {
  PairSweep s;
  s.f.assign(h.sys.positions.size(), Vec3l{0, 0, 0});
  for (const auto& [tidx, pidx] : h.bin_pairs) {
    par::PairBlockCounters pc;
    par::eval_pair_block(h.np, h.soa[static_cast<std::size_t>(tidx)],
                         h.soa[static_cast<std::size_t>(pidx)], tidx == pidx,
                         scr, pc);
    s.counters.considered += pc.considered;
    s.counters.queued += pc.queued;
    s.counters.computed += pc.computed;
    for (const par::PairHit& ph : scr.hits) {
      auto& flo = s.f[static_cast<std::size_t>(ph.lo)];
      auto& fhi = s.f[static_cast<std::size_t>(ph.hi)];
      flo.x = fixedp::wrap_add(flo.x, ph.f.x);
      flo.y = fixedp::wrap_add(flo.y, ph.f.y);
      flo.z = fixedp::wrap_add(flo.z, ph.f.z);
      fhi.x = fixedp::wrap_sub(fhi.x, ph.f.x);
      fhi.y = fixedp::wrap_sub(fhi.y, ph.f.y);
      fhi.z = fixedp::wrap_sub(fhi.z, ph.f.z);
    }
  }
  return s;
}

// --- mesh sections ----------------------------------------------------------

template <class Fn>
double time_sweeps(int reps, Fn&& fn);

std::vector<std::int64_t> spread_scalar(const Harness& h) {
  std::vector<std::int64_t> mesh(h.gse->mesh_total(), 0);
  for (std::size_t i = 0; i < h.sys.positions.size(); ++i) {
    const double qi = h.sys.top.charge[i];
    h.gse->for_each_mesh_point(
        h.sys.positions[i],
        [&](std::size_t idx, const Vec3d&, double r2) {
          mesh[idx] = fixedp::wrap_add(
              mesh[idx],
              fixedp::quantize(qi * h.kernels.eval_spread(r2),
                               par::kMeshChargeScale));
        });
  }
  return mesh;
}

std::vector<std::int64_t> spread_batched(const Harness& h, Isa isa,
                                         par::MeshScratch& ms) {
  std::vector<std::int64_t> mesh(h.gse->mesh_total(), 0);
  for (std::size_t i = 0; i < h.sys.positions.size(); ++i) {
    par::detail::spread_atom(
        isa, h.np, h.sys.top.charge[i], h.sys.positions[i], ms,
        [&](std::size_t idx, std::int64_t dq) {
          mesh[idx] = fixedp::wrap_add(mesh[idx], dq);
        },
        nullptr);
  }
  return mesh;
}

std::vector<Vec3l> interp_scalar(const Harness& h,
                                 const std::vector<std::int64_t>& phi_q) {
  std::vector<Vec3l> f(h.sys.positions.size(), Vec3l{0, 0, 0});
  const double h3 = std::pow(h.gse->mesh_spacing(), 3);
  const double inv_s2 =
      1.0 / (h.gse_params.sigma_s * h.gse_params.sigma_s);
  for (std::size_t i = 0; i < h.sys.positions.size(); ++i) {
    const double pref = h.sys.top.charge[i] * h3 * inv_s2;
    Vec3l acc{0, 0, 0};
    h.gse->for_each_mesh_point(
        h.sys.positions[i],
        [&](std::size_t idx, const Vec3d& d, double r2) {
          const double phi =
              static_cast<double>(phi_q[idx]) / par::kPhiScale;
          const double c = pref * phi * h.kernels.eval_interp(r2);
          acc.x = fixedp::wrap_add(
              acc.x, fixedp::quantize(c * d.x, fixedp::kForceScale));
          acc.y = fixedp::wrap_add(
              acc.y, fixedp::quantize(c * d.y, fixedp::kForceScale));
          acc.z = fixedp::wrap_add(
              acc.z, fixedp::quantize(c * d.z, fixedp::kForceScale));
        });
    f[i] = acc;
  }
  return f;
}

std::vector<Vec3l> interp_batched(const Harness& h, Isa isa,
                                  const std::vector<std::int64_t>& phi_q,
                                  par::MeshScratch& ms) {
  std::vector<Vec3l> f(h.sys.positions.size(), Vec3l{0, 0, 0});
  for (std::size_t i = 0; i < h.sys.positions.size(); ++i) {
    f[i] = par::detail::interpolate_atom(
        isa, h.np, h.sys.top.charge[i], h.sys.positions[i], ms,
        [&](std::size_t idx) { return phi_q[idx]; }, nullptr);
  }
  return f;
}

/// Checks and times `batched(isa)` on every clone the host can run
/// against the scalar reference `ref`; the dispatched clone's time is
/// the section's batched time.
template <class Ref, class Batched>
void run_clones(SectionResult& s, int reps, const Ref& ref,
                Batched&& batched) {
  s.bitwise = true;
  for (const Isa isa : simd::kAllIsas) {
    if (!simd::host_supports(isa)) continue;
    IsaResult r;
    r.isa = isa;
    r.bitwise = batched(isa) == ref;
    r.ns = time_sweeps(reps, [&] { batched(isa); }) * 1e9 /
           static_cast<double>(s.ops);
    s.bitwise = s.bitwise && r.bitwise;
    if (isa == simd::active_isa()) s.batched_ns = r.ns;
    s.by_isa.push_back(r);
  }
  s.speedup = s.scalar_ns / s.batched_ns;
}

// --- harness plumbing -------------------------------------------------------

template <class Fn>
double time_sweeps(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_seconds();
    fn();
    best = std::min(best, now_seconds() - t0);
  }
  return best;
}

bool forces_equal(const std::vector<Vec3l>& a, const std::vector<Vec3l>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].x != b[i].x || a[i].y != b[i].y || a[i].z != b[i].z)
      return false;
  return true;
}

/// Vec3l has no operator==; run_clones compares force lists with this.
struct Forces {
  std::vector<Vec3l> f;
  bool operator==(const Forces& o) const { return forces_equal(f, o.f); }
};

void print_section(const SectionResult& s) {
  std::printf("%-8s %10lld ops   scalar %8.2f ns/op   batched %8.2f ns/op"
              "   speedup %5.2fx   bitwise %s\n",
              s.name.c_str(), static_cast<long long>(s.ops), s.scalar_ns,
              s.batched_ns, s.speedup, s.bitwise ? "OK" : "MISMATCH");
  for (const IsaResult& r : s.by_isa)
    std::printf("    %-6s clone %8.2f ns/op   bitwise %s%s\n",
                simd::isa_name(r.isa), r.ns, r.bitwise ? "OK" : "MISMATCH",
                r.isa == simd::active_isa() ? "   (dispatched)" : "");
}

/// The host's AVX-512F flag, recorded beside the clones (there is no
/// AVX-512 clone).
bool host_avx512f() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f");
#else
  return false;
#endif
}

void write_json(const std::string& path, int natoms, double scale,
                const std::vector<SectionResult>& sections) {
  std::ostringstream out;
  bench::StreamStateGuard guard(out);
  out.setf(std::ios::fixed);
  out.precision(3);
  const auto flag = [](bool b) { return b ? "true" : "false"; };
  out << "{\n  \"bench\": \"kernels\",\n  \"system\": \"peptide_solvated\","
      << "\n  \"natoms\": " << natoms << ",\n  \"scale\": " << scale
      << ",\n  \"isa\": {\"dispatched\": \""
      << simd::isa_name(simd::active_isa())
      << "\", \"host_avx2\": " << flag(simd::host_supports(Isa::kAvx2))
      << ", \"host_avx512f\": " << flag(host_avx512f()) << "}"
      << ",\n  \"sections\": [\n";
  for (std::size_t i = 0; i < sections.size(); ++i) {
    const SectionResult& s = sections[i];
    out << "    {\"name\": \"" << s.name << "\", \"ops\": " << s.ops
        << ", \"scalar_ns_per_op\": " << s.scalar_ns
        << ", \"batched_ns_per_op\": " << s.batched_ns
        << ", \"speedup\": " << s.speedup << ", \"bitwise\": "
        << flag(s.bitwise);
    if (!s.by_isa.empty()) {
      out << ", \"by_isa\": {";
      for (std::size_t j = 0; j < s.by_isa.size(); ++j)
        out << (j ? ", " : "") << "\"" << simd::isa_name(s.by_isa[j].isa)
            << "\": {\"batched_ns_per_op\": " << s.by_isa[j].ns
            << ", \"bitwise\": " << flag(s.by_isa[j].bitwise) << "}";
      out << "}";
    }
    out << "}" << (i + 1 < sections.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::ofstream f(path);
  f << out.str();
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = bench::run_scale();
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_kernels.json";
  const int reps = std::max(3, static_cast<int>(3 * scale));

  bench::header("hot-kernel scalar vs SoA-batched (bitwise-checked)");
  Harness h(anton::sysgen::build_test_system(400, 21.0, 1234, true, 40),
            7.0, 32);
  const int natoms = static_cast<int>(h.sys.positions.size());
  std::printf("system: %d atoms, %zu bins, %zu bin pairs, cutoff 7 A\n",
              natoms, h.bins.size(), h.bin_pairs.size());
  std::printf("host: avx2 %s, avx512f %s; dispatched clone: %s\n\n",
              simd::host_supports(Isa::kAvx2) ? "yes" : "no",
              host_avx512f() ? "yes" : "no",
              simd::isa_name(simd::active_isa()));

  std::vector<SectionResult> sections;
  bool all_ok = true;

  // Pair datapath: match unit -> compaction -> batched PPIP tables.
  {
    par::PairBlockScratch scr;
    const PairSweep ref = pair_sweep_scalar(h);
    const PairSweep got = pair_sweep_block(h, scr);
    SectionResult s;
    s.name = "pair";
    s.ops = ref.counters.considered;
    s.bitwise = forces_equal(ref.f, got.f) &&
                ref.counters.considered == got.counters.considered &&
                ref.counters.queued == got.counters.queued &&
                ref.counters.computed == got.counters.computed;
    const double ts = time_sweeps(reps, [&] { pair_sweep_scalar(h); });
    const double tb = time_sweeps(reps, [&] { pair_sweep_block(h, scr); });
    s.scalar_ns = ts * 1e9 / static_cast<double>(s.ops);
    s.batched_ns = tb * 1e9 / static_cast<double>(s.ops);
    s.speedup = ts / tb;
    print_section(s);
    all_ok = all_ok && s.bitwise;
    sections.push_back(std::move(s));
  }

  // Charge spreading (atom -> mesh) and force interpolation (mesh -> atom).
  std::vector<std::int64_t> phi_q;
  {
    par::MeshScratch ms;
    const std::vector<std::int64_t> ref = spread_scalar(h);
    phi_q = ref;  // reuse the spread mesh as a deterministic potential
    std::int64_t ops = 0;
    for (std::size_t i = 0; i < h.sys.positions.size(); ++i)
      h.gse->for_each_mesh_point(h.sys.positions[i],
                                 [&](std::size_t, const Vec3d&, double) {
                                   ++ops;
                                 });
    SectionResult s;
    s.name = "spread";
    s.ops = ops;
    s.scalar_ns = time_sweeps(reps, [&] { spread_scalar(h); }) * 1e9 /
                  static_cast<double>(s.ops);
    run_clones(s, reps, ref,
               [&](Isa isa) { return spread_batched(h, isa, ms); });
    print_section(s);
    all_ok = all_ok && s.bitwise;
    sections.push_back(std::move(s));
  }
  {
    par::MeshScratch ms;
    const Forces ref{interp_scalar(h, phi_q)};
    SectionResult s;
    s.name = "interp";
    s.ops = sections.back().ops;  // same (atom, mesh point) visit count
    s.scalar_ns = time_sweeps(reps, [&] { interp_scalar(h, phi_q); }) *
                  1e9 / static_cast<double>(s.ops);
    run_clones(s, reps, ref, [&](Isa isa) {
      return Forces{interp_batched(h, isa, phi_q, ms)};
    });
    print_section(s);
    all_ok = all_ok && s.bitwise;
    sections.push_back(std::move(s));
  }

  // Raw tiered-table sweep (the PPIP function evaluator itself).
  {
    auto fn = [](double u) { return std::exp(-3.0 * u) / (u + 0.01); };
    const auto table = anton::tables::TieredTable::build(
        fn, anton::tables::TieredLayout::anton_default(), 22, 0.005);
    const std::size_t n = 1 << 16;
    std::vector<double> u(n), ref(n), got(n);
    anton::Xoshiro256 rng(7);
    for (auto& v : u) v = rng.uniform(0.0, 1.0);
    for (std::size_t i = 0; i < n; ++i) ref[i] = table.eval_fixed(u[i]);
    SectionResult s;
    s.name = "table";
    s.ops = static_cast<std::int64_t>(n);
    s.scalar_ns = time_sweeps(reps, [&] {
                    for (std::size_t i = 0; i < n; ++i)
                      got[i] = table.eval_fixed(u[i]);
                  }) *
                  1e9 / static_cast<double>(n);
    run_clones(s, reps, ref, [&](Isa isa) {
      anton::tables::detail::eval_fixed_n(isa, table, u.data(), got.data(),
                                          n);
      return got;
    });
    print_section(s);
    all_ok = all_ok && s.bitwise;
    sections.push_back(std::move(s));
  }

  write_json(json_path, natoms, scale, sections);
  bench::print_timings();
  if (!all_ok) {
    std::fprintf(stderr,
                 "FAIL: batched kernel output diverged from scalar\n");
    return 1;
  }
  return 0;
}
