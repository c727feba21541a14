// mdperf: the workload runner of the repository benchmark.
//
// One process runs one workload. It builds the system from --seed, times
// set-up, warms up, times single MTS cycles for --seconds (with a host speed
// probe between them; times are reported at nominal host speed), and checks
// the final state hash against a 1-lane AntonEngine reference run after the
// timed region. The last line of standard output is one JSON result:
// end-to-end metrics with --trace 0, per-layer metrics (from a separate
// traced segment, the existing obs::Tracer spans and the exact workload /
// ledger / wire counters) with --trace 1. NOTES.md defines every metric.
//
// Build and run through run.py, which compiles this file together with the
// library sources (CMakeLists.txt beside it).
#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/anton_engine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/virtual_machine.hpp"
#include "sysgen/systems.hpp"

#ifndef MDPERF_COMPILER
#define MDPERF_COMPILER "unknown"
#endif
#ifndef MDPERF_FLAGS
#define MDPERF_FLAGS "unknown"
#endif
#ifndef MDPERF_BUILD_TYPE
#define MDPERF_BUILD_TYPE "unknown"
#endif

namespace {

using anton::System;
using anton::Vec3i;
using anton::core::AntonConfig;
using anton::core::AntonEngine;
using anton::parallel::VirtualMachine;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Share of the MTS cycle the top-level phase spans must cover in a traced
/// run; a lower share means time the spans do not account for.
constexpr double kMinSpanCoverage = 0.95;

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

/// The golden-fixture system: ~230 atoms, 70 waters + a 20-atom peptide.
System peptide_solvated(std::uint64_t seed) {
  return anton::sysgen::build_test_system(70, 14.0, seed, true, 20);
}

/// The golden recipe scaled to a 29 A box at the same water density:
/// ~1.9k atoms, 620 waters + a 20-atom peptide. (Denser boxes or a 60-atom
/// peptide stop with "SHAKE failed to converge" within 150 cycles on some
/// seeds; NOTES.md lists them.)
System peptide_1k9(std::uint64_t seed) {
  return anton::sysgen::build_test_system(620, 29.0, seed, true, 20);
}

/// The golden-fixture engine configuration (cutoff 7, mesh 16, one long-
/// range evaluation per inner step).
AntonConfig golden_config(const Vec3i& grid) {
  AntonConfig c;
  c.sim.cutoff = 7.0;
  c.sim.mesh = 16;
  c.sim.dt = 2.5;
  c.sim.long_range_every = 1;
  c.node_grid = grid;
  c.subbox_div = {1, 1, 1};
  c.migration_interval = 4;
  c.import_margin = 3.0;
  return c;
}

/// The thread-scaling configuration (cutoff 8, mesh 32, 2x2x2 nodes of
/// 2x2x2 subboxes, long-range every other step), with the Berendsen
/// thermostat at 300 K: without it, seed 513 of peptide_1k9 stops with
/// "SHAKE failed to converge" at cycle 89 (NOTES.md).
AntonConfig pairs_config(const Vec3i& grid) {
  AntonConfig c;
  c.sim.cutoff = 8.0;
  c.sim.mesh = 32;
  c.sim.dt = 2.5;
  c.sim.long_range_every = 2;
  c.sim.thermostat = true;
  c.node_grid = grid;
  c.subbox_div = {2, 2, 2};
  return c;
}

struct Workload {
  const char* name;
  bool vm;        // VirtualMachine (inproc) instead of AntonEngine
  int lanes;      // engine lanes; the VM runs one thread per rank
  Vec3i grid;     // node grid of the measured runtime
  Vec3i ref_grid; // node grid of the 1-lane reference engine
  System (*build)(std::uint64_t);
  AntonConfig (*config)(const Vec3i&);
};

/// Set-up is timed this often per run; the median is reported.
constexpr int kSetupRepeats = 7;
/// Host probes after each set-up repeat (and before the first).
constexpr int kSetupProbes = 3;
/// Cycles right after warm-up over which a traced run takes its counts.
constexpr int kCountCycles = 8;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = {
      {"engine_mesh_1t", false, 1, {1, 1, 1}, {2, 2, 2}, &peptide_solvated,
       &golden_config},
      {"engine_pairs_3t", false, 3, {2, 2, 2}, {2, 2, 2}, &peptide_1k9,
       &pairs_config},
      {"vm_inproc_2rank", true, 1, {2, 1, 1}, {1, 1, 1}, &peptide_solvated,
       &golden_config},
  };
  return w;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (name == w.name) return &w;
  return nullptr;
}

/// The measured runtime: an engine or an in-process VirtualMachine.
struct Instance {
  std::unique_ptr<AntonEngine> eng;
  std::unique_ptr<VirtualMachine> vm;

  void run_cycles(int n) { eng ? eng->run_cycles(n) : vm->run_cycles(n); }
  std::uint64_t state_hash() const {
    return eng ? eng->state_hash() : vm->state_hash();
  }
  void set_tracer(anton::obs::Tracer* t) {
    eng ? eng->set_tracer(t) : vm->set_tracer(t);
  }
  const anton::core::WorkloadProfile& workload() {
    return eng ? eng->workload() : vm->workload();
  }
  void reset_workload() { eng ? eng->reset_workload() : vm->reset_workload(); }
};

Instance make_instance(const Workload& w, System sys, int lanes) {
  AntonConfig cfg = w.config(w.grid);
  cfg.nthreads = lanes;
  Instance in;
  if (w.vm)
    in.vm = std::make_unique<VirtualMachine>(std::move(sys), cfg);
  else
    in.eng = std::make_unique<AntonEngine>(std::move(sys), cfg);
  return in;
}

/// Final state hash of the 1-lane AntonEngine on the reference grid after
/// `cycles` MTS cycles. The golden contract makes it equal to the hash of
/// every lane count, node grid and runtime after as many cycles.
std::uint64_t reference_hash(const Workload& w, std::uint64_t seed,
                             int cycles) {
  AntonConfig cfg = w.config(w.ref_grid);
  cfg.nthreads = 1;
  AntonEngine ref(w.build(seed), cfg);
  ref.run_cycles(cycles);
  return ref.state_hash();
}

// ---------------------------------------------------------------------------
// Host and statistics helpers.
// ---------------------------------------------------------------------------

int host_nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return 1;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

/// Resident anonymous memory (RssAnon) in MB: the heap and stacks the
/// program allocated, without the file-backed pages of the executable and
/// libraries, whose residency depends on the page cache.
double anon_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("RssAnon:", 0) == 0)
      return std::strtod(line.c_str() + 8, nullptr) / 1024.0;  // kB
  return 0.0;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile: with n >= 100 samples, at least ten lie above
/// the 90th.
double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string hex(std::uint64_t h) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// Ordered name -> (value, unit) list, printed as the result's "metrics".
class Metrics {
 public:
  void add(const std::string& name, double value, const char* unit) {
    items_.push_back({name, value, unit});
  }
  std::string json() const {
    std::string s = "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      if (i) s += ", ";
      s += "\"" + items_[i].name + "\": {\"value\": " + num(items_[i].value) +
           ", \"unit\": \"" + items_[i].unit + "\"}";
    }
    return s + "}";
  }

 private:
  struct Item {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Item> items_;
};

// ---------------------------------------------------------------------------
// Host speed.
// ---------------------------------------------------------------------------

/// A fixed memory-bound probe, run between the timed intervals to measure
/// how fast the host is at that moment. The benchmark hosts share their
/// caches and memory with other tenants: one engine_mesh_1t run read
/// 148 ms per cycle in one 6 s window and 104 ms in the next, with no steal
/// time, and the probe changed with it (cycle time / probe time stayed
/// within ~5%). Timed values are therefore reported at the nominal host
/// speed: divided by (probe time / nominal probe time). The probe is part
/// of the benchmark, not of the library, so a library change cannot move it.
class HostProbe {
 public:
  /// `threads` copies of the kernel run in parallel, one per busy thread
  /// of the workload, so a host that cannot give the workload all its
  /// CPUs at once also shows in the probe.
  explicit HostProbe(int threads)
      : threads_(std::clamp(threads, 1, 3)),
        grids_(static_cast<std::size_t>(threads_),
               std::vector<double>(kGridDoubles)) {}

  int threads() const { return threads_; }

  /// Wall time of one probe in ms.
  double run() {
    const Clock::time_point t0 = Clock::now();
    std::vector<std::thread> extra;
    for (std::size_t t = 1; t < grids_.size(); ++t)
      extra.emplace_back(scatter, std::ref(grids_[t]));
    scatter(grids_[0]);
    for (std::thread& th : extra) th.join();
    return 1e3 * seconds_since(t0);
  }

  /// Median probe time (ms) on the host the bounds in BENCHMARK.json were
  /// measured on (4-vCPU Intel Xeon VM, GCC 12, RelWithDebInfo -O2), taken
  /// between the cycles of the workloads that use this many threads. A
  /// value at nominal speed is what that host gives when it runs the probe
  /// this fast.
  double nominal_ms() const {
    static constexpr double kNominal[] = {5.0, 5.4, 6.5};
    return kNominal[threads_ - 1];
  }

  /// Host speed factor: the median of the probe times over the nominal
  /// probe time (> 1: the host is slower than nominal).
  double factor(std::vector<double> probe_ms) const {
    return median(std::move(probe_ms)) / nominal_ms();
  }

  /// Host speed factor around sample i: that of probes i-2..i+2.
  double factor_at(const std::vector<double>& probe_ms, std::size_t i) const {
    const std::size_t lo = i < 2 ? 0 : i - 2;
    const std::size_t hi = std::min(probe_ms.size(), i + 3);
    return factor(std::vector<double>(probe_ms.begin() + lo,
                                      probe_ms.begin() + hi));
  }

 private:
  static constexpr std::size_t kGridDoubles = 32 * 32 * 32;  // 256 KiB
  static constexpr int kScatters = 400000;

  /// Scatter-adds 8 strided values at each of kScatters pseudo-random
  /// offsets (a 64-bit LCG), like charge spreading onto a 32^3 mesh.
  static void scatter(std::vector<double>& g) {
    std::uint64_t r = 12345;
    for (int i = 0; i < kScatters; ++i) {
      r = r * 6364136223846793005ull + 1442695040888963407ull;
      const std::size_t base = (r >> 33) % (g.size() - 64);
      for (int k = 0; k < 8; ++k) g[base + 8 * k] += 1e-3 * k;
    }
  }

  int threads_;
  std::vector<std::vector<double>> grids_;
};

// ---------------------------------------------------------------------------
// Measurement.
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int min_cycles = 100;
  int warmup_cycles = 3;
  std::uint64_t reference_xor = 0;  // self-test: corrupt the reference
  std::string trace_out;            // chrome trace path (--trace 1)
};

struct Setup {
  Instance inst;
  // Medians over the repeats. setup_s is at nominal host speed; raw_setup_s,
  // build_s and init_s are wall times.
  double setup_s = 0.0, raw_setup_s = 0.0, build_s = 0.0, init_s = 0.0;
  double peak_rss_mb = 0.0;  // largest sample of the kept instance so far
};

/// Builds the system and the runtime kSetupRepeats times and reports the
/// medians. Each repeat is set to nominal host speed by the single-thread
/// probes taken right before and right after it (set-up runs mostly on one
/// thread; probing with the workload's thread count over-corrected it on a
/// contended host). The last instance is kept and warmed up. The earlier
/// ones are released first and their free heap is handed back to the
/// system, so the memory samples see the kept instance only.
Setup timed_setup(const Workload& w, const Options& o, int lanes) {
  HostProbe probe(1);
  auto probes = [&probe] {
    std::vector<double> ms;
    for (int i = 0; i < kSetupProbes; ++i) ms.push_back(probe.run());
    return ms;
  };
  std::vector<double> total, nominal, build, init;
  std::vector<double> before = probes();
  Setup s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    if (r + 1 == kSetupRepeats) malloc_trim(0);
    const Clock::time_point t0 = Clock::now();
    System sys = w.build(o.seed);
    const double tb = seconds_since(t0);
    Instance in = make_instance(w, std::move(sys), lanes);
    const double tt = seconds_since(t0);
    if (r + 1 == kSetupRepeats) s.inst = std::move(in);
    in = Instance{};
    std::vector<double> around = probes();
    around.insert(around.end(), before.begin(), before.end());
    before.assign(around.begin(), around.begin() + kSetupProbes);
    total.push_back(tt);
    nominal.push_back(tt / probe.factor(std::move(around)));
    build.push_back(tb);
    init.push_back(tt - tb);
  }
  s.peak_rss_mb = anon_rss_mb();
  s.inst.run_cycles(o.warmup_cycles);
  s.peak_rss_mb = std::max(s.peak_rss_mb, anon_rss_mb());
  s.setup_s = median(nominal);
  s.raw_setup_s = median(total);
  s.build_s = median(build);
  s.init_s = median(init);
  return s;
}

struct CycleTimes {
  std::vector<double> raw_ms;    // wall time of each cycle
  std::vector<double> probe_ms;  // host probe right after each cycle
  std::vector<double> ms;        // raw_ms at nominal host speed
};

/// Runs single cycles until `seconds` have elapsed and at least
/// `min_cycles` ran. After every cycle, outside its timed interval, the
/// host is probed and memory is sampled into `peak_rss_mb`.
CycleTimes timed_cycles(Instance& in, HostProbe& probe, double seconds,
                        int min_cycles, double& peak_rss_mb) {
  CycleTimes t;
  const Clock::time_point start = Clock::now();
  while (static_cast<int>(t.raw_ms.size()) < min_cycles ||
         seconds_since(start) < seconds) {
    const Clock::time_point t0 = Clock::now();
    in.run_cycles(1);
    t.raw_ms.push_back(1e3 * seconds_since(t0));
    t.probe_ms.push_back(probe.run());
    peak_rss_mb = std::max(peak_rss_mb, anon_rss_mb());
  }
  for (std::size_t i = 0; i < t.raw_ms.size(); ++i)
    t.ms.push_back(t.raw_ms[i] / probe.factor_at(t.probe_ms, i));
  return t;
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

/// Span durations (ms) summed by name on one track.
std::map<std::string, double> track_totals(const anton::obs::Tracer& t,
                                           int tid, int depth) {
  std::map<std::string, double> out;
  for (const auto& sp : t.spans())
    if (sp.tid == tid && (depth < 0 || sp.depth == depth))
      out[sp.name] += sp.dur_us * 1e-3;
  return out;
}

double at(const std::map<std::string, double>& m, const char* key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

/// Counts over the count window (they repeat exactly for a seed).
struct Counts {
  anton::core::NodeCounters work;  // summed over nodes
  std::int64_t lane_chunks = 0;
  std::int64_t frames = 0, wire_bytes = 0, fft_frames = 0, mesh_bytes = 0;
};

/// Runs the count window: kCountCycles cycles right after warm-up, so
/// the counts cover the same cycles on every run of a seed.
Counts count_window(Instance& in, int lanes) {
  anton::obs::MetricsRegistry registry(lanes);
  in.reset_workload();
  if (in.eng) in.eng->set_metrics(&registry);
  anton::parallel::CommLedger led0;
  anton::parallel::WireStats ws0;
  if (in.vm) {
    led0 = in.vm->ledger();
    ws0 = in.vm->wire()->stats();
  }
  for (int c = 0; c < kCountCycles; ++c) in.run_cycles(1);
  Counts c;
  for (const auto& n : in.workload().nodes) c.work += n;
  if (in.eng) {
    c.lane_chunks = registry.counter_by_name("engine.lane_chunks");
    in.eng->set_metrics(nullptr);
  } else {
    const auto& led = in.vm->ledger();
    const auto& ws = in.vm->wire()->stats();
    c.frames = ws.roundtrips - ws0.roundtrips;
    c.wire_bytes = ws.bytes - ws0.bytes;
    c.fft_frames = led.fft.messages - led0.fft.messages;
    c.mesh_bytes = led.mesh.bytes - led0.mesh.bytes;
  }
  return c;
}

/// The traced segment: per-layer metrics from the spans of `seconds` of
/// traced cycles plus the counts. Returns false when the top-level spans
/// leave an unaccounted gap in the MTS cycle.
bool traced_metrics(const Workload& w, Instance& in, const Options& o,
                    int lanes, Setup& su, const Counts& c, HostProbe& probe,
                    double untraced_ms, double seconds, int* cycles_run,
                    Metrics& m) {
  const AntonConfig cfg = w.config(w.grid);
  const int k = std::max(1, cfg.sim.long_range_every);
  anton::obs::Tracer tracer;
  in.set_tracer(&tracer);
  const CycleTimes ct = timed_cycles(in, probe, seconds, 1, su.peak_rss_mb);
  in.set_tracer(nullptr);
  const double ncyc = static_cast<double>(ct.raw_ms.size());
  *cycles_run = static_cast<int>(ct.raw_ms.size());

  // Phase times in ms per cycle. Engine: track 0. VM: one track per rank
  // (rank + 1); ewald/htis/... take the sum over ranks, parallel.* the
  // per-rank maximum (the rank the cycle waits for).
  std::map<std::string, double> ph, rank_max;
  double coverage = 1.0, serial_share = 0.0, cycle = 0.0;
  if (in.eng) {
    ph = track_totals(tracer, 0, -1);
    cycle = at(ph, "mts_cycle");
    double top = 0.0;
    for (const auto& [name, ms] : track_totals(tracer, 0, 1)) top += ms;
    coverage = top / cycle;
    serial_share =
        (at(ph, "integrate") + at(ph, "migrate") + at(ph, "gse.fft")) / cycle;
  } else {
    for (int r = 0; r < in.vm->node_count(); ++r) {
      const auto rk = track_totals(tracer, r + 1, -1);
      double inside = 0.0;
      for (const auto& [name, ms] : rk) {
        ph[name] += ms;
        rank_max[name] = std::max(rank_max[name], ms);
        if (name != "vm.mts_cycle") inside += ms;
      }
      coverage = std::min(coverage, inside / at(rk, "vm.mts_cycle"));
    }
    cycle = at(rank_max, "vm.mts_cycle");
  }
  auto phase = [&](const char* eng_name, const char* vm_name) {
    return at(ph, in.eng ? eng_name : vm_name) / ncyc;
  };
  auto rmax = [&](const char* vm_name) { return at(rank_max, vm_name) / ncyc; };

  const double count_steps = static_cast<double>(kCountCycles * k);
  const double per_cycle = 1.0 / static_cast<double>(kCountCycles);
  const auto& wk = c.work;
  const double spread_ms = phase("gse.spread", "vm.gse.spread");
  const double interp_ms = phase("gse.interpolate", "vm.gse.interpolate");
  const double rl_ms = phase("range_limited", "vm.compute");
  const double mesh_ops =
      static_cast<double>(wk.spread_ops + wk.interp_ops) * per_cycle;
  const double pairs = static_cast<double>(wk.pairs_considered);
  const double mesh3 = std::pow(static_cast<double>(cfg.sim.mesh), 3);

  m.add("ewald.spread_ms", spread_ms, "ms");
  m.add("ewald.interpolate_ms", interp_ms, "ms");
  m.add("ewald.spread_ops_per_step", wk.spread_ops / count_steps, "count");
  m.add("ewald.interp_ops_per_step", wk.interp_ops / count_steps, "count");
  m.add("ewald.ns_per_mesh_op", 1e6 * (spread_ms + interp_ms) / mesh_ops,
        "ns");
  m.add("ewald.mesh_reduce_bytes_per_step",
        in.eng ? lanes * mesh3 * 8.0 / k : 0.0, "B");
  m.add("fft.convolve_ms", phase("gse.fft", "vm.gse.fft"), "ms");
  m.add("htis.range_limited_ms", rl_ms, "ms");
  m.add("nt.pairs_considered_per_step", pairs / count_steps, "count");
  m.add("htis.interactions_per_step", wk.interactions / count_steps, "count");
  m.add("htis.match_efficiency", wk.interactions / pairs, "ratio");
  m.add("htis.ns_per_pair", 1e6 * rl_ms / (pairs * per_cycle), "ns");
  m.add("integrate.integrate_ms", phase("integrate", "vm.integrate"), "ms");
  m.add("bonded.bonded_ms", phase("bonded", "vm.bond_terms"), "ms");
  m.add("core.correction_ms", phase("correction", "vm.correction"), "ms");
  m.add("core.force_reduce_ms",  // the VM has no lane-shard reduction
        in.eng ? at(ph, "force_reduce") / ncyc : 0.0, "ms");
  m.add("core.migrate_ms", phase("migrate", "vm.migrate"), "ms");
  m.add("core.serial_share", serial_share, "ratio");
  m.add("util.lane_chunks_per_step", c.lane_chunks / count_steps, "count");
  m.add("parallel.frames_per_step", c.frames / count_steps, "count");
  m.add("parallel.wire_bytes_per_step", c.wire_bytes / count_steps, "B");
  m.add("parallel.fft_frames_per_step", c.fft_frames / count_steps, "count");
  m.add("parallel.mesh_bytes_per_step", c.mesh_bytes / count_steps, "B");
  m.add("parallel.fft_ms", rmax("vm.gse.fft"), "ms");
  m.add("parallel.spread_ms", rmax("vm.gse.spread"), "ms");
  m.add("parallel.interpolate_ms", rmax("vm.gse.interpolate"), "ms");
  m.add("parallel.force_return_ms", rmax("vm.force_return"), "ms");
  m.add("parallel.position_multicast_ms", rmax("vm.position_multicast"),
        "ms");
  m.add("sysgen.build_s", su.build_s, "s");
  m.add("core.init_s", su.init_s, "s");
  m.add("obs.trace_overhead", (sum(ct.ms) / ncyc) / untraced_ms - 1.0,
        "ratio");
  m.add("obs.span_coverage", coverage, "ratio");
  // Wall time of run_cycles(1) outside the (slowest rank's) MTS cycle span:
  // on the VM, the coordinator's state gather and report collection.
  m.add("obs.outside_cycle_ms", (sum(ct.raw_ms) - cycle) / ncyc, "ms");

  if (!o.trace_out.empty()) {
    std::ofstream out(o.trace_out);
    out << tracer.chrome_json();
    if (!out) std::fprintf(stderr, "mdperf: cannot write %s\n",
                           o.trace_out.c_str());
  }
  return coverage >= kMinSpanCoverage;
}

// ---------------------------------------------------------------------------
// Self-test: the generated System is a pure function of the seed.
// ---------------------------------------------------------------------------

class Fnv {
 public:
  template <class T>
  void add(const T& v) {
    unsigned char b[sizeof(T)];
    std::memcpy(b, &v, sizeof(T));
    for (unsigned char c : b) h_ = (h_ ^ c) * 1099511628211ull;
  }
  template <class T>
  void add_all(const std::vector<T>& v) {
    add(v.size());
    for (const T& x : v) add(x);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

std::uint64_t system_hash(const System& s) {
  Fnv h;
  h.add(s.box.side().x);
  h.add(s.box.side().y);
  h.add(s.box.side().z);
  for (const auto& p : s.positions) h.add(p.x), h.add(p.y), h.add(p.z);
  for (const auto& v : s.velocities) h.add(v.x), h.add(v.y), h.add(v.z);
  const anton::Topology& t = s.top;
  h.add(t.natoms);
  h.add_all(t.mass);
  h.add_all(t.charge);
  h.add_all(t.type);
  h.add_all(t.molecule);
  for (const auto& b : t.bonds) h.add(b.i), h.add(b.j), h.add(b.k), h.add(b.r0);
  h.add(t.angles.size());
  h.add(t.dihedrals.size());
  h.add(t.exclusions.size());
  h.add(t.constraints.size());
  h.add(t.virtual_sites.size());
  return h.value();
}

/// Every workload's system generator: the same seed gives a bitwise-identical
/// System, the next seed a different one.
bool selftest_sysgen(std::uint64_t seed) {
  bool ok = true;
  for (const Workload& w : workloads()) {
    const std::uint64_t a = system_hash(w.build(seed));
    const std::uint64_t b = system_hash(w.build(seed));
    const std::uint64_t c = system_hash(w.build(seed + 1));
    const bool same = a == b, differs = a != c;
    std::printf("%s: seed %llu %s, seed %llu %s\n", w.name,
                static_cast<unsigned long long>(seed),
                same ? "reproduces bitwise" : "DOES NOT REPRODUCE",
                static_cast<unsigned long long>(seed + 1),
                differs ? "differs" : "DOES NOT DIFFER");
    ok = ok && same && differs;
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Command line and the run.
// ---------------------------------------------------------------------------

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "mdperf: %s\n"
               "usage: mdperf --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE] [--min-cycles N] "
               "[--reference-xor N]\n"
               "       mdperf --selftest-sysgen --seed N\n"
               "workloads:",
               msg);
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::uint64_t parse_u64(const char* s) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 0);
  if (!end || *end != '\0') usage("bad integer argument");
  return v;
}

int run(const Options& o) {
  const Workload* wp = find_workload(o.workload);
  if (!wp) usage("unknown workload");
  const Workload& w = *wp;
  const int nproc = host_nproc();
  const int lanes = std::min(w.lanes, nproc);
  const AntonConfig cfg = w.config(w.grid);
  const int k = std::max(1, cfg.sim.long_range_every);

  const int ranks = w.grid.x * w.grid.y * w.grid.z;

  Setup su = timed_setup(w, o, lanes);
  Instance& in = su.inst;
  HostProbe probe(w.vm ? ranks : lanes);

  Metrics m;
  std::string raw;  // wall-clock values, for the provenance
  int counted = 0, timed = 0, traced = 0;
  bool spans_ok = true;
  if (!o.trace) {
    const CycleTimes ct =
        timed_cycles(in, probe, o.seconds, o.min_cycles, su.peak_rss_mb);
    timed = static_cast<int>(ct.ms.size());
    const double sim_ns = timed * k * cfg.sim.dt * 1e-6;
    m.add("ns_per_day", sim_ns / (1e-3 * sum(ct.ms)) * 86400.0, "ns/day");
    m.add("cycle_ms_p50", median(ct.ms), "ms");
    m.add("cycle_ms_p90", percentile(ct.ms, 90.0), "ms");
    m.add("setup_s", su.setup_s, "s");
    m.add("peak_rss_mb", su.peak_rss_mb, "MB");
    raw = "\"probe_ms\": " + num(median(ct.probe_ms)) +
          ", \"raw_ns_per_day\": " +
          num(sim_ns / (1e-3 * sum(ct.raw_ms)) * 86400.0) +
          ", \"raw_cycle_ms_p50\": " + num(median(ct.raw_ms)) +
          ", \"raw_cycle_ms_p90\": " + num(percentile(ct.raw_ms, 90.0)) +
          ", \"raw_setup_s\": " + num(su.raw_setup_s) + ", ";
  } else {
    const Counts c = count_window(in, lanes);
    const CycleTimes ct =
        timed_cycles(in, probe, o.seconds / 2.0, 1, su.peak_rss_mb);
    counted = kCountCycles;
    timed = static_cast<int>(ct.ms.size());
    spans_ok = traced_metrics(w, in, o, lanes, su, c, probe,
                              sum(ct.ms) / static_cast<double>(timed),
                              o.seconds / 2.0, &traced, m);
  }

  const int total_cycles = o.warmup_cycles + counted + timed + traced;
  const std::uint64_t got = in.state_hash();
  su.inst = Instance{};  // release before the reference run
  const std::uint64_t want =
      reference_hash(w, o.seed, total_cycles) ^ o.reference_xor;
  const bool hash_ok = got == want;
  if (!hash_ok)
    std::fprintf(stderr,
                 "mdperf: %s seed %llu: state hash %s after %d cycles, "
                 "reference %s\n",
                 w.name, static_cast<unsigned long long>(o.seed),
                 hex(got).c_str(), total_cycles, hex(want).c_str());
  if (!spans_ok)
    std::fprintf(stderr,
                 "mdperf: %s: top-level spans cover less than %.0f%% of "
                 "the MTS cycle\n",
                 w.name, 100.0 * kMinSpanCoverage);
  const bool correct = hash_ok && spans_ok;

  std::printf(
      "provenance: {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"runtime\": \"%s\", \"lanes\": %d, \"ranks\": %d, \"nproc\": %d, "
      "\"cpu_model\": \"%s\", \"compiler\": \"%s\", \"flags\": \"%s\", "
      "\"build_type\": \"%s\", \"setup_repeats\": %d, "
      "\"warmup_cycles\": %d, \"timed_cycles\": %d, \"traced_cycles\": %d, "
      "\"count_cycles\": %d, \"probe_threads\": %d, "
      "\"nominal_probe_ms\": %s, %s\"state_hash\": \"%s\", "
      "\"reference_hash\": \"%s\"}\n",
      w.name, static_cast<unsigned long long>(o.seed), o.trace ? 1 : 0,
      w.vm ? "VirtualMachine/inproc" : "AntonEngine", w.vm ? 1 : lanes,
      w.vm ? ranks : 0, nproc,
      json_escape(cpu_model()).c_str(), json_escape(MDPERF_COMPILER).c_str(),
      json_escape(MDPERF_FLAGS).c_str(), json_escape(MDPERF_BUILD_TYPE).c_str(),
      kSetupRepeats, o.warmup_cycles, timed, traced, counted,
      probe.threads(), num(probe.nominal_ms()).c_str(), raw.c_str(),
      hex(got).c_str(), hex(want).c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": 1, \"failed\": %d, \"metrics\": %s}\n",
      correct ? "true" : "false", correct ? 0 : 1, m.json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto val = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") o.workload = val();
    else if (a == "--seed") o.seed = parse_u64(val());
    else if (a == "--seconds") o.seconds = std::atof(val());
    else if (a == "--trace") o.trace = parse_u64(val()) != 0;
    else if (a == "--trace-out") o.trace_out = val();
    else if (a == "--min-cycles") o.min_cycles = static_cast<int>(parse_u64(val()));
    else if (a == "--reference-xor") o.reference_xor = parse_u64(val());
    else if (a == "--selftest-sysgen") selftest = true;
    else usage(("unknown argument " + a).c_str());
  }
  try {
    if (selftest) return selftest_sysgen(o.seed) ? 0 : 1;
    if (o.seconds <= 0.0) usage("--seconds must be positive");
    return run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mdperf: %s\n", e.what());
    return 1;
  }
}
