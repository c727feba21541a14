// Golden-trajectory regression tests: the committed fixtures in
// tests/golden/ pin the exact fixed-point trajectory of two seed systems.
// Any change to kernel tables, quantization, pair enumeration or
// integration order that alters even one bit of state shows up here.
//
// Each (system, steps) pair has ONE golden hash; the engine's bitwise
// invariance to thread count and node decomposition means every
// {1,2,4}-thread x {1x1x1, 2x2x2}-grid combination must reproduce it.
// If a change is *intended* to alter the trajectory, regenerate with
// scripts/regen_golden.sh and commit the new fixtures with the change.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "golden_common.hpp"

#ifndef ANTON_GOLDEN_DIR
#error "ANTON_GOLDEN_DIR must point at the committed fixture directory"
#endif

namespace {

using anton::Vec3i;

// Parses "steps N hash HEX" lines; '#' lines are comments.
std::map<int, std::uint64_t> load_fixture(const std::string& name) {
  const std::string path = std::string(ANTON_GOLDEN_DIR) + "/" + name +
                           ".txt";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing fixture " << path
                         << " (run scripts/regen_golden.sh)";
  std::map<int, std::uint64_t> fx;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string kw_steps, kw_hash, hex;
    int steps = 0;
    ls >> kw_steps >> steps >> kw_hash >> hex;
    if (kw_steps != "steps" || kw_hash != "hash" || hex.empty()) {
      ADD_FAILURE() << "malformed fixture line: " << line;
      continue;
    }
    fx[steps] = std::stoull(hex, nullptr, 16);
  }
  return fx;
}

struct RunConfig {
  Vec3i grid;
  int nthreads;
};

class GoldenTrajectory
    : public ::testing::TestWithParam<std::tuple<int, RunConfig>> {};

// One test per (case index, run configuration): runs the trajectory and
// compares every recorded step count against the committed hash.
TEST_P(GoldenTrajectory, MatchesFixture) {
  const auto& gc =
      anton::golden::golden_cases()[std::get<0>(GetParam())];
  const RunConfig rc = std::get<1>(GetParam());
  const auto fixture = load_fixture(gc.name);
  ASSERT_EQ(fixture.size(), anton::golden::golden_steps().size());

  const auto hashes = anton::golden::run_case(gc, rc.grid, rc.nthreads);
  const auto& steps = anton::golden::golden_steps();
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const auto it = fixture.find(steps[i]);
    ASSERT_NE(it, fixture.end())
        << gc.name << ": fixture lacks steps=" << steps[i];
    EXPECT_EQ(hashes[i], it->second)
        << gc.name << " diverged from golden trajectory at steps="
        << steps[i] << " (grid " << rc.grid.x << "x" << rc.grid.y << "x"
        << rc.grid.z << ", " << rc.nthreads << " threads)";
  }
}

std::string param_name(
    const ::testing::TestParamInfo<std::tuple<int, RunConfig>>& info) {
  const auto& gc = anton::golden::golden_cases()[std::get<0>(info.param)];
  const RunConfig rc = std::get<1>(info.param);
  std::ostringstream os;
  os << gc.name << "_grid" << rc.grid.x << rc.grid.y << rc.grid.z << "_t"
     << rc.nthreads;
  return os.str();
}

INSTANTIATE_TEST_SUITE_P(
    AllCases, GoldenTrajectory,
    ::testing::Combine(::testing::Values(0, 1),
                       ::testing::Values(RunConfig{{1, 1, 1}, 1},
                                         RunConfig{{1, 1, 1}, 2},
                                         RunConfig{{1, 1, 1}, 4},
                                         RunConfig{{2, 2, 2}, 1},
                                         RunConfig{{2, 2, 2}, 2},
                                         RunConfig{{2, 2, 2}, 4})),
    param_name);

// The message-passing VirtualMachine runtime against the SAME fixtures:
// a completely different execution (per-node memories, explicit
// mailboxes, distributed FFT) must land on the engine's committed hashes
// on every node grid, including across the migration boundary at step 4.
class VmGoldenTrajectory
    : public ::testing::TestWithParam<std::tuple<int, Vec3i>> {};

TEST_P(VmGoldenTrajectory, MatchesFixture) {
  const auto& gc =
      anton::golden::golden_cases()[std::get<0>(GetParam())];
  const Vec3i grid = std::get<1>(GetParam());
  const auto fixture = load_fixture(gc.name);
  ASSERT_EQ(fixture.size(), anton::golden::golden_steps().size());

  const auto hashes = anton::golden::run_case_vm(gc, grid);
  const auto& steps = anton::golden::golden_steps();
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const auto it = fixture.find(steps[i]);
    ASSERT_NE(it, fixture.end())
        << gc.name << ": fixture lacks steps=" << steps[i];
    EXPECT_EQ(hashes[i], it->second)
        << gc.name << " (VM) diverged from golden trajectory at steps="
        << steps[i] << " (grid " << grid.x << "x" << grid.y << "x"
        << grid.z << ")";
  }
}

std::string vm_param_name(
    const ::testing::TestParamInfo<std::tuple<int, Vec3i>>& info) {
  const auto& gc = anton::golden::golden_cases()[std::get<0>(info.param)];
  const Vec3i g = std::get<1>(info.param);
  std::ostringstream os;
  os << gc.name << "_grid" << g.x << g.y << g.z;
  return os.str();
}

INSTANTIATE_TEST_SUITE_P(AllCases, VmGoldenTrajectory,
                         ::testing::Combine(::testing::Values(0, 1),
                                            ::testing::Values(
                                                Vec3i{1, 1, 1},
                                                Vec3i{2, 2, 2},
                                                Vec3i{4, 2, 1})),
                         vm_param_name);

// The cross-backend conformance matrix: the same VM trajectories with
// every frame serialized and pushed through each byte transport --
// in-process with decode-verify on (proving the fast path is the identity
// it claims to be), shared-memory rings to forked workers, and TCP
// loopback sockets. All of them must land on the committed engine hashes:
// the wire is an implementation detail of delivery, never of physics.
struct WireBackend {
  const char* tag;
  anton::parallel::TransportOptions topts;
};

inline std::vector<WireBackend> wire_backends() {
  using anton::parallel::TransportKind;
  WireBackend inproc{"inproc_verify", {}};
  inproc.topts.verify = true;
  WireBackend shm{"shmfork", {}};
  shm.topts.kind = TransportKind::kShmFork;
  WireBackend tcp{"tcp", {}};
  tcp.topts.kind = TransportKind::kTcp;
  return {inproc, shm, tcp};
}

class VmTransportGoldenTrajectory
    : public ::testing::TestWithParam<std::tuple<int, Vec3i, int>> {};

TEST_P(VmTransportGoldenTrajectory, MatchesFixture) {
  const auto& gc =
      anton::golden::golden_cases()[std::get<0>(GetParam())];
  const Vec3i grid = std::get<1>(GetParam());
  const WireBackend be = wire_backends()[std::get<2>(GetParam())];
  const auto fixture = load_fixture(gc.name);
  ASSERT_EQ(fixture.size(), anton::golden::golden_steps().size());

  std::vector<std::uint64_t> hashes;
  try {
    hashes = anton::golden::run_case_vm(gc, grid, be.topts);
  } catch (const anton::parallel::TransportError& e) {
    // Sockets or fork may be unavailable in restricted sandboxes; that is
    // an environment limitation, not a conformance failure.
    GTEST_SKIP() << be.tag << " backend unavailable here: " << e.what();
  }
  const auto& steps = anton::golden::golden_steps();
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const auto it = fixture.find(steps[i]);
    ASSERT_NE(it, fixture.end())
        << gc.name << ": fixture lacks steps=" << steps[i];
    EXPECT_EQ(hashes[i], it->second)
        << gc.name << " over " << be.tag
        << " diverged from golden trajectory at steps=" << steps[i]
        << " (grid " << grid.x << "x" << grid.y << "x" << grid.z << ")";
  }
}

std::string wire_param_name(
    const ::testing::TestParamInfo<std::tuple<int, Vec3i, int>>& info) {
  const auto& gc = anton::golden::golden_cases()[std::get<0>(info.param)];
  const Vec3i g = std::get<1>(info.param);
  std::ostringstream os;
  os << gc.name << "_grid" << g.x << g.y << g.z << "_"
     << wire_backends()[std::get<2>(info.param)].tag;
  return os.str();
}

INSTANTIATE_TEST_SUITE_P(AllBackends, VmTransportGoldenTrajectory,
                         ::testing::Combine(::testing::Values(0, 1),
                                            ::testing::Values(
                                                Vec3i{1, 1, 1},
                                                Vec3i{2, 2, 2},
                                                Vec3i{4, 2, 1}),
                                            ::testing::Values(0, 1, 2)),
                         wire_param_name);

}  // namespace

// golden_config() sets sim.mesh = 16 and a 7 A cutoff, but resolved_gse()
// derives parameters only when gse.mesh == 0, and GseParams defaults to
// mesh 32. Every fixture was therefore recorded at the GseParams
// defaults. Pinned here so that making sim.mesh take effect -- which
// changes every trajectory -- is a deliberate fixture regeneration, not
// a silent side effect.
TEST(GoldenConfig, ResolvedGseIsPinned) {
  const anton::ewald::GseParams g =
      anton::golden::golden_config({1, 1, 1}, 1).sim.resolved_gse();
  EXPECT_EQ(g.mesh, 32);
  EXPECT_EQ(g.beta, 0.35);
  EXPECT_EQ(g.sigma_s, 1.0);
  EXPECT_EQ(g.rs, 5.0);
}
