// Instruction-set clones of the lane kernels.
//
// The PPIP-emulation hot kernels (the tiered-table pipeline, the GSE
// spread/interpolate rows) are written once, as four-wide double lanes
// (tables/lanes.hpp), and compiled twice: for the baseline x86-64 target
// the project builds for, and for AVX2 (without FMA, so no multiply-add
// is ever contracted). The host is probed once, and every dispatcher
// routes to the best clone it can run. Both clones are bitwise equal to
// the scalar reference paths; the detail:: entry points that take an Isa
// exist so tests and benchmarks can run each clone on any host.
#pragma once

namespace anton::tables::simd {

enum class Isa { kX86_64, kAvx2 };

/// Every clone, in ascending order of capability.
inline constexpr Isa kAllIsas[] = {Isa::kX86_64, Isa::kAvx2};

/// Short name of a clone ("x86_64", "avx2").
const char* isa_name(Isa isa);

/// True when this host can run the clone.
bool host_supports(Isa isa);

/// The clone every dispatcher uses: the most capable one the host
/// supports, probed once per process.
Isa active_isa();

}  // namespace anton::tables::simd
