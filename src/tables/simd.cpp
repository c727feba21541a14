#include "tables/simd.hpp"

namespace anton::tables::simd {

const char* isa_name(Isa isa) {
  return isa == Isa::kAvx2 ? "avx2" : "x86_64";
}

bool host_supports(Isa isa) {
  if (isa == Isa::kX86_64) return true;
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();  // a no-op once libgcc's constructor has run
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

Isa active_isa() {
  static const Isa isa =
      host_supports(Isa::kAvx2) ? Isa::kAvx2 : Isa::kX86_64;
  return isa;
}

}  // namespace anton::tables::simd
