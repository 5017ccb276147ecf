#ifndef CFNET_UTIL_SIMD_INTERNAL_H_
#define CFNET_UTIL_SIMD_INTERNAL_H_

#include <cstddef>
#include <cstdint>

// Internal to util/simd*: the per-backend kernel table and the shared
// lane-combine helper. Each backend TU (simd.cc scalar+SSE2, simd_avx2.cc,
// simd_neon.cc) fills a Kernels with its vector forms; any slot may point
// at the canonical scalar function — that is bit-identical by contract.

namespace cfnet::simd::internal {

struct Kernels {
  const char* name;
  double (*dot)(const double*, const double*, size_t);
  double (*sum)(const double*, size_t);
  double (*sum_sq_diff)(const double*, size_t, double);
  double (*clamped_step_dot)(const double*, const double*, double, double,
                             double, double*, size_t);
  void (*axpy)(double, const double*, double*, size_t);
  void (*add)(double*, const double*, size_t);
  void (*sub)(double*, const double*, size_t);
  void (*clamped_sub)(double*, const double*, const double*, size_t);
  uint64_t (*and_popcount)(const uint64_t*, const uint64_t*, size_t);
};

/// The fixed pairwise combine tree over the 16 virtual lanes. Every
/// backend (and the scalar canonical form) must fold its lane array
/// through exactly this expression — it is part of the bit-identity
/// contract, so keep it in one place.
inline double CombineLanes(const double lane[16]) {
  const double a = (lane[0] + lane[1]) + (lane[2] + lane[3]);
  const double b = (lane[4] + lane[5]) + (lane[6] + lane[7]);
  const double c = (lane[8] + lane[9]) + (lane[10] + lane[11]);
  const double d = (lane[12] + lane[13]) + (lane[14] + lane[15]);
  return (a + b) + (c + d);
}

/// AVX2 table, or nullptr when unsupported (not compiled in, or the
/// runtime CPU check failed). Defined in simd_avx2.cc.
const Kernels* GetAvx2Kernels();

/// NEON table, or nullptr off aarch64. Defined in simd_neon.cc.
const Kernels* GetNeonKernels();

}  // namespace cfnet::simd::internal

#endif  // CFNET_UTIL_SIMD_INTERNAL_H_
