// AVX2 kernel tier. This TU is the only one compiled with -mavx2 (see
// util/CMakeLists.txt), so the vector codegen cannot leak into portable
// code; a one-time __builtin_cpu_supports check gates dispatch at runtime.
// -mfma is deliberately NOT enabled: a contracted multiply-add would round
// differently from the scalar canonical forms and break bit-identity.
//
// Lane layout: the 16 virtual lanes live in four __m256d accumulators
// (accumulator q holds lanes 4q..4q+3); the main loops step 16 elements
// and the scalar tail continues the same lanes, exactly like the scalar
// canonical forms in simd.cc.

#include "util/simd.h"
#include "util/simd_internal.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <bit>

namespace cfnet::simd::internal {
namespace {

double DotAvx2(const double* a, const double* b, size_t n) {
  __m256d acc[4];
  for (auto& v : acc) v = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    for (size_t q = 0; q < 4; ++q) {
      acc[q] = _mm256_add_pd(
          acc[q], _mm256_mul_pd(_mm256_loadu_pd(a + i + 4 * q),
                                _mm256_loadu_pd(b + i + 4 * q)));
    }
  }
  double lane[kVirtualLanes];
  for (size_t q = 0; q < 4; ++q) _mm256_storeu_pd(lane + 4 * q, acc[q]);
  for (; i < n; ++i) lane[i & 15] += a[i] * b[i];
  return CombineLanes(lane);
}

double SumAvx2(const double* a, size_t n) {
  __m256d acc[4];
  for (auto& v : acc) v = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    for (size_t q = 0; q < 4; ++q) {
      acc[q] = _mm256_add_pd(acc[q], _mm256_loadu_pd(a + i + 4 * q));
    }
  }
  double lane[kVirtualLanes];
  for (size_t q = 0; q < 4; ++q) _mm256_storeu_pd(lane + 4 * q, acc[q]);
  for (; i < n; ++i) lane[i & 15] += a[i];
  return CombineLanes(lane);
}

double SumSqDiffAvx2(const double* a, size_t n, double center) {
  const __m256d vc = _mm256_set1_pd(center);
  __m256d acc[4];
  for (auto& v : acc) v = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    for (size_t q = 0; q < 4; ++q) {
      const __m256d d = _mm256_sub_pd(_mm256_loadu_pd(a + i + 4 * q), vc);
      acc[q] = _mm256_add_pd(acc[q], _mm256_mul_pd(d, d));
    }
  }
  double lane[kVirtualLanes];
  for (size_t q = 0; q < 4; ++q) _mm256_storeu_pd(lane + 4 * q, acc[q]);
  for (; i < n; ++i) {
    const double d = a[i] - center;
    lane[i & 15] += d * d;
  }
  return CombineLanes(lane);
}

double ClampedStepDotAvx2(const double* x, const double* g, double step,
                          double lo, double hi, double* cand, size_t n) {
  const __m256d vstep = _mm256_set1_pd(step);
  const __m256d vlo = _mm256_set1_pd(lo);
  const __m256d vhi = _mm256_set1_pd(hi);
  __m256d acc[4];
  for (auto& v : acc) v = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    for (size_t q = 0; q < 4; ++q) {
      const __m256d vx = _mm256_loadu_pd(x + i + 4 * q);
      const __m256d vg = _mm256_loadu_pd(g + i + 4 * q);
      // MAXPD/MINPD return the second operand on NaN — the same
      // compare-select semantics the scalar canonical form spells out.
      __m256d t = _mm256_add_pd(vx, _mm256_mul_pd(vstep, vg));
      t = _mm256_max_pd(t, vlo);
      t = _mm256_min_pd(t, vhi);
      _mm256_storeu_pd(cand + i + 4 * q, t);
      acc[q] = _mm256_add_pd(acc[q], _mm256_mul_pd(vg, _mm256_sub_pd(t, vx)));
    }
  }
  double lane[kVirtualLanes];
  for (size_t q = 0; q < 4; ++q) _mm256_storeu_pd(lane + 4 * q, acc[q]);
  for (; i < n; ++i) {
    double t = x[i] + step * g[i];
    t = (t > lo) ? t : lo;
    t = (t < hi) ? t : hi;
    cand[i] = t;
    lane[i & 15] += g[i] * (t - x[i]);
  }
  return CombineLanes(lane);
}

void AxpyAvx2(double alpha, const double* x, double* y, size_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_add_pd(_mm256_loadu_pd(y + i),
                             _mm256_mul_pd(va, _mm256_loadu_pd(x + i))));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void AddAvx2(double* y, const double* x, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), _mm256_loadu_pd(x + i)));
  }
  for (; i < n; ++i) y[i] += x[i];
}

void SubAvx2(double* y, const double* x, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_sub_pd(_mm256_loadu_pd(y + i), _mm256_loadu_pd(x + i)));
  }
  for (; i < n; ++i) y[i] -= x[i];
}

void ClampedSubAvx2(double* out, const double* a, const double* b, size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d t =
        _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    _mm256_storeu_pd(out + i, _mm256_max_pd(t, zero));
  }
  for (; i < n; ++i) {
    const double t = a[i] - b[i];
    out[i] = (t > 0.0) ? t : 0.0;
  }
}

/// Nibble-LUT popcount (VPSHUFB) with per-128-bit-lane byte sums folded
/// into 64-bit counters via VPSADBW — integer-exact, so unconstrained by
/// the lane contract.
uint64_t AndPopcountAvx2(const uint64_t* a, const uint64_t* b, size_t n) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i zero = _mm256_setzero_si256();
  __m256i acc = zero;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v = _mm256_and_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i)));
    const __m256i lo = _mm256_and_si256(v, low_mask);
    const __m256i hi = _mm256_and_si256(_mm256_srli_epi32(v, 4), low_mask);
    const __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                        _mm256_shuffle_epi8(lut, hi));
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(cnt, zero));
  }
  alignas(32) uint64_t lanes[4];
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), acc);
  uint64_t s = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  for (; i < n; ++i) s += static_cast<uint64_t>(std::popcount(a[i] & b[i]));
  return s;
}

const Kernels kAvx2Kernels = {
    "avx2",
    DotAvx2,
    SumAvx2,
    SumSqDiffAvx2,
    ClampedStepDotAvx2,
    AxpyAvx2,
    AddAvx2,
    SubAvx2,
    ClampedSubAvx2,
    AndPopcountAvx2,
};

}  // namespace

const Kernels* GetAvx2Kernels() {
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return supported ? &kAvx2Kernels : nullptr;
}

}  // namespace cfnet::simd::internal

#else  // !__AVX2__

namespace cfnet::simd::internal {
const Kernels* GetAvx2Kernels() { return nullptr; }
}  // namespace cfnet::simd::internal

#endif
