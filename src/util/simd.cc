#include "util/simd.h"

#include <atomic>
#include <bit>
#include <cmath>

#include "util/simd_internal.h"

// Scalar canonical kernels + the SSE2 tier (baseline on x86-64, no extra
// flags needed) + runtime dispatch. The AVX2 and NEON tiers live in their
// own TUs (simd_avx2.cc / simd_neon.cc) so their -mavx2-style flags never
// leak into portable code; see util/CMakeLists.txt.
#if defined(__x86_64__)
#define CFNET_SIMD_SSE2 1
#include <emmintrin.h>
#endif

namespace cfnet::simd {

using internal::CombineLanes;
using internal::Kernels;

// --------------------------------------------------------------------------
// Scalar canonical forms. These DEFINE the kernel semantics: every vector
// backend must be byte-identical to them. Reductions walk the virtual-lane
// layout directly (lane = index mod kVirtualLanes, combined by the fixed
// CombineLanes tree); elementwise ops are one fixed expression per element.
// --------------------------------------------------------------------------

double DotF64Scalar(const double* a, const double* b, size_t n) {
  double lane[kVirtualLanes] = {};
  for (size_t i = 0; i < n; ++i) lane[i & 15] += a[i] * b[i];
  return CombineLanes(lane);
}

double SumF64Scalar(const double* a, size_t n) {
  double lane[kVirtualLanes] = {};
  for (size_t i = 0; i < n; ++i) lane[i & 15] += a[i];
  return CombineLanes(lane);
}

double SumSqDiffF64Scalar(const double* a, size_t n, double center) {
  double lane[kVirtualLanes] = {};
  for (size_t i = 0; i < n; ++i) {
    const double d = a[i] - center;
    lane[i & 15] += d * d;
  }
  return CombineLanes(lane);
}

double ClampedStepDotF64Scalar(const double* x, const double* g, double step,
                               double lo, double hi, double* cand, size_t n) {
  double lane[kVirtualLanes] = {};
  for (size_t i = 0; i < n; ++i) {
    double t = x[i] + step * g[i];
    t = (t > lo) ? t : lo;  // compare-select: matches MAXPD/MINPD on NaN
    t = (t < hi) ? t : hi;
    cand[i] = t;
    lane[i & 15] += g[i] * (t - x[i]);
  }
  return CombineLanes(lane);
}

void AxpyF64Scalar(double alpha, const double* x, double* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void AddF64Scalar(double* y, const double* x, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += x[i];
}

void SubF64Scalar(double* y, const double* x, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] -= x[i];
}

void ClampedSubF64Scalar(double* out, const double* a, const double* b,
                         size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const double t = a[i] - b[i];
    out[i] = (t > 0.0) ? t : 0.0;
  }
}

uint64_t AndPopcountU64Scalar(const uint64_t* a, const uint64_t* b, size_t n) {
  uint64_t s = 0;
  for (size_t i = 0; i < n; ++i) {
    s += static_cast<uint64_t>(std::popcount(a[i] & b[i]));
  }
  return s;
}

namespace {

const Kernels kScalarKernels = {
    "scalar",
    DotF64Scalar,
    SumF64Scalar,
    SumSqDiffF64Scalar,
    ClampedStepDotF64Scalar,
    AxpyF64Scalar,
    AddF64Scalar,
    SubF64Scalar,
    ClampedSubF64Scalar,
    AndPopcountU64Scalar,
};

// --------------------------------------------------------------------------
// SSE2 tier: two lanes per register, so the 16 virtual lanes live in eight
// __m128d accumulators (accumulator q holds lanes 2q and 2q+1). Only the
// streaming kernels are vectorized here; the rest stay on the scalar
// canonical forms, which is always bit-identical. x86-64 guarantees SSE2,
// so there is no runtime check for this tier.
// --------------------------------------------------------------------------
#if defined(CFNET_SIMD_SSE2)

double DotSse2(const double* a, const double* b, size_t n) {
  __m128d acc[8];
  for (auto& v : acc) v = _mm_setzero_pd();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    for (size_t q = 0; q < 8; ++q) {
      acc[q] = _mm_add_pd(acc[q], _mm_mul_pd(_mm_loadu_pd(a + i + 2 * q),
                                             _mm_loadu_pd(b + i + 2 * q)));
    }
  }
  double lane[kVirtualLanes];
  for (size_t q = 0; q < 8; ++q) _mm_storeu_pd(lane + 2 * q, acc[q]);
  for (; i < n; ++i) lane[i & 15] += a[i] * b[i];
  return CombineLanes(lane);
}

double SumSse2(const double* a, size_t n) {
  __m128d acc[8];
  for (auto& v : acc) v = _mm_setzero_pd();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    for (size_t q = 0; q < 8; ++q) {
      acc[q] = _mm_add_pd(acc[q], _mm_loadu_pd(a + i + 2 * q));
    }
  }
  double lane[kVirtualLanes];
  for (size_t q = 0; q < 8; ++q) _mm_storeu_pd(lane + 2 * q, acc[q]);
  for (; i < n; ++i) lane[i & 15] += a[i];
  return CombineLanes(lane);
}

double SumSqDiffSse2(const double* a, size_t n, double center) {
  const __m128d vc = _mm_set1_pd(center);
  __m128d acc[8];
  for (auto& v : acc) v = _mm_setzero_pd();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    for (size_t q = 0; q < 8; ++q) {
      const __m128d d = _mm_sub_pd(_mm_loadu_pd(a + i + 2 * q), vc);
      acc[q] = _mm_add_pd(acc[q], _mm_mul_pd(d, d));
    }
  }
  double lane[kVirtualLanes];
  for (size_t q = 0; q < 8; ++q) _mm_storeu_pd(lane + 2 * q, acc[q]);
  for (; i < n; ++i) {
    const double d = a[i] - center;
    lane[i & 15] += d * d;
  }
  return CombineLanes(lane);
}

void AxpySse2(double alpha, const double* x, double* y, size_t n) {
  const __m128d va = _mm_set1_pd(alpha);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    _mm_storeu_pd(y + i, _mm_add_pd(_mm_loadu_pd(y + i),
                                    _mm_mul_pd(va, _mm_loadu_pd(x + i))));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void AddSse2(double* y, const double* x, size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    _mm_storeu_pd(y + i, _mm_add_pd(_mm_loadu_pd(y + i), _mm_loadu_pd(x + i)));
  }
  for (; i < n; ++i) y[i] += x[i];
}

void SubSse2(double* y, const double* x, size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    _mm_storeu_pd(y + i, _mm_sub_pd(_mm_loadu_pd(y + i), _mm_loadu_pd(x + i)));
  }
  for (; i < n; ++i) y[i] -= x[i];
}

void ClampedSubSse2(double* out, const double* a, const double* b, size_t n) {
  const __m128d zero = _mm_setzero_pd();
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d t = _mm_sub_pd(_mm_loadu_pd(a + i), _mm_loadu_pd(b + i));
    _mm_storeu_pd(out + i, _mm_max_pd(t, zero));
  }
  for (; i < n; ++i) {
    const double t = a[i] - b[i];
    out[i] = (t > 0.0) ? t : 0.0;
  }
}

const Kernels kSse2Kernels = {
    "sse2",
    DotSse2,
    SumSse2,
    SumSqDiffSse2,
    ClampedStepDotF64Scalar,
    AxpySse2,
    AddSse2,
    SubSse2,
    ClampedSubSse2,
    AndPopcountU64Scalar,
};

#endif  // CFNET_SIMD_SSE2

// --------------------------------------------------------------------------
// Dispatch
// --------------------------------------------------------------------------

const Kernels* DetectKernels() {
  if (const Kernels* k = internal::GetAvx2Kernels()) return k;
  if (const Kernels* k = internal::GetNeonKernels()) return k;
#if defined(CFNET_SIMD_SSE2)
  return &kSse2Kernels;
#else
  return &kScalarKernels;
#endif
}

std::atomic<const Kernels*>& ActiveSlot() {
  static std::atomic<const Kernels*> slot{DetectKernels()};
  return slot;
}

const Kernels& Active() {
  return *ActiveSlot().load(std::memory_order_relaxed);
}

}  // namespace

bool SimdEnabled() { return &Active() != &kScalarKernels; }

const char* SimdBackendName() { return Active().name; }

ScopedForceScalar::ScopedForceScalar()
    : prev_(ActiveSlot().exchange(&kScalarKernels)) {}

ScopedForceScalar::~ScopedForceScalar() {
  ActiveSlot().store(static_cast<const Kernels*>(prev_));
}

// --------------------------------------------------------------------------
// Public dispatched kernels
// --------------------------------------------------------------------------

double DotF64(const double* a, const double* b, size_t n) {
  return Active().dot(a, b, n);
}

double SumF64(const double* a, size_t n) { return Active().sum(a, n); }

double SumSqDiffF64(const double* a, size_t n, double center) {
  return Active().sum_sq_diff(a, n, center);
}

void MeanVarF64(const double* a, size_t n, double* mean, double* sum_sq_diff) {
  if (n == 0) {
    *mean = 0;
    *sum_sq_diff = 0;
    return;
  }
  *mean = SumF64(a, n) / static_cast<double>(n);
  *sum_sq_diff = SumSqDiffF64(a, n, *mean);
}

double ClampedStepDotF64(const double* x, const double* g, double step,
                         double lo, double hi, double* cand, size_t n) {
  return Active().clamped_step_dot(x, g, step, lo, hi, cand, n);
}

void AxpyF64(double alpha, const double* x, double* y, size_t n) {
  Active().axpy(alpha, x, y, n);
}

void AddF64(double* y, const double* x, size_t n) { Active().add(y, x, n); }

void SubF64(double* y, const double* x, size_t n) { Active().sub(y, x, n); }

void ClampedSubF64(double* out, const double* a, const double* b, size_t n) {
  Active().clamped_sub(out, a, b, n);
}

uint64_t AndPopcountU64(const uint64_t* a, const uint64_t* b, size_t n) {
  return Active().and_popcount(a, b, n);
}

// --------------------------------------------------------------------------
// Fused CoDA row helpers: backend-independent composition. The per-row
// fold is sequential in neighbor order on every backend, each dot obeys the
// lane contract, and the libm calls (exp/log1p/expm1) see bit-identical
// inputs — so the whole helper is bit-identical SIMD-on vs SIMD-off.
// --------------------------------------------------------------------------

double AccumExpm1RowsF64(const double* x, const double* rows,
                         const uint32_t* idx, size_t count, size_t c,
                         double min_dot, double w_cap, double* grad,
                         double* dots, double* terms) {
  const Kernels& k = Active();
  double sum = 0;
  for (size_t i = 0; i < count; ++i) {
    const double* row = rows + idx[i] * c;
    double d = k.dot(x, row, c);
    if (d < min_dot) d = min_dot;
    double w = 1.0 / std::expm1(d);
    if (w > w_cap) w = w_cap;
    k.axpy(w, row, grad, c);
    dots[i] = d;
    terms[i] = std::log1p(-std::exp(-d));
    sum += terms[i];
  }
  return sum;
}

double SumLogEdgeProbF64(const double* x, const double* rows,
                         const uint32_t* idx, size_t count, size_t c,
                         double min_dot, double x_rest, double bar,
                         double* dots, double* terms) {
  const Kernels& k = Active();
  double sum = 0;
  for (size_t i = 0; i < count; ++i) {
    const double partial = sum - x_rest;
    if (partial < bar) return partial;
    double d = k.dot(x, rows + idx[i] * c, c);
    if (d < min_dot) d = min_dot;
    dots[i] = d;
    terms[i] = std::log1p(-std::exp(-d));
    sum += terms[i];
  }
  return sum - x_rest;
}

}  // namespace cfnet::simd
