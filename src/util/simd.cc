#include "util/simd.h"

#include <atomic>
#include <bit>
#include <cmath>

// Scalar canonical kernels, the AVX2 tier and runtime dispatch. Each AVX2
// kernel carries __attribute__((target("avx2"))), so AVX2 codegen stays
// inside those nine functions and everything else is built for the
// baseline ISA; a one-time __builtin_cpu_supports check gates dispatch.
// "fma" is deliberately NOT in the target list: a contracted multiply-add
// would round differently from the scalar canonical forms and break
// bit-identity.
#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace cfnet::simd {
namespace {

/// One backend's kernel table. Any slot may point at the canonical scalar
/// function — that is bit-identical by contract.
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

}  // namespace

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
// AVX2 tier. The 16 virtual lanes live in four __m256d accumulators
// (accumulator q holds lanes 4q..4q+3); the main loops step 16 elements
// and the scalar tail continues the same lanes, exactly like the scalar
// canonical forms above.
// --------------------------------------------------------------------------
#if defined(__x86_64__)

__attribute__((target("avx2")))
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

__attribute__((target("avx2")))
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

__attribute__((target("avx2")))
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

__attribute__((target("avx2")))
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

__attribute__((target("avx2")))
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

__attribute__((target("avx2")))
void AddAvx2(double* y, const double* x, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), _mm256_loadu_pd(x + i)));
  }
  for (; i < n; ++i) y[i] += x[i];
}

__attribute__((target("avx2")))
void SubAvx2(double* y, const double* x, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_sub_pd(_mm256_loadu_pd(y + i), _mm256_loadu_pd(x + i)));
  }
  for (; i < n; ++i) y[i] -= x[i];
}

__attribute__((target("avx2")))
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
__attribute__((target("avx2")))
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

#endif  // __x86_64__

// --------------------------------------------------------------------------
// Dispatch
// --------------------------------------------------------------------------

const Kernels* DetectKernels() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) return &kAvx2Kernels;
#endif
  return &kScalarKernels;
}

std::atomic<const Kernels*>& ActiveSlot() {
  static std::atomic<const Kernels*> slot{DetectKernels()};
  return slot;
}

const Kernels& Active() {
  return *ActiveSlot().load(std::memory_order_relaxed);
}

}  // namespace

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
