#include "util/simd.h"

#include <atomic>
#include <bit>
#include <cmath>

// Scalar canonical kernels, the AVX2 tier and runtime dispatch. Each AVX2
// kernel carries __attribute__((target("avx2"))), so AVX2 codegen stays
// inside those ten functions and everything else is built for the
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
  double (*clamped_step_dot)(const double*, const double*, const double*,
                             double, double, double, double*, double*,
                             uint64_t*, size_t);
  double (*dot_blocks)(const double*, const double*, size_t, uint64_t);
  void (*add)(double*, const double*, size_t);
  void (*sub)(double*, const double*, size_t);
  void (*clamped_sub)(double*, const double*, const double*, size_t);
  void (*add_axpy_blocks)(double*, double*, double, const double*, size_t,
                          uint64_t);
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

/// Block b's bit in a block mask: blocks 63 and up share the top bit.
inline uint64_t BlockBit(size_t b) { return uint64_t{1} << (b < 63 ? b : 63); }

/// The bits that stand for the first `full` blocks, where bit 63 (when
/// kept) stands for blocks 63..full-1.
inline uint64_t FullBlockBits(size_t full) {
  return full >= 64 ? ~uint64_t{0} : (uint64_t{1} << full) - 1;
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

double ClampedStepDotF64Scalar(const double* x, const double* g,
                               const double* rest, double step, double lo,
                               double hi, double* cand, double* cand_rest,
                               uint64_t* cand_blocks, size_t n) {
  double lane[kVirtualLanes] = {};
  double rest_lane[kVirtualLanes] = {};
  uint64_t blocks = 0;
  for (size_t i = 0; i < n; ++i) {
    double t = x[i] + step * g[i];
    t = (t > lo) ? t : lo;  // compare-select: matches MAXPD/MINPD on NaN
    t = (t < hi) ? t : hi;
    cand[i] = t;
    lane[i & 15] += g[i] * (t - x[i]);
    rest_lane[i & 15] += t * rest[i];
    if (std::bit_cast<uint64_t>(t) != 0) blocks |= BlockBit(i / kVirtualLanes);
  }
  *cand_rest = CombineLanes(rest_lane);
  *cand_blocks = blocks;
  return CombineLanes(lane);
}

uint64_t BlockMaskF64(const double* x, size_t n) {
  uint64_t blocks = 0;
  for (size_t i = 0; i < n; ++i) {
    if (std::bit_cast<uint64_t>(x[i]) != 0) {
      blocks |= BlockBit(i / kVirtualLanes);
    }
  }
  return blocks;
}

double DotBlocksF64Scalar(const double* a, const double* b, size_t n,
                          uint64_t blocks) {
  double lane[kVirtualLanes] = {};
  for (size_t i = 0; i < n; ++i) {
    if (blocks & BlockBit(i / kVirtualLanes)) lane[i & 15] += a[i] * b[i];
  }
  return CombineLanes(lane);
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

void AddAxpyBlocksF64Scalar(double* sum, double* acc, double alpha,
                            const double* y, size_t n, uint64_t blocks) {
  for (size_t i = 0; i < n; ++i) {
    if (blocks & BlockBit(i / kVirtualLanes)) {
      sum[i] += y[i];
      acc[i] += alpha * y[i];
    }
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
    DotBlocksF64Scalar,
    AddF64Scalar,
    SubF64Scalar,
    ClampedSubF64Scalar,
    AddAxpyBlocksF64Scalar,
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
double ClampedStepDotAvx2(const double* x, const double* g, const double* rest,
                          double step, double lo, double hi, double* cand,
                          double* cand_rest, uint64_t* cand_blocks, size_t n) {
  const __m256d vstep = _mm256_set1_pd(step);
  const __m256d vlo = _mm256_set1_pd(lo);
  const __m256d vhi = _mm256_set1_pd(hi);
  __m256d acc[4];
  __m256d rest_acc[4];
  for (size_t q = 0; q < 4; ++q) acc[q] = rest_acc[q] = _mm256_setzero_pd();
  uint64_t blocks = 0;
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m256d any = _mm256_setzero_pd();
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
      rest_acc[q] = _mm256_add_pd(
          rest_acc[q], _mm256_mul_pd(t, _mm256_loadu_pd(rest + i + 4 * q)));
      any = _mm256_or_pd(any, t);
    }
    // Branch-free: whether a block is zero changes from row to row.
    const __m256i any_bits = _mm256_castpd_si256(any);
    const uint64_t nonzero = _mm256_testz_si256(any_bits, any_bits) == 0;
    blocks |= BlockBit(i / kVirtualLanes) * nonzero;
  }
  double lane[kVirtualLanes];
  double rest_lane[kVirtualLanes];
  for (size_t q = 0; q < 4; ++q) {
    _mm256_storeu_pd(lane + 4 * q, acc[q]);
    _mm256_storeu_pd(rest_lane + 4 * q, rest_acc[q]);
  }
  for (; i < n; ++i) {
    double t = x[i] + step * g[i];
    t = (t > lo) ? t : lo;
    t = (t < hi) ? t : hi;
    cand[i] = t;
    lane[i & 15] += g[i] * (t - x[i]);
    rest_lane[i & 15] += t * rest[i];
    if (std::bit_cast<uint64_t>(t) != 0) blocks |= BlockBit(i / kVirtualLanes);
  }
  *cand_rest = CombineLanes(rest_lane);
  *cand_blocks = blocks;
  return CombineLanes(lane);
}

__attribute__((target("avx2")))
double DotBlocksAvx2(const double* a, const double* b, size_t n,
                     uint64_t blocks) {
  __m256d acc[4];
  for (auto& v : acc) v = _mm256_setzero_pd();
  // Visit the set bits of the full blocks (a branch per block would
  // mispredict: which blocks are zero changes from row to row).
  const size_t full = n / kVirtualLanes;
  for (uint64_t m = blocks & FullBlockBits(full); m != 0; m &= m - 1) {
    const size_t bit = static_cast<size_t>(std::countr_zero(m));
    const size_t end = bit == 63 ? full : bit + 1;
    for (size_t i = bit * kVirtualLanes; i < end * kVirtualLanes; i += 16) {
      for (size_t q = 0; q < 4; ++q) {
        acc[q] = _mm256_add_pd(
            acc[q], _mm256_mul_pd(_mm256_loadu_pd(a + i + 4 * q),
                                  _mm256_loadu_pd(b + i + 4 * q)));
      }
    }
  }
  size_t i = full * kVirtualLanes;
  double lane[kVirtualLanes];
  for (size_t q = 0; q < 4; ++q) _mm256_storeu_pd(lane + 4 * q, acc[q]);
  if (blocks & BlockBit(i / kVirtualLanes)) {
    for (; i < n; ++i) lane[i & 15] += a[i] * b[i];
  }
  return CombineLanes(lane);
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

__attribute__((target("avx2")))
void AddAxpyBlocksAvx2(double* sum, double* acc, double alpha, const double* y,
                       size_t n, uint64_t blocks) {
  const __m256d va = _mm256_set1_pd(alpha);
  const size_t full = n / kVirtualLanes;
  for (uint64_t m = blocks & FullBlockBits(full); m != 0; m &= m - 1) {
    const size_t bit = static_cast<size_t>(std::countr_zero(m));
    const size_t end = bit == 63 ? full : bit + 1;
    for (size_t j = bit * kVirtualLanes; j < end * kVirtualLanes; j += 4) {
      const __m256d vy = _mm256_loadu_pd(y + j);
      _mm256_storeu_pd(sum + j, _mm256_add_pd(_mm256_loadu_pd(sum + j), vy));
      _mm256_storeu_pd(acc + j, _mm256_add_pd(_mm256_loadu_pd(acc + j),
                                              _mm256_mul_pd(va, vy)));
    }
  }
  size_t i = full * kVirtualLanes;
  if (blocks & BlockBit(i / kVirtualLanes)) {
    for (; i < n; ++i) {
      sum[i] += y[i];
      acc[i] += alpha * y[i];
    }
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
    DotBlocksAvx2,
    AddAvx2,
    SubAvx2,
    ClampedSubAvx2,
    AddAxpyBlocksAvx2,
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

double ClampedStepDotF64(const double* x, const double* g, const double* rest,
                         double step, double lo, double hi, double* cand,
                         double* cand_rest, uint64_t* cand_blocks, size_t n) {
  return Active().clamped_step_dot(x, g, rest, step, lo, hi, cand, cand_rest,
                                   cand_blocks, n);
}

double DotBlocksF64(const double* a, const double* b, size_t n,
                    uint64_t blocks) {
  return Active().dot_blocks(a, b, n, blocks);
}

void AddF64(double* y, const double* x, size_t n) { Active().add(y, x, n); }

void SubF64(double* y, const double* x, size_t n) { Active().sub(y, x, n); }

void ClampedSubF64(double* out, const double* a, const double* b, size_t n) {
  Active().clamped_sub(out, a, b, n);
}

void AddAxpyBlocksF64(double* sum, double* acc, double alpha, const double* y,
                      size_t n, uint64_t blocks) {
  Active().add_axpy_blocks(sum, acc, alpha, y, n, blocks);
}

uint64_t AndPopcountU64(const uint64_t* a, const uint64_t* b, size_t n) {
  return Active().and_popcount(a, b, n);
}

// --------------------------------------------------------------------------
// Fused CoDA row helpers: backend-independent composition. The per-row
// fold is sequential in neighbor order on every backend, each kernel obeys
// the lane contract, and the libm calls (exp/log1p/expm1) see bit-identical
// inputs — so the whole helper is bit-identical SIMD-on vs SIMD-off.
// --------------------------------------------------------------------------

double AccumExpm1RowsF64(const double* rows, const uint64_t* row_blocks,
                         const uint32_t* idx, size_t count, size_t c,
                         const double* dots, const double* terms,
                         double w_cap, double* nbr_sum, double* grad) {
  const Kernels& k = Active();
  double sum = 0;
  for (size_t i = 0; i < count; ++i) {
    double w = 1.0 / std::expm1(dots[i]);
    if (w > w_cap) w = w_cap;
    k.add_axpy_blocks(nbr_sum, grad, w, rows + idx[i] * c, c,
                      row_blocks[idx[i]]);
    sum += terms[i];
  }
  return sum;
}

double SumLogEdgeProbF64(const double* x, uint64_t x_blocks,
                         const double* rows, const uint64_t* row_blocks,
                         const uint32_t* idx, size_t count, size_t c,
                         double min_dot, double x_rest, double bar,
                         double* dots, double* terms) {
  const Kernels& k = Active();
  double sum = 0;
  for (size_t i = 0; i < count; ++i) {
    const double partial = sum - x_rest;
    if (partial < bar) return partial;
    double d = k.dot_blocks(x, rows + idx[i] * c, c,
                            x_blocks & row_blocks[idx[i]]);
    if (d < min_dot) d = min_dot;
    dots[i] = d;
    terms[i] = std::log1p(-std::exp(-d));
    sum += terms[i];
  }
  return sum - x_rest;
}

}  // namespace cfnet::simd
