#ifndef CFNET_UTIL_SIMD_H_
#define CFNET_UTIL_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace cfnet::simd {

/// SIMD numeric kernels with a bit-identical scalar fallback.
///
/// Dispatch follows the hardware-CRC32 precedent in util/crc32: the best
/// backend is selected once at first use — AVX2 (runtime CPU check) or SSE2
/// on x86-64, NEON on aarch64, portable scalar otherwise. A
/// ScopedForceScalar forces the scalar path (tests and benchmarks compare
/// against it).
///
/// # The virtual-lane bit-identity contract
///
/// Floating-point reductions are not associative, so a naive vector sum
/// would differ from a naive scalar sum in the last bits. Every reducing
/// kernel here instead commits to a fixed *virtual-lane* accumulator
/// layout: kVirtualLanes independent partial accumulators where element i
/// contributes to lane (i mod kVirtualLanes), each lane folding its
/// elements in increasing index order, and the lanes combined by one fixed
/// pairwise tree (see CombineLanes in simd_internal.h). The scalar fallback
/// *emulates that layout exactly*, so SIMD-on, SIMD-off, x86 and ARM all
/// produce byte-identical results — the PR-4 ordered-reduction guarantee
/// extended down into the lanes. Elementwise kernels (axpy, add, clamped
/// sub, ...) are trivially exact: each output element depends only on its
/// own inputs, in one fixed expression.
///
/// Clamping kernels use compare-select semantics ((a > b) ? a : b), which
/// matches x86 MAXPD/MINPD NaN behavior; the NEON paths use explicit
/// compare+bit-select rather than FMAX/FMIN so ARM agrees bit-for-bit.
/// No kernel may be compiled with FMA contraction: the per-file build
/// flags enable -mavx2 only, never -mfma, and the scalar TUs never see
/// either (a fused multiply-add would round differently).
///
/// Integer kernels (AndPopcountU64) are exact under any evaluation order,
/// so their backends are unconstrained.
///
/// # Adding a kernel
///
/// 1. Write the canonical scalar form here (reductions must use the
///    virtual-lane pattern; elementwise ops one fixed expression).
/// 2. Add a function-pointer slot to Kernels in simd_internal.h, pointing
///    the scalar table at the canonical form.
/// 3. Implement vector forms where profitable; any backend may leave the
///    slot on the scalar function — that is always bit-identical.
/// 4. Extend the differential grid in tests/simd_test.cc (lengths 0..257,
///    misaligned offsets, NaN/inf) for the new kernel.

/// Number of virtual accumulator lanes every FP reduction commits to.
/// 16 lanes = four 256-bit AVX2 accumulators (or eight 128-bit ones),
/// enough independent add chains to hide FP-add latency on every target.
inline constexpr size_t kVirtualLanes = 16;

// --- runtime dispatch introspection ---------------------------------------

/// True when the process dispatches to a vector backend (compile-time
/// support present, runtime CPU check passed, no ScopedForceScalar alive).
bool SimdEnabled();

/// Active backend: "avx2", "sse2", "neon" or "scalar".
const char* SimdBackendName();

/// Forces the scalar kernel table for its lifetime (nestable). For tests
/// and benchmarks; flip only while no other thread is inside a kernel.
class ScopedForceScalar {
 public:
  ScopedForceScalar();
  ~ScopedForceScalar();
  ScopedForceScalar(const ScopedForceScalar&) = delete;
  ScopedForceScalar& operator=(const ScopedForceScalar&) = delete;

 private:
  const void* prev_;
};

// --- FP reductions (virtual-lane contract) --------------------------------

/// sum_i a[i] * b[i].
double DotF64(const double* a, const double* b, size_t n);

/// sum_i a[i].
double SumF64(const double* a, size_t n);

/// sum_i (a[i] - center)^2.
double SumSqDiffF64(const double* a, size_t n, double center);

/// mean = SumF64(a, n) / n and sum_sq_diff = SumSqDiffF64(a, n, mean);
/// n == 0 yields {0, 0}. (The moment pair Summarize and friends consume.)
void MeanVarF64(const double* a, size_t n, double* mean, double* sum_sq_diff);

/// Centered second-moment accumulation for Pearson correlation:
///   *sxy = sum (x[i]-mx)*(y[i]-my)
///   *sxx = sum (x[i]-mx)^2
///   *syy = sum (y[i]-my)^2
/// each under its own virtual-lane layout.
void PearsonAccumF64(const double* x, const double* y, size_t n, double mx,
                     double my, double* sxy, double* sxx, double* syy);

/// Projected gradient step: cand[i] = clamp(x[i] + step * g[i], lo, hi)
/// with compare-select clamping, returning sum_i g[i] * (cand[i] - x[i])
/// (the ascent direction test) under the virtual-lane layout.
double ClampedStepDotF64(const double* x, const double* g, double step,
                         double lo, double hi, double* cand, size_t n);

// --- elementwise kernels (exact under any vector width) -------------------

/// y[i] += alpha * x[i].
void AxpyF64(double alpha, const double* x, double* y, size_t n);

/// y[i] += x[i].
void AddF64(double* y, const double* x, size_t n);

/// y[i] -= x[i].
void SubF64(double* y, const double* x, size_t n);

/// dst[i] = src[i]; acc[i] += src[i]. The CoDA neighbor-row gather: copy
/// the row into contiguous scratch while accumulating the neighbor sum.
void CopyAddF64(double* dst, double* acc, const double* src, size_t n);

/// out[i] = max(a[i] - b[i], 0) via compare-select — the CoDA "rest"
/// projection (column sum minus neighbor sum, floored at zero).
void ClampedSubF64(double* out, const double* a, const double* b, size_t n);

// --- integer kernels ------------------------------------------------------

/// sum_i popcount(a[i] & b[i]) — bitset intersection cardinality.
uint64_t AndPopcountU64(const uint64_t* a, const uint64_t* b, size_t n);

// --- fused CoDA row helpers (backend-independent composition) -------------

/// sum over `count` contiguous rows y_i (each `c` doubles, row-major in
/// `rows`) of log1p(-exp(-max(DotF64(x, y_i, c), min_dot))) — the
/// edge-probability term of the CoDA local objective. The per-row fold is
/// sequential in row order; each dot obeys the virtual-lane contract, and
/// the libm calls see identical inputs on every backend.
double SumLogEdgeProbF64(const double* x, const double* rows, size_t count,
                         size_t c, double min_dot);

/// Fused CoDA gradient accumulation over the same row layout:
///   d_i = max(DotF64(x, y_i, c), min_dot)
///   w_i = min(1 / expm1(d_i), w_cap)
///   grad += w_i * y_i          (AxpyF64 per row, in row order)
void AccumExpm1RowsF64(const double* x, const double* rows, size_t count,
                       size_t c, double min_dot, double w_cap, double* grad);

// --- scalar reference forms (the canonical semantics) ---------------------
//
// Exposed for differential tests and benchmarks, mirroring
// Crc32FallbackUpdate: the dispatched kernels above must be byte-identical
// to these on every input.

double DotF64Scalar(const double* a, const double* b, size_t n);
double SumF64Scalar(const double* a, size_t n);
double SumSqDiffF64Scalar(const double* a, size_t n, double center);
void PearsonAccumF64Scalar(const double* x, const double* y, size_t n,
                           double mx, double my, double* sxy, double* sxx,
                           double* syy);
double ClampedStepDotF64Scalar(const double* x, const double* g, double step,
                               double lo, double hi, double* cand, size_t n);
void AxpyF64Scalar(double alpha, const double* x, double* y, size_t n);
void AddF64Scalar(double* y, const double* x, size_t n);
void SubF64Scalar(double* y, const double* x, size_t n);
void CopyAddF64Scalar(double* dst, double* acc, const double* src, size_t n);
void ClampedSubF64Scalar(double* out, const double* a, const double* b,
                         size_t n);
uint64_t AndPopcountU64Scalar(const uint64_t* a, const uint64_t* b, size_t n);

}  // namespace cfnet::simd

#endif  // CFNET_UTIL_SIMD_H_
