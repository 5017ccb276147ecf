#ifndef CFNET_UTIL_SIMD_H_
#define CFNET_UTIL_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace cfnet::simd {

/// SIMD numeric kernels with a bit-identical scalar fallback.
///
/// Dispatch follows the hardware-CRC32 precedent in util/crc32: the backend
/// is selected once at first use — AVX2 when the CPU reports it (x86-64
/// only), the portable scalar table otherwise. A ScopedForceScalar forces
/// the scalar path (tests and benchmarks compare against it).
///
/// # The virtual-lane bit-identity contract
///
/// Floating-point reductions are not associative, so a naive vector sum
/// would differ from a naive scalar sum in the last bits. Every reducing
/// kernel here instead commits to a fixed *virtual-lane* accumulator
/// layout: kVirtualLanes independent partial accumulators where element i
/// contributes to lane (i mod kVirtualLanes), each lane folding its
/// elements in increasing index order, and the lanes combined by one fixed
/// pairwise tree (see CombineLanes in simd.cc). The scalar fallback
/// *emulates that layout exactly*, so SIMD-on, SIMD-off, x86 and ARM (which
/// runs the scalar table) all produce byte-identical results — the
/// ordered-reduction guarantee of util/parallel.h extended down into the
/// lanes. Elementwise kernels (axpy, add, clamped sub, ...) are trivially
/// exact: each output element depends only on its own inputs, in one fixed
/// expression.
///
/// Clamping kernels use compare-select semantics ((a > b) ? a : b), which
/// matches x86 MAXPD/MINPD NaN behavior. No kernel may be compiled with FMA
/// contraction: the AVX2 kernels' target attribute names avx2 only, never
/// fma, and the scalar forms are built for the baseline ISA (a fused
/// multiply-add would round differently).
///
/// Integer kernels (AndPopcountU64) are exact under any evaluation order,
/// so their backends are unconstrained.
///
/// # Adding a kernel
///
/// 1. Write the canonical scalar form here (reductions must use the
///    virtual-lane pattern; elementwise ops one fixed expression).
/// 2. Add a function-pointer slot to Kernels in simd.cc, pointing the
///    scalar table at the canonical form.
/// 3. Where profitable, write an AVX2 form in simd.cc under
///    __attribute__((target("avx2"))); the AVX2 table may instead leave the
///    slot on the scalar function — that is always bit-identical.
/// 4. Extend the differential grid in tests/simd_test.cc (lengths 0..257,
///    misaligned offsets, NaN/inf) for the new kernel.

/// Number of virtual accumulator lanes every FP reduction commits to.
/// 16 lanes = four 256-bit AVX2 accumulators, enough independent add
/// chains to hide FP-add latency.
inline constexpr size_t kVirtualLanes = 16;

// --- runtime dispatch introspection ---------------------------------------

/// Active backend: "avx2" or "scalar".
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

/// out[i] = max(a[i] - b[i], 0) via compare-select — the CoDA "rest"
/// projection (column sum minus neighbor sum, floored at zero).
void ClampedSubF64(double* out, const double* a, const double* b, size_t n);

// --- integer kernels ------------------------------------------------------

/// sum_i popcount(a[i] & b[i]) — bitset intersection cardinality.
uint64_t AndPopcountU64(const uint64_t* a, const uint64_t* b, size_t n);

// --- fused CoDA row helpers (backend-independent composition) -------------
//
// Both read the neighbor rows in place: neighbor i is the row
// y_i = rows + idx[i] * c of a row-major factor matrix. Each walks the
// neighbors in index order, each dot obeys the virtual-lane contract, and
// the libm calls (exp/log1p/expm1) see identical inputs on every backend.
// For each neighbor they write the clamped dot and the edge's log term:
//   dots[i]  = d_i = max(DotF64(x, y_i, c), min_dot)
//   terms[i] = t_i = log1p(-exp(-d_i))    (always <= 0)

/// Fused CoDA gradient pass: besides dots and terms,
///   grad += min(1 / expm1(d_i), w_cap) * y_i   (AxpyF64 per row, in order)
/// and returns sum_i t_i folded in index order from 0 — the edge part of
/// the row's objective at x.
double AccumExpm1RowsF64(const double* x, const double* rows,
                         const uint32_t* idx, size_t count, size_t c,
                         double min_dot, double w_cap, double* grad,
                         double* dots, double* terms);

/// Line-search objective of a CoDA candidate row x against the Armijo bar:
/// returns (sum_i t_i) - x_rest, the sum folded in index order from 0, when
/// that is >= bar. Otherwise it may stop early: every t_i is <= 0, so the
/// partial sums only fall, and round-to-nearest keeps fl(S_i - x_rest)
/// monotone too; the fold returns the first partial objective below `bar`,
/// which the full objective could not reach either. The caller's test
/// `obj >= bar` thus decides exactly as on the full objective. dots/terms
/// are complete only when the result is >= bar.
double SumLogEdgeProbF64(const double* x, const double* rows,
                         const uint32_t* idx, size_t count, size_t c,
                         double min_dot, double x_rest, double bar,
                         double* dots, double* terms);

// --- scalar reference forms (the canonical semantics) ---------------------
//
// Exposed for differential tests and benchmarks, mirroring
// Crc32FallbackUpdate: the dispatched kernels above must be byte-identical
// to these on every input.

double DotF64Scalar(const double* a, const double* b, size_t n);
double SumF64Scalar(const double* a, size_t n);
double SumSqDiffF64Scalar(const double* a, size_t n, double center);
double ClampedStepDotF64Scalar(const double* x, const double* g, double step,
                               double lo, double hi, double* cand, size_t n);
void AxpyF64Scalar(double alpha, const double* x, double* y, size_t n);
void AddF64Scalar(double* y, const double* x, size_t n);
void SubF64Scalar(double* y, const double* x, size_t n);
void ClampedSubF64Scalar(double* out, const double* a, const double* b,
                         size_t n);
uint64_t AndPopcountU64Scalar(const uint64_t* a, const uint64_t* b, size_t n);

}  // namespace cfnet::simd

#endif  // CFNET_UTIL_SIMD_H_
