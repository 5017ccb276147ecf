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
/// lanes. Elementwise kernels (add, sub, clamped sub, ...) are trivially
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
///    misaligned offsets, NaN/inf) for the new kernel. A block-skipping
///    kernel states when skipping is exact, and the grid also checks it
///    against its dense form on inputs that meet that precondition.

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
/// (the ascent direction test) under the virtual-lane layout. The same pass
/// writes *cand_rest = DotF64(cand, rest, n) and
/// *cand_blocks = BlockMaskF64(cand, n).
double ClampedStepDotF64(const double* x, const double* g, const double* rest,
                         double step, double lo, double hi, double* cand,
                         double* cand_rest, uint64_t* cand_blocks, size_t n);

// --- block-skipping kernels (virtual-lane contract) -----------------------
//
// A block is the kVirtualLanes entries 16b..16b+15 of a row: one visit of
// every virtual lane. A block mask has bit min(b, 63) set when block b is
// read (blocks 63 and up share the top bit); ~0 reads every block, and then
// each kernel below equals its dense form bit for bit on any input. A read
// block reaches its lanes and elements in the same order as in the dense
// form, so skipping a block is exact when each skipped block is zero in `a`
// or `b` (DotBlocksF64) or in `y` (AddAxpyBlocksF64), and every entry of
// every operand, and alpha, is finite with no sign bit: a skipped block
// would only add +0 to lanes and elements that are >= +0.

/// Bit min(b, 63) is set when an entry of block b has a nonzero bit
/// pattern (so -0.0 counts as nonzero).
uint64_t BlockMaskF64(const double* x, size_t n);

/// DotF64(a, b, n) over the blocks of `blocks`.
double DotBlocksF64(const double* a, const double* b, size_t n,
                    uint64_t blocks);

// --- elementwise kernels (exact under any vector width) -------------------

/// y[i] += x[i].
void AddF64(double* y, const double* x, size_t n);

/// y[i] -= x[i].
void SubF64(double* y, const double* x, size_t n);

/// out[i] = max(a[i] - b[i], 0) via compare-select — the CoDA "rest"
/// projection (column sum minus neighbor sum, floored at zero).
void ClampedSubF64(double* out, const double* a, const double* b, size_t n);

/// sum[i] += y[i] and acc[i] += alpha * y[i] over the blocks of `blocks`
/// (block-skipping, see above): AddF64(sum, y) and acc += alpha * y from
/// one read of y.
void AddAxpyBlocksF64(double* sum, double* acc, double alpha, const double* y,
                      size_t n, uint64_t blocks);

// --- integer kernels ------------------------------------------------------

/// sum_i popcount(a[i] & b[i]) — bitset intersection cardinality.
uint64_t AndPopcountU64(const uint64_t* a, const uint64_t* b, size_t n);

// --- fused CoDA row helpers (backend-independent composition) -------------
//
// Both read the neighbor rows in place: neighbor i is the row
// y_i = rows + idx[i] * c of a row-major factor matrix, whose block mask is
// row_blocks[idx[i]]. Each walks the neighbors in index order through the
// block-skipping kernels, and the libm calls (exp/log1p/expm1) see
// identical inputs on every backend. Each neighbor edge has a clamped dot
// and a log term:
//   d_i = max(DotF64(x, y_i, c), min_dot)
//   t_i = log1p(-exp(-d_i))    (always <= 0)

/// Fused CoDA gradient pass over filed edge values: dots[i] and terms[i]
/// hold d_i and t_i at the row's current value. Reads each neighbor row
/// once and adds
///   nbr_sum += y_i,   grad += min(1 / expm1(d_i), w_cap) * y_i
/// (AddAxpyBlocksF64 per row, in order), and returns sum_i t_i folded in
/// index order from 0 — the edge part of the row's objective.
double AccumExpm1RowsF64(const double* rows, const uint64_t* row_blocks,
                         const uint32_t* idx, size_t count, size_t c,
                         const double* dots, const double* terms,
                         double w_cap, double* nbr_sum, double* grad);

/// Line-search objective of a CoDA candidate row x (block mask x_blocks)
/// against the Armijo bar: writes dots[i] = d_i and terms[i] = t_i, with
/// each dot a DotBlocksF64 over x_blocks & row_blocks[idx[i]], and returns
/// (sum_i t_i) - x_rest, the sum folded in index order from 0, when that is
/// >= bar. Otherwise it may stop early: every t_i is <= 0, so the partial
/// sums only fall, and round-to-nearest keeps fl(S_i - x_rest) monotone
/// too; the fold returns the first partial objective below `bar`, which the
/// full objective could not reach either. The caller's test `obj >= bar`
/// thus decides exactly as on the full objective. dots/terms are complete
/// only when the result is >= bar.
double SumLogEdgeProbF64(const double* x, uint64_t x_blocks,
                         const double* rows, const uint64_t* row_blocks,
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
double ClampedStepDotF64Scalar(const double* x, const double* g,
                               const double* rest, double step, double lo,
                               double hi, double* cand, double* cand_rest,
                               uint64_t* cand_blocks, size_t n);
double DotBlocksF64Scalar(const double* a, const double* b, size_t n,
                          uint64_t blocks);
void AddF64Scalar(double* y, const double* x, size_t n);
void SubF64Scalar(double* y, const double* x, size_t n);
void ClampedSubF64Scalar(double* out, const double* a, const double* b,
                         size_t n);
void AddAxpyBlocksF64Scalar(double* sum, double* acc, double alpha,
                            const double* y, size_t n, uint64_t blocks);
uint64_t AndPopcountU64Scalar(const uint64_t* a, const uint64_t* b, size_t n);

}  // namespace cfnet::simd

#endif  // CFNET_UTIL_SIMD_H_
