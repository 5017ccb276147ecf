// Differential tests for the SIMD numeric-kernel layer: every dispatched
// kernel must be BYTE-identical to its scalar canonical form on every
// input — all lengths 0..257 (covering the 16-wide main loop, its tail,
// and sub-width sizes), misaligned base pointers, and NaN/inf payloads.
// Comparisons go through bit_cast so -0.0 vs 0.0 and NaN payload drift
// fail loudly where EXPECT_DOUBLE_EQ would shrug.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"
#include "util/simd.h"

namespace cfnet {
namespace {

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

void ExpectSameBits(double a, double b, const char* what, size_t n,
                    size_t offset) {
  EXPECT_EQ(Bits(a), Bits(b)) << what << " diverges at n=" << n
                              << " offset=" << offset << " (" << a
                              << " vs " << b << ")";
}

void ExpectSameVector(const std::vector<double>& a,
                      const std::vector<double>& b, const char* what, size_t n,
                      size_t offset) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(Bits(a[i]), Bits(b[i]))
        << what << "[" << i << "] diverges at n=" << n << " offset=" << offset;
  }
}

constexpr size_t kMaxLen = 257;
constexpr size_t kMaxOffset = 3;

/// Deterministic input pool with NaN and +/-inf planted at fixed spots, so
/// every (length, offset) window eventually slides over a special value.
struct Pool {
  std::vector<double> a, b, c;

  explicit Pool(uint64_t seed) {
    Rng rng(seed);
    const size_t len = kMaxLen + kMaxOffset + 1;
    a.resize(len);
    b.resize(len);
    c.resize(len);
    for (size_t i = 0; i < len; ++i) {
      a[i] = rng.Uniform(-3.0, 3.0);
      b[i] = rng.Uniform(-3.0, 3.0);
    }
    for (double& v : c) v = rng.Uniform(-3.0, 3.0);
    a[5] = std::numeric_limits<double>::quiet_NaN();
    a[77] = std::numeric_limits<double>::infinity();
    a[131] = -std::numeric_limits<double>::infinity();
    b[13] = std::numeric_limits<double>::infinity();
    b[200] = std::numeric_limits<double>::quiet_NaN();
    c[40] = -std::numeric_limits<double>::infinity();
    c[150] = std::numeric_limits<double>::quiet_NaN();
  }
};

/// A window of n entries at `offset` with entries in [0, 3), where every
/// block of 16 (counted from the window's start) that a 1-in-4 draw picks
/// is +0. The inputs the block-skipping kernels are exact on.
std::vector<double> NonNegativeWithZeroBlocks(Rng& rng, size_t n,
                                              size_t offset) {
  std::vector<double> v(offset + n, 1.0);
  for (size_t i = 0; i < n; i += simd::kVirtualLanes) {
    const bool zero = rng.NextUint64(4) == 0;
    for (size_t j = i; j < std::min(n, i + simd::kVirtualLanes); ++j) {
      v[offset + j] = zero ? 0.0 : rng.Uniform(0.0, 3.0);
    }
  }
  // Scattered zeros inside kept blocks must not clear a block's bit.
  for (size_t i = 3; i < n; i += 29) v[offset + i] = 0.0;
  return v;
}

/// The dense form of AddAxpyBlocksF64: AddF64 plus one fixed expression
/// per element for the weighted accumulation.
void AddAxpyDense(double* sum, double* acc, double alpha, const double* y,
                  size_t n) {
  simd::AddF64(sum, y, n);
  for (size_t i = 0; i < n; ++i) acc[i] += alpha * y[i];
}

TEST(SimdTest, ReductionsMatchScalarOnFullGrid) {
  Pool pool(101);
  for (size_t n = 0; n <= kMaxLen; ++n) {
    for (size_t offset = 0; offset <= kMaxOffset; ++offset) {
      const double* a = pool.a.data() + offset;
      const double* b = pool.b.data() + offset;
      ExpectSameBits(simd::DotF64(a, b, n), simd::DotF64Scalar(a, b, n),
                     "DotF64", n, offset);
      ExpectSameBits(simd::SumF64(a, n), simd::SumF64Scalar(a, n), "SumF64", n,
                     offset);
      ExpectSameBits(simd::SumSqDiffF64(a, n, 0.37),
                     simd::SumSqDiffF64Scalar(a, n, 0.37), "SumSqDiffF64", n,
                     offset);
    }
  }
}

TEST(SimdTest, ClampedStepDotMatchesScalarOnFullGrid) {
  Pool pool(102);
  for (size_t n = 0; n <= kMaxLen; ++n) {
    for (size_t offset = 0; offset <= kMaxOffset; ++offset) {
      const double* x = pool.a.data() + offset;
      const double* g = pool.b.data() + offset;
      const double* rest = pool.c.data() + offset;
      // lo = 1 clamps about a third of the entries to a nonzero floor, and
      // lo = 0 leaves blocks all zero only where x and g make them so.
      for (double lo : {0.0, 1.0}) {
        std::vector<double> cand_v(n, -1), cand_s(n, -1);
        double rest_v = -1, rest_s = -1;
        uint64_t blocks_v = 0, blocks_s = 0;
        const double gdx_v = simd::ClampedStepDotF64(
            x, g, rest, 0.25, lo, 2.0, cand_v.data(), &rest_v, &blocks_v, n);
        const double gdx_s = simd::ClampedStepDotF64Scalar(
            x, g, rest, 0.25, lo, 2.0, cand_s.data(), &rest_s, &blocks_s, n);
        ExpectSameBits(gdx_v, gdx_s, "ClampedStepDotF64 gdx", n, offset);
        ExpectSameVector(cand_v, cand_s, "ClampedStepDotF64 cand", n, offset);
        ExpectSameBits(rest_v, rest_s, "ClampedStepDotF64 cand_rest", n,
                       offset);
        EXPECT_EQ(blocks_v, blocks_s) << "n=" << n << " offset=" << offset;
        // The fused outputs are the separate kernels' results.
        ExpectSameBits(rest_s, simd::DotF64Scalar(cand_s.data(), rest, n),
                       "ClampedStepDotF64 cand_rest vs DotF64", n, offset);
        EXPECT_EQ(blocks_s, simd::BlockMaskF64(cand_s.data(), n))
            << "n=" << n << " offset=" << offset;
      }
    }
  }
  // A step that clamps all but one entry to +0: each kept block's single
  // nonzero entry sits in a different quarter of its block (or in the
  // partial last block), and blocks 1 and 4 are cleared.
  std::vector<double> x(100, 0.5), g(100, -4.0), rest(100, 1.0), cand(100);
  for (size_t i : {15u, 32u, 52u, 90u, 99u}) g[i] = 1.0;
  for (bool scalar : {false, true}) {
    double cand_rest = 0;
    uint64_t blocks = 0;
    (scalar ? simd::ClampedStepDotF64Scalar : simd::ClampedStepDotF64)(
        x.data(), g.data(), rest.data(), 0.25, 0.0, 2.0, cand.data(),
        &cand_rest, &blocks, x.size());
    EXPECT_EQ(blocks, 0b1101101u) << (scalar ? "scalar" : "dispatched");
    EXPECT_EQ(std::bit_cast<uint64_t>(cand[20]), 0u);  // +0, never -0
  }
}

TEST(SimdTest, BlockMaskMarksBlocksWithNonzeroBits) {
  std::vector<double> x(1100, 0.0);
  EXPECT_EQ(simd::BlockMaskF64(x.data(), x.size()), 0u);
  x[17] = -0.0;  // a sign bit alone is a nonzero bit pattern
  x[47] = 1e-300;
  x[15 * 16] = 2.0;
  x[66 * 16] = 3.0;  // blocks 63 and up share the top bit
  EXPECT_EQ(simd::BlockMaskF64(x.data(), x.size()),
            (uint64_t{1} << 1) | (uint64_t{1} << 2) | (uint64_t{1} << 15) |
                (uint64_t{1} << 63));
  EXPECT_EQ(simd::BlockMaskF64(x.data(), 47), uint64_t{1} << 1);
}

// Every block-skipping kernel: with every block read it is its dense form
// bit for bit on any input (NaN and inf included); under any mask the
// dispatched kernel is its scalar form; and on finite non-negative inputs
// whose skipped blocks are zero it is again the dense form.
TEST(SimdTest, BlockKernelsMatchDenseOnFullGrid) {
  Pool pool(109);
  Rng rng(110);
  auto check = [&](const double* a, const double* b, size_t n, uint64_t mask,
                   bool dense_exact, size_t offset) {
    const double dot_v = simd::DotBlocksF64(a, b, n, mask);
    ExpectSameBits(dot_v, simd::DotBlocksF64Scalar(a, b, n, mask),
                   "DotBlocksF64 vs scalar", n, offset);
    std::vector<double> sum_v(a, a + n), acc_v(b, b + n);
    std::vector<double> sum_s = sum_v, acc_s = acc_v;
    std::vector<double> sum_d = sum_v, acc_d = acc_v;
    simd::AddAxpyBlocksF64(sum_v.data(), acc_v.data(), 1.75, b, n, mask);
    simd::AddAxpyBlocksF64Scalar(sum_s.data(), acc_s.data(), 1.75, b, n,
                                 mask);
    ExpectSameVector(sum_v, sum_s, "AddAxpyBlocksF64 sum vs scalar", n,
                     offset);
    ExpectSameVector(acc_v, acc_s, "AddAxpyBlocksF64 acc vs scalar", n,
                     offset);
    if (!dense_exact) return;
    ExpectSameBits(dot_v, simd::DotF64(a, b, n), "DotBlocksF64 vs DotF64", n,
                   offset);
    AddAxpyDense(sum_d.data(), acc_d.data(), 1.75, b, n);
    ExpectSameVector(sum_v, sum_d, "AddAxpyBlocksF64 sum vs dense", n, offset);
    ExpectSameVector(acc_v, acc_d, "AddAxpyBlocksF64 acc vs dense", n, offset);
  };
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= kMaxLen; ++n) lengths.push_back(n);
  for (size_t offset = 0; offset <= kMaxOffset; ++offset) {
    for (size_t n : lengths) {
      const double* a = pool.a.data() + offset;
      const double* b = pool.b.data() + offset;
      check(a, b, n, ~uint64_t{0}, /*dense_exact=*/true, offset);
      check(a, b, n, rng.Next(), /*dense_exact=*/false, offset);
      std::vector<double> na = NonNegativeWithZeroBlocks(rng, n, offset);
      std::vector<double> nb = NonNegativeWithZeroBlocks(rng, n, offset);
      // The AddAxpy half skips where b is zero, the dot where either is.
      const double* pa = na.data() + offset;
      const double* pb = nb.data() + offset;
      check(pa, pb, n, simd::BlockMaskF64(pb, n), /*dense_exact=*/true,
            offset);
      const uint64_t both = simd::BlockMaskF64(pa, n) &
                            simd::BlockMaskF64(pb, n);
      ExpectSameBits(simd::DotBlocksF64(pa, pb, n, both),
                     simd::DotF64(pa, pb, n), "DotBlocksF64 either-zero", n,
                     offset);
    }
  }
  // Rows past 63 blocks: the blocks that share the top bit are read or
  // skipped together.
  for (size_t n : {1008u, 1029u, 1100u}) {
    std::vector<double> na = NonNegativeWithZeroBlocks(rng, n, 0);
    std::vector<double> nb = NonNegativeWithZeroBlocks(rng, n, 0);
    check(na.data(), nb.data(), n, simd::BlockMaskF64(nb.data(), n),
          /*dense_exact=*/true, 0);
    check(na.data(), nb.data(), n, rng.Next() >> 1, /*dense_exact=*/false, 0);
  }
}

TEST(SimdTest, ElementwiseKernelsMatchScalarOnFullGrid) {
  Pool pool(103);
  for (size_t n = 0; n <= kMaxLen; ++n) {
    for (size_t offset = 0; offset <= kMaxOffset; ++offset) {
      const double* x = pool.a.data() + offset;
      const double* b = pool.b.data() + offset;
      std::vector<double> y_v(x, x + n), y_s(x, x + n);

      simd::AddF64(y_v.data(), b, n);
      simd::AddF64Scalar(y_s.data(), b, n);
      ExpectSameVector(y_v, y_s, "AddF64", n, offset);

      simd::SubF64(y_v.data(), b, n);
      simd::SubF64Scalar(y_s.data(), b, n);
      ExpectSameVector(y_v, y_s, "SubF64", n, offset);

      std::vector<double> dst_v(n, -1), dst_s(n, -1);
      simd::ClampedSubF64(dst_v.data(), x, b, n);
      simd::ClampedSubF64Scalar(dst_s.data(), x, b, n);
      ExpectSameVector(dst_v, dst_s, "ClampedSubF64", n, offset);
    }
  }
}

TEST(SimdTest, AndPopcountMatchesScalarAndNaiveBitLoop) {
  Rng rng(104);
  const size_t max_words = 130;
  std::vector<uint64_t> a(max_words + kMaxOffset), b(max_words + kMaxOffset);
  for (auto& w : a) w = rng.Next();
  for (auto& w : b) w = rng.Next();
  a[3] = 0;
  b[7] = ~uint64_t{0};
  for (size_t n = 0; n <= max_words; ++n) {
    for (size_t offset = 0; offset <= kMaxOffset; ++offset) {
      const uint64_t* pa = a.data() + offset;
      const uint64_t* pb = b.data() + offset;
      uint64_t naive = 0;
      for (size_t i = 0; i < n; ++i) {
        for (uint64_t w = pa[i] & pb[i]; w != 0; w >>= 1) naive += w & 1;
      }
      EXPECT_EQ(simd::AndPopcountU64(pa, pb, n), naive)
          << "n=" << n << " offset=" << offset;
      EXPECT_EQ(simd::AndPopcountU64Scalar(pa, pb, n), naive);
    }
  }
}

// The scalar canonical form must itself honor the documented virtual-lane
// layout — an independent re-derivation, so a refactor cannot silently
// change the semantics both sides of the differential tests share.
TEST(SimdTest, ScalarFormFollowsVirtualLaneContract) {
  Rng rng(105);
  std::vector<double> a(45);
  for (auto& v : a) v = rng.Uniform(-1.0, 1.0);
  double lane[simd::kVirtualLanes] = {};
  for (size_t i = 0; i < a.size(); ++i) {
    lane[i % simd::kVirtualLanes] += a[i];
  }
  double quad[4];
  for (size_t q = 0; q < 4; ++q) {
    quad[q] = (lane[4 * q] + lane[4 * q + 1]) + (lane[4 * q + 2] + lane[4 * q + 3]);
  }
  const double expected = (quad[0] + quad[1]) + (quad[2] + quad[3]);
  EXPECT_EQ(Bits(simd::SumF64Scalar(a.data(), a.size())), Bits(expected));
}

/// CoDA-shaped input for the fused helpers: a row x, a rest vector and a
/// 12-row factor matrix, all nonnegative, with some blocks of 16 zero
/// (row 6 is all zero, so its dot clamps to min_dot), each row's block
/// mask, and neighbor indices into the matrix in an arbitrary order with a
/// repeat. The last block of a row is partial (33 = 2 * 16 + 1).
struct CodaRows {
  static constexpr size_t kC = 33;
  std::vector<double> x, rest, rows;
  std::vector<uint64_t> row_blocks;
  uint64_t x_blocks = 0;
  std::vector<uint32_t> idx = {4, 0, 9, 2, 4, 7, 11, 1, 6};

  explicit CodaRows(uint64_t seed) : x(kC), rest(kC), rows(12 * kC) {
    Rng rng(seed);
    for (auto& v : x) v = rng.Uniform(0.0, 0.5);
    for (auto& v : rest) v = rng.Uniform(0.0, 2.0);
    for (auto& v : rows) v = rng.Uniform(0.0, 0.5);
    std::fill(x.begin() + 16, x.begin() + 32, 0.0);
    std::fill(rows.begin() + 6 * kC, rows.begin() + 7 * kC, 0.0);  // d = min
    for (size_t r : {0u, 9u}) {  // zero where x is not, and the last block
      std::fill(rows.begin() + r * kC, rows.begin() + r * kC + 16, 0.0);
      rows[r * kC + 32] = 0.0;
    }
    std::fill(rows.begin() + 2 * kC + 16, rows.begin() + 2 * kC + 32, 0.0);
    x_blocks = simd::BlockMaskF64(x.data(), kC);
    for (size_t r = 0; r < 12; ++r) {
      row_blocks.push_back(simd::BlockMaskF64(&rows[r * kC], kC));
    }
  }

  const double* Row(size_t i) const { return &rows[idx[i] * kC]; }

  /// Each neighbor edge's clamped dot and log term at x, from the dense
  /// definitions: the values a CoDA phase files.
  void EdgeValues(std::vector<double>& dots, std::vector<double>& terms) const {
    dots.clear();
    terms.clear();
    for (size_t i = 0; i < idx.size(); ++i) {
      double d = simd::DotF64(x.data(), Row(i), kC);
      if (d < 1e-10) d = 1e-10;
      dots.push_back(d);
      terms.push_back(std::log1p(-std::exp(-d)));
    }
  }
};

TEST(SimdTest, FusedCodaHelpersBitIdenticalSimdOnOff) {
  CodaRows in(106);
  const size_t c = CodaRows::kC;
  const size_t count = in.idx.size();
  ASSERT_EQ(in.row_blocks[6], 0u);
  ASSERT_EQ(in.row_blocks[0], 0b010u);
  ASSERT_EQ(in.x_blocks, 0b101u);
  std::vector<double> dots, terms;
  in.EdgeValues(dots, terms);
  struct Out {
    std::vector<double> nbr_sum, grad, cand_dots, cand_terms;
    double sum = 0;
    double obj = 0;
  };
  auto run = [&] {
    Out out;
    out.nbr_sum.assign(c, 0);
    out.grad.assign(c, 0);
    out.cand_dots.assign(count, -1);
    out.cand_terms.assign(count, -1);
    out.sum = simd::AccumExpm1RowsF64(
        in.rows.data(), in.row_blocks.data(), in.idx.data(), count, c,
        dots.data(), terms.data(), 1e10, out.nbr_sum.data(), out.grad.data());
    out.obj = simd::SumLogEdgeProbF64(
        in.x.data(), in.x_blocks, in.rows.data(), in.row_blocks.data(),
        in.idx.data(), count, c, 1e-10, 0.75,
        -std::numeric_limits<double>::infinity(), out.cand_dots.data(),
        out.cand_terms.data());
    return out;
  };
  const Out on = run();
  Out off;
  {
    simd::ScopedForceScalar force;
    off = run();
  }
  EXPECT_EQ(Bits(on.sum), Bits(off.sum));
  EXPECT_EQ(Bits(on.obj), Bits(off.obj));
  ExpectSameVector(on.nbr_sum, off.nbr_sum, "AccumExpm1RowsF64 nbr_sum",
                   count, 0);
  ExpectSameVector(on.grad, off.grad, "AccumExpm1RowsF64 grad", count, 0);
  ExpectSameVector(on.cand_dots, off.cand_dots, "SumLogEdgeProbF64 dots",
                   count, 0);
  ExpectSameVector(on.cand_terms, off.cand_terms, "SumLogEdgeProbF64 terms",
                   count, 0);

  // Both helpers agree with the plain dense definitions, row by row.
  std::vector<double> nbr_sum(c, 0), grad(c, 0);
  double sum = 0;
  for (size_t i = 0; i < count; ++i) {
    double w = 1.0 / std::expm1(dots[i]);
    if (w > 1e10) w = 1e10;
    for (size_t j = 0; j < c; ++j) {
      nbr_sum[j] += in.Row(i)[j];
      grad[j] += w * in.Row(i)[j];
    }
    sum += terms[i];
  }
  EXPECT_EQ(dots[8], 1e-10);  // idx[8] is the zero row
  ExpectSameVector(on.nbr_sum, nbr_sum, "AccumExpm1RowsF64 nbr_sum vs plain",
                   count, 0);
  ExpectSameVector(on.grad, grad, "AccumExpm1RowsF64 grad vs plain", count, 0);
  EXPECT_EQ(Bits(on.sum), Bits(sum));
  EXPECT_EQ(Bits(on.obj), Bits(sum - 0.75));
  ExpectSameVector(on.cand_dots, dots, "SumLogEdgeProbF64 dots vs plain",
                   count, 0);
  ExpectSameVector(on.cand_terms, terms, "SumLogEdgeProbF64 terms vs plain",
                   count, 0);
}

// Stopping early must never change the Armijo verdict `obj >= bar`: for
// every bar, the early-exit result passes exactly when the full objective
// does, and then it is the full objective.
TEST(SimdTest, SumLogEdgeProbEarlyExitKeepsArmijoVerdict) {
  CodaRows in(108);
  const size_t c = CodaRows::kC;
  const size_t count = in.idx.size();
  const double x_rest = simd::DotF64(in.x.data(), in.rest.data(), c);
  auto objective = [&](double bar, std::vector<double>& dots,
                       std::vector<double>& terms) {
    return simd::SumLogEdgeProbF64(in.x.data(), in.x_blocks, in.rows.data(),
                                   in.row_blocks.data(), in.idx.data(), count,
                                   c, 1e-10, x_rest, bar, dots.data(),
                                   terms.data());
  };
  std::vector<double> dots(count), terms(count);
  const double full =
      objective(-std::numeric_limits<double>::infinity(), dots, terms);
  std::vector<double> bars = {std::nextafter(full, 0.0), full,
                              std::nextafter(full, -1e300), -x_rest,
                              std::nextafter(-x_rest, 0.0),
                              std::numeric_limits<double>::quiet_NaN()};
  double sum = 0;
  for (double t : terms) {
    sum += t;
    bars.push_back(sum - x_rest);
    bars.push_back(std::nextafter(sum - x_rest, 0.0));
    bars.push_back(std::nextafter(sum - x_rest, -1e300));
  }
  for (double bar : bars) {
    std::vector<double> d(count), t(count);
    const double obj = objective(bar, d, t);
    EXPECT_EQ(obj >= bar, full >= bar) << "bar " << bar;
    if (full >= bar) {
      EXPECT_EQ(Bits(obj), Bits(full)) << "bar " << bar;
    }
  }
}

TEST(SimdTest, ScopedForceScalarSwapsAndRestoresBackend) {
  const std::string before = simd::SimdBackendName();
  // Dispatch takes the vector path whenever the CPU has it; a silent
  // fallback would leave every differential test comparing scalar to scalar.
#if defined(__x86_64__)
  __builtin_cpu_init();
  const bool has_avx2 = __builtin_cpu_supports("avx2") != 0;
#else
  const bool has_avx2 = false;
#endif
  EXPECT_EQ(before, has_avx2 ? "avx2" : "scalar");
  {
    simd::ScopedForceScalar outer;
    EXPECT_STREQ(simd::SimdBackendName(), "scalar");
    {
      simd::ScopedForceScalar inner;  // nestable
      EXPECT_STREQ(simd::SimdBackendName(), "scalar");
    }
    EXPECT_STREQ(simd::SimdBackendName(), "scalar");
  }
  EXPECT_EQ(simd::SimdBackendName(), before);
}

TEST(SimdTest, MeanVarHandlesEmptyAndMatchesComposition) {
  double mean = 42, ssd = 42;
  simd::MeanVarF64(nullptr, 0, &mean, &ssd);
  EXPECT_EQ(mean, 0.0);
  EXPECT_EQ(ssd, 0.0);

  Rng rng(107);
  std::vector<double> a(97);
  for (auto& v : a) v = rng.Uniform(-5.0, 5.0);
  simd::MeanVarF64(a.data(), a.size(), &mean, &ssd);
  const double m = simd::SumF64(a.data(), a.size()) /
                   static_cast<double>(a.size());
  EXPECT_EQ(Bits(mean), Bits(m));
  EXPECT_EQ(Bits(ssd), Bits(simd::SumSqDiffF64(a.data(), a.size(), m)));
}

}  // namespace
}  // namespace cfnet
