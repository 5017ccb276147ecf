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
  std::vector<double> a, b;

  explicit Pool(uint64_t seed) {
    Rng rng(seed);
    const size_t len = kMaxLen + kMaxOffset + 1;
    a.resize(len);
    b.resize(len);
    for (size_t i = 0; i < len; ++i) {
      a[i] = rng.Uniform(-3.0, 3.0);
      b[i] = rng.Uniform(-3.0, 3.0);
    }
    a[5] = std::numeric_limits<double>::quiet_NaN();
    a[77] = std::numeric_limits<double>::infinity();
    a[131] = -std::numeric_limits<double>::infinity();
    b[13] = std::numeric_limits<double>::infinity();
    b[200] = std::numeric_limits<double>::quiet_NaN();
  }
};

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
      std::vector<double> cand_v(n, -1), cand_s(n, -1);
      const double gdx_v =
          simd::ClampedStepDotF64(x, g, 0.25, 0.0, 2.0, cand_v.data(), n);
      const double gdx_s = simd::ClampedStepDotF64Scalar(x, g, 0.25, 0.0, 2.0,
                                                         cand_s.data(), n);
      ExpectSameBits(gdx_v, gdx_s, "ClampedStepDotF64 gdx", n, offset);
      ExpectSameVector(cand_v, cand_s, "ClampedStepDotF64 cand", n, offset);
    }
  }
}

TEST(SimdTest, ElementwiseKernelsMatchScalarOnFullGrid) {
  Pool pool(103);
  for (size_t n = 0; n <= kMaxLen; ++n) {
    for (size_t offset = 0; offset <= kMaxOffset; ++offset) {
      const double* x = pool.a.data() + offset;
      const double* b = pool.b.data() + offset;
      std::vector<double> y_v(x, x + n), y_s(x, x + n);

      simd::AxpyF64(1.75, b, y_v.data(), n);
      simd::AxpyF64Scalar(1.75, b, y_s.data(), n);
      ExpectSameVector(y_v, y_s, "AxpyF64", n, offset);

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
/// 12-row factor matrix, all nonnegative (row 6 is zero, so its dot clamps
/// to min_dot), and neighbor indices into the matrix in an arbitrary order
/// with a repeat.
struct CodaRows {
  static constexpr size_t kC = 33;
  std::vector<double> x, rest, rows;
  std::vector<uint32_t> idx = {4, 0, 9, 2, 4, 7, 11, 1, 6};

  explicit CodaRows(uint64_t seed) : x(kC), rest(kC), rows(12 * kC) {
    Rng rng(seed);
    for (auto& v : x) v = rng.Uniform(0.0, 0.5);
    for (auto& v : rest) v = rng.Uniform(0.0, 2.0);
    for (auto& v : rows) v = rng.Uniform(0.0, 0.5);
    std::fill(rows.begin() + 6 * kC, rows.begin() + 7 * kC, 0.0);  // d = min
  }
};

TEST(SimdTest, FusedCodaHelpersBitIdenticalSimdOnOff) {
  CodaRows in(106);
  const size_t c = CodaRows::kC;
  const size_t count = in.idx.size();
  struct Out {
    std::vector<double> grad, dots, terms, cand_dots, cand_terms;
    double sum = 0;
    double obj = 0;
  };
  auto run = [&] {
    Out out;
    out.grad.assign(c, 0);
    for (auto* v : {&out.dots, &out.terms, &out.cand_dots, &out.cand_terms}) {
      v->assign(count, -1);
    }
    out.sum = simd::AccumExpm1RowsF64(
        in.x.data(), in.rows.data(), in.idx.data(), count, c, 1e-10, 1e10,
        out.grad.data(), out.dots.data(), out.terms.data());
    out.obj = simd::SumLogEdgeProbF64(
        in.x.data(), in.rows.data(), in.idx.data(), count, c, 1e-10, 0.75,
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
  ExpectSameVector(on.grad, off.grad, "AccumExpm1RowsF64 grad", count, 0);
  ExpectSameVector(on.dots, off.dots, "AccumExpm1RowsF64 dots", count, 0);
  ExpectSameVector(on.terms, off.terms, "AccumExpm1RowsF64 terms", count, 0);

  // Both helpers agree with the plain definitions, and with each other.
  double sum = 0;
  for (size_t i = 0; i < count; ++i) {
    double d = simd::DotF64(in.x.data(), &in.rows[in.idx[i] * c], c);
    if (d < 1e-10) d = 1e-10;
    EXPECT_EQ(Bits(on.dots[i]), Bits(d)) << i;
    EXPECT_EQ(Bits(on.terms[i]), Bits(std::log1p(-std::exp(-d)))) << i;
    sum += on.terms[i];
  }
  EXPECT_EQ(on.dots[8], 1e-10);  // idx[8] is the zero row
  EXPECT_EQ(Bits(on.sum), Bits(sum));
  EXPECT_EQ(Bits(on.obj), Bits(sum - 0.75));
  ExpectSameVector(on.cand_dots, on.dots, "SumLogEdgeProbF64 dots", count, 0);
  ExpectSameVector(on.cand_terms, on.terms, "SumLogEdgeProbF64 terms", count,
                   0);
}

// Stopping early must never change the Armijo verdict `obj >= bar`: for
// every bar, the early-exit result passes exactly when the full objective
// does, and then it is the full objective.
TEST(SimdTest, SumLogEdgeProbEarlyExitKeepsArmijoVerdict) {
  CodaRows in(108);
  const size_t c = CodaRows::kC;
  const size_t count = in.idx.size();
  const double x_rest = simd::DotF64(in.x.data(), in.rest.data(), c);
  std::vector<double> dots(count), terms(count);
  const double full = simd::SumLogEdgeProbF64(
      in.x.data(), in.rows.data(), in.idx.data(), count, c, 1e-10, x_rest,
      -std::numeric_limits<double>::infinity(), dots.data(), terms.data());
  std::vector<double> bars = {std::nextafter(full, 0.0), full,
                              std::nextafter(full, -1e300), -x_rest,
                              std::nextafter(-x_rest, 0.0),
                              std::numeric_limits<double>::quiet_NaN()};
  double sum = 0;
  for (double t : terms) {
    sum += t;
    bars.push_back(sum - x_rest);
    bars.push_back(std::nextafter(sum - x_rest, 0.0));
  }
  for (double bar : bars) {
    std::vector<double> d(count), t(count);
    const double obj =
        simd::SumLogEdgeProbF64(in.x.data(), in.rows.data(), in.idx.data(),
                                count, c, 1e-10, x_rest, bar, d.data(),
                                t.data());
    EXPECT_EQ(obj >= bar, full >= bar) << "bar " << bar;
    if (full >= bar) {
      EXPECT_EQ(Bits(obj), Bits(full)) << "bar " << bar;
    }
  }
}

TEST(SimdTest, ScopedForceScalarSwapsAndRestoresBackend) {
  const std::string before = simd::SimdBackendName();
  const bool was_enabled = simd::SimdEnabled();
  {
    simd::ScopedForceScalar outer;
    EXPECT_STREQ(simd::SimdBackendName(), "scalar");
    EXPECT_FALSE(simd::SimdEnabled());
    {
      simd::ScopedForceScalar inner;  // nestable
      EXPECT_STREQ(simd::SimdBackendName(), "scalar");
    }
    EXPECT_STREQ(simd::SimdBackendName(), "scalar");
  }
  EXPECT_EQ(simd::SimdBackendName(), before);
  EXPECT_EQ(simd::SimdEnabled(), was_enabled);
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
