// ARMv8 NEON kernel tier. NEON is baseline on aarch64 so no runtime CPU
// check is needed — the compile-time guard is the whole gate. The 16
// virtual lanes live in eight float64x2_t accumulators (accumulator q
// holds lanes 2q, 2q+1); main loops step 16 and the scalar tail continues
// the same lanes, exactly like the scalar canonical forms in simd.cc.
//
// Clamps use explicit compare + bit-select (vcgtq/vcltq + vbslq), NOT
// vmaxq/vminq: ARM FMAX propagates NaN while x86 MAXPD returns the second
// operand, and the bit-identity contract pins the latter (compare-select)
// semantics.

#include "util/simd.h"
#include "util/simd_internal.h"

#if defined(__aarch64__)

#include <arm_neon.h>

#include <bit>

namespace cfnet::simd::internal {
namespace {

double DotNeon(const double* a, const double* b, size_t n) {
  float64x2_t acc[8];
  for (auto& v : acc) v = vdupq_n_f64(0.0);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    for (size_t q = 0; q < 8; ++q) {
      acc[q] = vaddq_f64(
          acc[q], vmulq_f64(vld1q_f64(a + i + 2 * q), vld1q_f64(b + i + 2 * q)));
    }
  }
  double lane[kVirtualLanes];
  for (size_t q = 0; q < 8; ++q) vst1q_f64(lane + 2 * q, acc[q]);
  for (; i < n; ++i) lane[i & 15] += a[i] * b[i];
  return CombineLanes(lane);
}

double SumNeon(const double* a, size_t n) {
  float64x2_t acc[8];
  for (auto& v : acc) v = vdupq_n_f64(0.0);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    for (size_t q = 0; q < 8; ++q) {
      acc[q] = vaddq_f64(acc[q], vld1q_f64(a + i + 2 * q));
    }
  }
  double lane[kVirtualLanes];
  for (size_t q = 0; q < 8; ++q) vst1q_f64(lane + 2 * q, acc[q]);
  for (; i < n; ++i) lane[i & 15] += a[i];
  return CombineLanes(lane);
}

double SumSqDiffNeon(const double* a, size_t n, double center) {
  const float64x2_t vc = vdupq_n_f64(center);
  float64x2_t acc[8];
  for (auto& v : acc) v = vdupq_n_f64(0.0);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    for (size_t q = 0; q < 8; ++q) {
      const float64x2_t d = vsubq_f64(vld1q_f64(a + i + 2 * q), vc);
      acc[q] = vaddq_f64(acc[q], vmulq_f64(d, d));
    }
  }
  double lane[kVirtualLanes];
  for (size_t q = 0; q < 8; ++q) vst1q_f64(lane + 2 * q, acc[q]);
  for (; i < n; ++i) {
    const double d = a[i] - center;
    lane[i & 15] += d * d;
  }
  return CombineLanes(lane);
}

/// (t > lo) ? t : lo — compare false on NaN selects lo, matching MAXPD.
inline float64x2_t SelectMax(float64x2_t t, float64x2_t lo) {
  return vbslq_f64(vcgtq_f64(t, lo), t, lo);
}

/// (t < hi) ? t : hi.
inline float64x2_t SelectMin(float64x2_t t, float64x2_t hi) {
  return vbslq_f64(vcltq_f64(t, hi), t, hi);
}

double ClampedStepDotNeon(const double* x, const double* g, double step,
                          double lo, double hi, double* cand, size_t n) {
  const float64x2_t vstep = vdupq_n_f64(step);
  const float64x2_t vlo = vdupq_n_f64(lo);
  const float64x2_t vhi = vdupq_n_f64(hi);
  float64x2_t acc[8];
  for (auto& v : acc) v = vdupq_n_f64(0.0);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    for (size_t q = 0; q < 8; ++q) {
      const float64x2_t vx = vld1q_f64(x + i + 2 * q);
      const float64x2_t vg = vld1q_f64(g + i + 2 * q);
      float64x2_t t = vaddq_f64(vx, vmulq_f64(vstep, vg));
      t = SelectMin(SelectMax(t, vlo), vhi);
      vst1q_f64(cand + i + 2 * q, t);
      acc[q] = vaddq_f64(acc[q], vmulq_f64(vg, vsubq_f64(t, vx)));
    }
  }
  double lane[kVirtualLanes];
  for (size_t q = 0; q < 8; ++q) vst1q_f64(lane + 2 * q, acc[q]);
  for (; i < n; ++i) {
    double t = x[i] + step * g[i];
    t = (t > lo) ? t : lo;
    t = (t < hi) ? t : hi;
    cand[i] = t;
    lane[i & 15] += g[i] * (t - x[i]);
  }
  return CombineLanes(lane);
}

void AxpyNeon(double alpha, const double* x, double* y, size_t n) {
  const float64x2_t va = vdupq_n_f64(alpha);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(y + i,
              vaddq_f64(vld1q_f64(y + i), vmulq_f64(va, vld1q_f64(x + i))));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void AddNeon(double* y, const double* x, size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(y + i, vaddq_f64(vld1q_f64(y + i), vld1q_f64(x + i)));
  }
  for (; i < n; ++i) y[i] += x[i];
}

void SubNeon(double* y, const double* x, size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(y + i, vsubq_f64(vld1q_f64(y + i), vld1q_f64(x + i)));
  }
  for (; i < n; ++i) y[i] -= x[i];
}

void ClampedSubNeon(double* out, const double* a, const double* b, size_t n) {
  const float64x2_t zero = vdupq_n_f64(0.0);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t t = vsubq_f64(vld1q_f64(a + i), vld1q_f64(b + i));
    vst1q_f64(out + i, SelectMax(t, zero));
  }
  for (; i < n; ++i) {
    const double t = a[i] - b[i];
    out[i] = (t > 0.0) ? t : 0.0;
  }
}

uint64_t AndPopcountNeon(const uint64_t* a, const uint64_t* b, size_t n) {
  uint64x2_t acc = vdupq_n_u64(0);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint8x16_t v = vreinterpretq_u8_u64(
        vandq_u64(vld1q_u64(a + i), vld1q_u64(b + i)));
    acc = vaddq_u64(acc, vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(vcntq_u8(v)))));
  }
  uint64_t s = vgetq_lane_u64(acc, 0) + vgetq_lane_u64(acc, 1);
  for (; i < n; ++i) s += static_cast<uint64_t>(std::popcount(a[i] & b[i]));
  return s;
}

const Kernels kNeonKernels = {
    "neon",
    DotNeon,
    SumNeon,
    SumSqDiffNeon,
    ClampedStepDotNeon,
    AxpyNeon,
    AddNeon,
    SubNeon,
    ClampedSubNeon,
    AndPopcountNeon,
};

}  // namespace

const Kernels* GetNeonKernels() { return &kNeonKernels; }

}  // namespace cfnet::simd::internal

#else  // !__aarch64__

namespace cfnet::simd::internal {
const Kernels* GetNeonKernels() { return nullptr; }
}  // namespace cfnet::simd::internal

#endif
