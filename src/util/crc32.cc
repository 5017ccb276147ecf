#include "util/crc32.h"

#include <cstring>

// Hardware path, selected at compile time and guarded by a one-time runtime
// CPU check. x86-64 has no instruction for the IEEE polynomial (the SSE4.2
// `crc32` opcode is hardwired to Castagnoli), so the accelerated path is
// carry-less-multiply folding (PCLMULQDQ) with the reflected-IEEE fold
// constants from Intel's "Fast CRC Computation Using PCLMULQDQ" paper — the
// same constants zlib ships. It reduces to the identical bit stream the
// table produces; every other target runs the table alone.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define CFNET_CRC32_X86_CLMUL 1
#include <immintrin.h>
#endif

namespace cfnet {
namespace {

/// Slice-by-8 tables: table[0] is the classic byte-at-a-time table; entry
/// table[k][b] is the CRC of byte b followed by k zero bytes. Processing
/// eight bytes per step keeps footer verification cheap relative to the
/// JSON-decode work it rides alongside on the snapshot scan path.
const uint32_t (*Crc32Tables())[256] {
  static auto* tables = []() {
    auto* t = new uint32_t[8][256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = t[0][i];
      for (int k = 1; k < 8; ++k) {
        c = t[0][c & 0xff] ^ (c >> 8);
        t[k][i] = c;
      }
    }
    return t;
  }();
  return tables;
}

/// All internal kernels run on the *raw* shift-register state (the caller
/// applies the ~crc pre/post conditioning once), so table and hardware
/// segments of one message compose freely.
uint32_t TableUpdateState(uint32_t state, const unsigned char* p, size_t n) {
  const uint32_t(*t)[256] = Crc32Tables();
  while (n >= 8) {
    // Little-endian word folds; memcpy keeps the loads alignment-safe.
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= state;
    state = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^
            t[5][(lo >> 16) & 0xff] ^ t[4][lo >> 24] ^ t[3][hi & 0xff] ^
            t[2][(hi >> 8) & 0xff] ^ t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    state = t[0][(state ^ *p++) & 0xff] ^ (state >> 8);
  }
  return state;
}

#if defined(CFNET_CRC32_X86_CLMUL)

/// PCLMULQDQ fold-by-4 over the reflected IEEE polynomial. Requires
/// n >= 64 and n % 16 == 0; the dispatcher hands the sub-16-byte tail to
/// the table kernel with the folded state.
__attribute__((target("pclmul,sse4.1"))) uint32_t ClmulUpdateState(
    uint32_t state, const unsigned char* p, size_t n) {
  // k1 = x^(4*128+64) mod P, k2 = x^(4*128) mod P (bit-reflected, the
  // leading coefficient carried in bit 32 of each lane).
  const __m128i k1k2 = _mm_setr_epi32(0x54442bd4, 1, static_cast<int>(0xc6e41596), 1);
  // k3 = x^(128+64) mod P, k4 = x^128 mod P.
  const __m128i k3k4 = _mm_setr_epi32(0x751997d0, 1, static_cast<int>(0xccaa009e), 0);
  __m128i x1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 0));
  __m128i x2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16));
  __m128i x3 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 32));
  __m128i x4 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 48));
  x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128(static_cast<int>(state)));
  p += 64;
  n -= 64;
  __m128i x5;
  while (n >= 64) {
    x5 = _mm_clmulepi64_si128(x1, k1k2, 0x00);
    __m128i x6 = _mm_clmulepi64_si128(x2, k1k2, 0x00);
    __m128i x7 = _mm_clmulepi64_si128(x3, k1k2, 0x00);
    __m128i x8 = _mm_clmulepi64_si128(x4, k1k2, 0x00);
    x1 = _mm_clmulepi64_si128(x1, k1k2, 0x11);
    x2 = _mm_clmulepi64_si128(x2, k1k2, 0x11);
    x3 = _mm_clmulepi64_si128(x3, k1k2, 0x11);
    x4 = _mm_clmulepi64_si128(x4, k1k2, 0x11);
    x1 = _mm_xor_si128(
        _mm_xor_si128(x1, x5),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 0)));
    x2 = _mm_xor_si128(
        _mm_xor_si128(x2, x6),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16)));
    x3 = _mm_xor_si128(
        _mm_xor_si128(x3, x7),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 32)));
    x4 = _mm_xor_si128(
        _mm_xor_si128(x4, x8),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 48)));
    p += 64;
    n -= 64;
  }
  // Fold the four 128-bit accumulators into one.
  x5 = _mm_clmulepi64_si128(x1, k3k4, 0x00);
  x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, x5), x2);
  x5 = _mm_clmulepi64_si128(x1, k3k4, 0x00);
  x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, x5), x3);
  x5 = _mm_clmulepi64_si128(x1, k3k4, 0x00);
  x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, x5), x4);
  // Residual 16-byte chunks.
  while (n >= 16) {
    x5 = _mm_clmulepi64_si128(x1, k3k4, 0x00);
    x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, x5),
                       _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
    p += 16;
    n -= 16;
  }
  // 128 -> 64 bits.
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);
  x2 = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_srli_si128(x1, 8);
  x1 = _mm_xor_si128(x1, x2);
  const __m128i k5k0 = _mm_setr_epi32(0x63cd6124, 1, 0, 0);  // k5 = x^96 mod P
  x2 = _mm_srli_si128(x1, 4);
  x1 = _mm_and_si128(x1, mask32);
  x1 = _mm_clmulepi64_si128(x1, k5k0, 0x00);
  x1 = _mm_xor_si128(x1, x2);
  // Barrett reduction 64 -> 32 bits (low lane P', high lane mu).
  const __m128i poly =
      _mm_setr_epi32(static_cast<int>(0xdb710641), 1,
                     static_cast<int>(0xf7011641), 1);
  x2 = _mm_and_si128(x1, mask32);
  x2 = _mm_clmulepi64_si128(x2, poly, 0x10);
  x2 = _mm_and_si128(x2, mask32);
  x2 = _mm_clmulepi64_si128(x2, poly, 0x00);
  x1 = _mm_xor_si128(x1, x2);
  return static_cast<uint32_t>(_mm_extract_epi32(x1, 1));
}

bool HardwareCrcAvailable() {
  static const bool available = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  }();
  return available;
}

/// Below this, fold setup costs more than it saves.
constexpr size_t kHwMinBytes = 64;

uint32_t HwUpdateState(uint32_t state, const unsigned char*& p, size_t& n) {
  const size_t chunk = n & ~size_t{15};  // clmul kernel wants 16-byte steps
  state = ClmulUpdateState(state, p, chunk);
  p += chunk;
  n -= chunk;
  return state;
}

#else

bool HardwareCrcAvailable() { return false; }

constexpr size_t kHwMinBytes = ~size_t{0};

uint32_t HwUpdateState(uint32_t state, const unsigned char*&, size_t&) {
  return state;  // unreachable: kHwMinBytes admits nothing
}

#endif

}  // namespace

uint32_t Crc32Update(uint32_t crc, std::string_view data) {
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  uint32_t state = ~crc;
  if (n >= kHwMinBytes && HardwareCrcAvailable()) {
    state = HwUpdateState(state, p, n);
  }
  state = TableUpdateState(state, p, n);
  return ~state;
}

uint32_t Crc32FallbackUpdate(uint32_t crc, std::string_view data) {
  return ~TableUpdateState(
      ~crc, reinterpret_cast<const unsigned char*>(data.data()), data.size());
}

bool Crc32HardwareEnabled() { return HardwareCrcAvailable(); }

uint32_t Crc32(std::string_view data) { return Crc32Update(0, data); }

}  // namespace cfnet
