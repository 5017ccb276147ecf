#ifndef CFNET_UTIL_CRC32_H_
#define CFNET_UTIL_CRC32_H_

#include <cstdint>
#include <string_view>

namespace cfnet {

/// CRC-32 (IEEE 802.3 polynomial): the checksum of commit footers and of
/// columnar block frames.
///
/// Dispatches to a hardware-accelerated path when one is available:
/// carry-less-multiply folding (PCLMULQDQ) on x86-64, the ARMv8 `crc32`
/// instructions on aarch64. Both are bit-identical to the table fallback —
/// commit footers and columnar block CRCs written by either path verify
/// under the other (pinned by the differential test in columnar_test).
uint32_t Crc32(std::string_view data);

/// Incremental form: feed chunks with the previous return value.
uint32_t Crc32Update(uint32_t crc, std::string_view data);

/// Portable slice-by-8 table implementation — the reference the hardware
/// paths are differential-tested against (and the fallback baseline for the
/// CRC micro-bench in bench_durability).
uint32_t Crc32FallbackUpdate(uint32_t crc, std::string_view data);

/// True when this process dispatches large inputs to a hardware CRC path
/// (compile-time support present and runtime CPU check passed).
bool Crc32HardwareEnabled();

}  // namespace cfnet

#endif  // CFNET_UTIL_CRC32_H_
