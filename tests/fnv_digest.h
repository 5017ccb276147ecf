#ifndef CFNET_TESTS_FNV_DIGEST_H_
#define CFNET_TESTS_FNV_DIGEST_H_

#include <bit>
#include <cstdint>

namespace cfnet {

/// FNV-1a over 64-bit words, byte by byte: the digest the pinned-output
/// tests fold every bit of a result into. Test suites derive from it to add
/// helpers for their own result types.
class FnvDigest {
 public:
  void Word(uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (x >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  void Bits(double x) { Word(std::bit_cast<uint64_t>(x)); }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace cfnet

#endif  // CFNET_TESTS_FNV_DIGEST_H_
