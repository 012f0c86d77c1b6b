// FNV-1a digest for golden fingerprints: tests fold the exact values a run
// reports (doubles by bit pattern) into one 64-bit constant, so any change
// to a step sequence, a charge or a q_run trace moves the pinned value.

#ifndef BOUQUET_TESTS_GOLDEN_DIGEST_H_
#define BOUQUET_TESTS_GOLDEN_DIGEST_H_

#include <cstdint>
#include <cstring>

namespace bouquet {

class GoldenDigest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void Add(int64_t v) { Add(static_cast<uint64_t>(v)); }
  void Add(int v) { Add(static_cast<uint64_t>(static_cast<int64_t>(v))); }
  void Add(bool v) { Add(static_cast<uint64_t>(v ? 1 : 0)); }
  void Add(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    Add(bits);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace bouquet

#endif  // BOUQUET_TESTS_GOLDEN_DIGEST_H_
