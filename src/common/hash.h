// 64-bit word-at-a-time content hashing, shared by the serving layer's plan
// fingerprints (engine/fingerprint) and the optimizer layer's Gram-cache
// keys (core/gram_cache). Fast, dependency-free, and stable across
// platforms; callers tolerate the 64-bit collision odds (a collision can
// only alias two keys, never corrupt a stored value), so a cryptographic
// hash is not needed.
//
// Each 64-bit word is mixed on its own (MurmurHash64A's multiply, shift,
// multiply) before it meets the state, and the digest ends with the
// MurmurHash3 fmix64 avalanche. The word mix matters: factor entries 0.0
// and 1.0 differ only in exponent bits, and a multiply alone never carries
// high bits down into the low ones. Every step is a bijection of the
// changed word or of the state, so changing any one fed word always changes
// the digest.
#ifndef HDMM_COMMON_HASH_H_
#define HDMM_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace hdmm {

/// Incremental hasher over 64-bit words with typed convenience feeds.
class WordHasher {
 public:
  void U64(uint64_t v) {
    v *= kMul;
    v ^= v >> 47;
    v *= kMul;
    state_ = (state_ ^ v) * kMul;
  }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void I32(int v) { I64(v); }
  void Bool(bool v) { U64(v ? 1 : 0); }

  /// Doubles are hashed by bit pattern with -0.0 canonicalized to 0.0 so the
  /// two representations of zero (which are numerically interchangeable
  /// everywhere in the library) cannot split a cache.
  void F64(double v) {
    if (v == 0.0) v = 0.0;  // Collapses -0.0.
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }

  /// Raw bytes, eight at a time; the last word is zero-padded and the
  /// length follows, so "a" and "a\0" differ.
  void Bytes(const void* data, size_t n) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      uint64_t word;
      std::memcpy(&word, p + i, 8);
      U64(word);
    }
    uint64_t tail = 0;
    std::memcpy(&tail, p + i, n - i);
    U64(tail);
    U64(n);
  }

  uint64_t Digest() const {
    uint64_t h = state_;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return h;
  }

 private:
  static constexpr uint64_t kMul = 0xc6a4a7935bd1e995ULL;
  uint64_t state_ = 0x9e3779b97f4a7c15ULL;
};

}  // namespace hdmm

#endif  // HDMM_COMMON_HASH_H_
