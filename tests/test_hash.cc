// Content-hash quality of the two keys built on common/hash.h: GramCache
// factor keys and workload fingerprints must tell every distinct building
// block apart (they differ only in where the 0/1 entries sit, and 0.0 and
// 1.0 differ only in exponent bits), must change on any single-bit change
// of an entry, and must not tell -0.0 from 0.0.
#include <bitset>
#include <cstdint>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "core/gram_cache.h"
#include "engine/fingerprint.h"
#include "workload/building_blocks.h"
#include "workload/workload.h"

namespace hdmm {
namespace {

// Identity, Total, Prefix, AllRange and every width(k) block at n = 1..64,
// each also transposed. Blocks are named by index and rebuilt on demand, so
// the ~9M entries are never resident at once.
class BlockFamily {
 public:
  BlockFamily() {
    for (int64_t n = 1; n <= 64; ++n) {
      for (int kind = 0; kind < 4; ++kind) specs_.push_back({kind, n, 0});
      for (int64_t k = 1; k <= n; ++k) specs_.push_back({4, n, k});
    }
  }
  size_t size() const { return 2 * specs_.size(); }

  Matrix Build(size_t i) const {
    const Spec& s = specs_[i / 2];
    Matrix m;
    switch (s.kind) {
      case 0: m = IdentityBlock(s.n); break;
      case 1: m = TotalBlock(s.n); break;
      case 2: m = PrefixBlock(s.n); break;
      case 3: m = AllRangeBlock(s.n); break;
      default: m = WidthRangeBlock(s.n, s.k); break;
    }
    return i % 2 == 0 ? m : m.Transposed();
  }

  std::string Name(size_t i) const {
    static const char* const kKinds[] = {"identity", "total", "prefix",
                                         "allrange", "width"};
    const Spec& s = specs_[i / 2];
    std::string name = std::string(kKinds[s.kind]) + "(n=" +
                       std::to_string(s.n);
    if (s.kind == 4) name += ", k=" + std::to_string(s.k);
    return name + (i % 2 == 0 ? ")" : ")^T");
  }

 private:
  struct Spec {
    int kind;
    int64_t n;
    int64_t k;
  };
  std::vector<Spec> specs_;
};

bool SameMatrix(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(double) * static_cast<size_t>(a.size())) == 0;
}

// A one-attribute workload whose single product is `factor`.
UnionWorkload SingleFactorWorkload(const Matrix& factor) {
  UnionWorkload w(Domain({factor.cols()}));
  ProductWorkload p;
  p.factors = {factor};
  w.AddProduct(p);
  return w;
}

// Hashes every block of the family and fails on two blocks that share a key
// but not their entries. Blocks that are equal as matrices (identity(n) and
// width(n, k=1), every n = 1 block, ...) must share theirs. The low and the
// high 32 bits must each tell the blocks apart too: same-shape blocks differ
// only in where their 1.0 entries sit, and a hash that never carries those
// exponent bits down leaves the low half of their keys equal.
template <typename KeyFn>
void ExpectKeysSeparateDistinctBlocks(KeyFn key_of) {
  const BlockFamily family;
  const char* const kPart[] = {"key", "low half", "high half"};
  std::unordered_map<uint64_t, size_t> first_with[3];
  for (size_t i = 0; i < family.size(); ++i) {
    const Matrix m = family.Build(i);
    const uint64_t key = key_of(m);
    const uint64_t part[] = {key, key & 0xffffffffULL, key >> 32};
    for (int p = 0; p < 3; ++p) {
      auto inserted = first_with[p].emplace(part[p], i);
      if (inserted.second) continue;
      const size_t j = inserted.first->second;
      EXPECT_TRUE(SameMatrix(m, family.Build(j)))
          << family.Name(i) << " and " << family.Name(j) << " share a "
          << kPart[p];
    }
  }
  // Guards the generator: most of the family is pairwise distinct.
  EXPECT_GT(first_with[0].size(), family.size() * 9 / 10);
}

// Every single-bit change of every entry of `base` must change the key,
// except turning a 0.0 into -0.0, which the hash folds on purpose. A fully
// mixed key flips about half of its 64 bits; one flipping fewer than 8 means
// the change never reached most of the key (e.g. a sign bit that only a
// multiply, which carries upward, ever saw).
template <typename KeyFn>
void ExpectEveryBitFlipChangesKey(const Matrix& base, KeyFn key_of) {
  const uint64_t key = key_of(base);
  Matrix m = base;
  for (int64_t e = 0; e < m.size(); ++e) {
    for (int bit = 0; bit < 64; ++bit) {
      uint64_t bits;
      std::memcpy(&bits, &base.data()[e], sizeof(bits));
      bits ^= uint64_t{1} << bit;
      std::memcpy(&m.data()[e], &bits, sizeof(bits));
      const uint64_t flipped = key_of(m) ^ key;
      if (base.data()[e] == 0.0 && m.data()[e] == 0.0) {
        EXPECT_EQ(flipped, 0u) << "entry " << e << ": -0.0 split";
      } else {
        EXPECT_GE(std::bitset<64>(flipped).count(), 8u)
            << "entry " << e << ", bit " << bit;
      }
      m.data()[e] = base.data()[e];
    }
  }
}

uint64_t FactorKeyOf(const Matrix& m) { return GramCache::FactorKey(m); }

uint64_t WorkloadKeyOf(const Matrix& m) {
  return FingerprintWorkload(SingleFactorWorkload(m)).value;
}

TEST(GramCacheKeys, DistinctBuildingBlocksGetDistinctKeys) {
  ExpectKeysSeparateDistinctBlocks(FactorKeyOf);
}

TEST(GramCacheKeys, BitFlipsChangeTheKeyButNegativeZeroDoesNot) {
  ExpectEveryBitFlipChangesKey(WidthRangeBlock(7, 3), FactorKeyOf);
}

TEST(Fingerprint, DistinctBuildingBlocksGetDistinctFingerprints) {
  ExpectKeysSeparateDistinctBlocks(WorkloadKeyOf);
}

TEST(Fingerprint, BitFlipsChangeTheFingerprintButNegativeZeroDoesNot) {
  ExpectEveryBitFlipChangesKey(WidthRangeBlock(7, 3), WorkloadKeyOf);
}

}  // namespace
}  // namespace hdmm
