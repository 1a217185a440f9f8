// Canonical fingerprints for the serving layer's compute-once/serve-many
// split (Section 3.6: "the optimized strategy A can be computed once and used
// for multiple invocations of measure and reconstruct"). A fingerprint is a
// 64-bit hash of everything strategy selection depends on — the domain shape,
// the workload's products, and the optimizer options — and nothing it does
// not (attribute names, product order, the dataset). Two plan requests with
// equal fingerprints are guaranteed to produce the same strategy, so the
// fingerprint is the StrategyCache key.
#ifndef HDMM_ENGINE_FINGERPRINT_H_
#define HDMM_ENGINE_FINGERPRINT_H_

#include <cstdint>
#include <string>

#include "core/hdmm.h"
#include "workload/workload.h"

namespace hdmm {

/// A 64-bit cache key with a stable textual form.
struct Fingerprint {
  uint64_t value = 0;

  /// 16 lowercase hex digits, the on-disk naming form.
  std::string Hex() const;

  bool operator==(const Fingerprint& other) const {
    return value == other.value;
  }
  bool operator!=(const Fingerprint& other) const {
    return value != other.value;
  }
};

/// Hash of the workload alone: attribute sizes plus an order-insensitive
/// combination of the product terms (weight + each factor's content key,
/// UnionWorkload::FactorKey, which is bit-exact in the entries).
/// Reordering the products of a union never changes the fingerprint;
/// changing any weight, factor entry, or the domain always does.
Fingerprint FingerprintWorkload(const UnionWorkload& w);

/// Hash of a full plan request: the workload fingerprint combined with every
/// HdmmOptions field that can change which strategy OPT_HDMM returns
/// (restarts, seed, operator toggles, and the nested optimizer options).
Fingerprint FingerprintPlan(const UnionWorkload& w, const HdmmOptions& options);

}  // namespace hdmm

#endif  // HDMM_ENGINE_FINGERPRINT_H_
