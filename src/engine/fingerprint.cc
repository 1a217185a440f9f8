#include "engine/fingerprint.h"

#include "common/hash.h"

namespace hdmm {
namespace {

// Hashing is the shared WordHasher (common/hash.h — the same hashing the
// GramCache keys factors with). The cache tolerates collisions (a collision
// only ever causes a wrong strategy to be *validated* against the workload
// by callers that check support, or a stale disk file to be overwritten), so
// a cryptographic hash is not needed.

// A product's weight and its factors' content keys. A key already covers
// the factor's shape and bit-exact entries (-0.0 canonicalized), and the
// workload hashes each factor once, so a plan's fingerprint, its OPT_x Gram
// pools and its candidates' errors share one read of every entry.
uint64_t HashProduct(const UnionWorkload& w, int j) {
  const ProductWorkload& p = w.products()[static_cast<size_t>(j)];
  WordHasher h;
  h.U64(0x70726f64);  // "prod" domain separator.
  h.F64(p.weight);
  h.I64(static_cast<int64_t>(p.factors.size()));
  for (int i = 0; i < static_cast<int>(p.factors.size()); ++i) {
    h.U64(w.FactorKey(j, i));
  }
  return h.Digest();
}

void HashLbfgs(WordHasher* h, const LbfgsbOptions& o) {
  h->I32(o.max_iterations);
  h->F64(o.pg_tolerance);
}

void HashKronOptions(WordHasher* h, const OptKronOptions& o) {
  h->I64(static_cast<int64_t>(o.p.size()));
  for (int p : o.p) h->I32(p);
  h->I32(o.max_cycles);
  HashLbfgs(h, o.lbfgs);
}

}  // namespace

std::string Fingerprint::Hex() const {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 0; i < 16; ++i) {
    out[static_cast<size_t>(15 - i)] = kDigits[(value >> (4 * i)) & 0xF];
  }
  return out;
}

Fingerprint FingerprintWorkload(const UnionWorkload& w) {
  WordHasher h;
  // Format tag "hdmmw3": bumped with the hash itself (hdmmw2 hashed factor
  // entries directly, hdmmw3 their content keys), so a disk cache written
  // under an older tag is re-planned once instead of misread.
  h.U64(0x68646d6d77330000ULL);
  // Domain shape only: attribute names are labels, not math — renaming an
  // attribute must not force a re-optimization.
  h.I32(w.domain().NumAttributes());
  for (int64_t n : w.domain().sizes()) h.I64(n);
  // Products combine with modular addition, which is commutative: the union
  // W_1 + W_2 and W_2 + W_1 are the same stacked workload up to a row
  // permutation, and expected error is row-permutation invariant.
  uint64_t products = 0;
  for (int j = 0; j < w.NumProducts(); ++j) products += HashProduct(w, j);
  h.U64(products);
  h.I32(w.NumProducts());
  return Fingerprint{h.Digest()};
}

Fingerprint FingerprintPlan(const UnionWorkload& w,
                            const HdmmOptions& options) {
  WordHasher h;
  // Format tag "hdmmp5": bumped when the hashed option set changes or when
  // candidates are scored differently (hdmmp2 also hashed the operators' own
  // restart counts, hdmmp3 four L-BFGS-B constants and OPT_x's cycle
  // tolerance; hdmmp5 scores OPT_M exactly in the marginals eigenbasis), so
  // a disk cache written under an older tag is re-planned once instead of
  // misread or served by a plan chosen on the old scores.
  h.U64(0x68646d6d70350000ULL);
  h.U64(FingerprintWorkload(w).value);
  h.I32(options.restarts);
  h.Bool(options.use_kron);
  h.Bool(options.use_union);
  h.Bool(options.use_marginals);
  h.I32(options.max_marginals_dims);
  h.U64(options.seed);
  HashKronOptions(&h, options.kron);
  HashKronOptions(&h, options.union_opts.kron);
  h.I32(options.union_opts.max_groups);
  h.Bool(options.union_opts.optimize_budget_split);
  HashLbfgs(&h, options.marginals.lbfgs);
  h.F64(options.marginals.min_full_weight);
  h.Bool(options.marginals.workload_aware_init);
  return Fingerprint{h.Digest()};
}

}  // namespace hdmm
