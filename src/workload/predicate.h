// Logical predicates on single attributes (Definition 1) and their
// vectorization (Definition 4, restricted to one attribute as in Section 4.1).
#ifndef HDMM_WORKLOAD_PREDICATE_H_
#define HDMM_WORKLOAD_PREDICATE_H_

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"

namespace hdmm {

/// A boolean predicate over a single attribute's domain [0, n).
struct Predicate {
  enum class Kind {
    kTrue,     ///< Matches every value (the Total predicate).
    kEquals,   ///< t.A == value.
    kRange,    ///< lo <= t.A <= hi (inclusive).
    kInSet,    ///< t.A in values.
  };

  Kind kind = Kind::kTrue;
  int64_t value = 0;               ///< For kEquals.
  int64_t lo = 0, hi = 0;          ///< For kRange.
  std::vector<int64_t> values;     ///< For kInSet.

  static Predicate True();
  static Predicate Equals(int64_t v);
  static Predicate Range(int64_t lo, int64_t hi);
  static Predicate InSet(std::vector<int64_t> values);

  /// Evaluates the predicate on a domain value.
  bool Matches(int64_t v) const;
};

/// vec(phi) over a single attribute of size n: the 0/1 indicator row.
Vector VectorizePredicate(const Predicate& p, int64_t n);

/// A predicate set Phi = [phi_1 ... phi_p]_A: vectorizes to a p x n matrix
/// whose rows are the individual predicate vectors (Algorithm 1, line 3).
Matrix VectorizePredicateSet(const std::vector<Predicate>& set, int64_t n);

}  // namespace hdmm

#endif  // HDMM_WORKLOAD_PREDICATE_H_
