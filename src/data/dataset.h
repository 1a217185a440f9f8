// Datasets over multi-dimensional domains and their vector form x
// (Section 3.4). The data vector is always explicit; only queries are
// implicit.
#ifndef HDMM_DATA_DATASET_H_
#define HDMM_DATA_DATASET_H_

#include <vector>

#include "linalg/vector_ops.h"
#include "workload/domain.h"

namespace hdmm {

/// A multiset of tuples over a Domain, stored as flattened cell indices.
class Dataset {
 public:
  explicit Dataset(Domain domain) : domain_(std::move(domain)) {}

  const Domain& domain() const { return domain_; }
  int64_t NumRecords() const { return static_cast<int64_t>(records_.size()); }

  /// Adds one tuple by coordinates.
  void AddRecord(const std::vector<int64_t>& coords);

  /// The data vector x: entry t counts occurrences of tuple t (Section 3.4).
  Vector ToDataVector() const;

 private:
  Domain domain_;
  std::vector<int64_t> records_;
};

}  // namespace hdmm

#endif  // HDMM_DATA_DATASET_H_
