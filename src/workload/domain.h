// Multi-dimensional discrete domains (Section 3.1): the schema over which
// data vectors and workloads are defined.
#ifndef HDMM_WORKLOAD_DOMAIN_H_
#define HDMM_WORKLOAD_DOMAIN_H_

#include <cstdint>
#include <string>
#include <vector>

namespace hdmm {

/// The cell count prod_i sizes[i] of a domain, computed without overflow.
/// Returns false when a size is below 1 or the product exceeds INT64_MAX;
/// readers of outside input check this before constructing a Domain.
bool CheckedCellCount(const std::vector<int64_t>& sizes, int64_t* cells);

/// A relational schema R(A_1 ... A_d) with finite attribute domains.
/// dom(R) = dom(A_1) x ... x dom(A_d); tuples are flattened row-major
/// (attribute 1 is the most significant coordinate), matching the Kronecker
/// ordering used throughout the library.
class Domain {
 public:
  Domain() = default;

  /// Unnamed attributes with the given sizes. Dies unless CheckedCellCount
  /// accepts them.
  explicit Domain(std::vector<int64_t> sizes);

  /// Named attributes.
  Domain(std::vector<std::string> names, std::vector<int64_t> sizes);

  /// Number of attributes d.
  int NumAttributes() const { return static_cast<int>(sizes_.size()); }

  /// Size of attribute i's domain.
  int64_t AttributeSize(int i) const { return sizes_[static_cast<size_t>(i)]; }

  /// Name of attribute i (may be empty).
  const std::string& AttributeName(int i) const {
    return names_[static_cast<size_t>(i)];
  }

  /// N = |dom(R)|, the full domain size (and data-vector length).
  int64_t TotalSize() const { return cells_; }

  const std::vector<int64_t>& sizes() const { return sizes_; }

  /// Row-major flattening of a coordinate tuple into [0, TotalSize).
  int64_t Flatten(const std::vector<int64_t>& coords) const;

  /// Inverse of Flatten.
  std::vector<int64_t> Unflatten(int64_t index) const;

  /// "n1 x n2 x ... x nd" rendering.
  std::string ToString() const;

 private:
  std::vector<std::string> names_;
  std::vector<int64_t> sizes_;
  int64_t cells_ = 1;
};

}  // namespace hdmm

#endif  // HDMM_WORKLOAD_DOMAIN_H_
