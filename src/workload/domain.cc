#include "workload/domain.h"

#include <limits>
#include <sstream>

#include "common/check.h"

namespace hdmm {

bool CheckedCellCount(const std::vector<int64_t>& sizes, int64_t* cells) {
  int64_t n = 1;
  for (int64_t s : sizes) {
    if (s < 1 || n > std::numeric_limits<int64_t>::max() / s) return false;
    n *= s;
  }
  *cells = n;
  return true;
}

Domain::Domain(std::vector<int64_t> sizes)
    : names_(sizes.size()), sizes_(std::move(sizes)) {
  HDMM_CHECK_MSG(CheckedCellCount(sizes_, &cells_),
                 "attribute sizes must be >= 1 with an int64 cell count");
}

Domain::Domain(std::vector<std::string> names, std::vector<int64_t> sizes)
    : names_(std::move(names)), sizes_(std::move(sizes)) {
  HDMM_CHECK(names_.size() == sizes_.size());
  HDMM_CHECK_MSG(CheckedCellCount(sizes_, &cells_),
                 "attribute sizes must be >= 1 with an int64 cell count");
}

int64_t Domain::Flatten(const std::vector<int64_t>& coords) const {
  HDMM_CHECK(coords.size() == sizes_.size());
  int64_t idx = 0;
  for (size_t i = 0; i < sizes_.size(); ++i) {
    HDMM_CHECK(coords[i] >= 0 && coords[i] < sizes_[i]);
    idx = idx * sizes_[i] + coords[i];
  }
  return idx;
}

std::vector<int64_t> Domain::Unflatten(int64_t index) const {
  HDMM_CHECK(index >= 0 && index < TotalSize());
  std::vector<int64_t> coords(sizes_.size());
  for (size_t i = sizes_.size(); i-- > 0;) {
    coords[i] = index % sizes_[i];
    index /= sizes_[i];
  }
  return coords;
}

std::string Domain::ToString() const {
  std::ostringstream os;
  for (size_t i = 0; i < sizes_.size(); ++i) {
    if (i > 0) os << " x ";
    os << sizes_[i];
  }
  return os.str();
}

}  // namespace hdmm
