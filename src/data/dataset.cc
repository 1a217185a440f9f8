#include "data/dataset.h"

namespace hdmm {

void Dataset::AddRecord(const std::vector<int64_t>& coords) {
  records_.push_back(domain_.Flatten(coords));
}

Vector Dataset::ToDataVector() const {
  Vector x(static_cast<size_t>(domain_.TotalSize()), 0.0);
  for (int64_t cell : records_) x[static_cast<size_t>(cell)] += 1.0;
  return x;
}

}  // namespace hdmm
