#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <numeric>

namespace perfbench {

namespace {

bool g_enabled = false;
LayerSpan* g_top = nullptr;

std::map<std::string, SpanTotals>& MutableTotals() {
  static std::map<std::string, SpanTotals> totals;
  return totals;
}

}  // namespace

LayerSpan::LayerSpan(const char* name) {
  if (!g_enabled) return;
  name_ = name;
  parent_ = g_top;
  g_top = this;
  trace_.emplace(name);
  start_ns_ = hdmm::Trace::NowNs();
}

LayerSpan::~LayerSpan() {
  if (name_ == nullptr) return;
  const double total = 1e-9 * static_cast<double>(hdmm::Trace::NowNs() - start_ns_);
  SpanTotals& t = MutableTotals()[name_];
  ++t.count;
  t.total_s += total;
  t.self_s += total - child_s_;
  if (parent_ != nullptr) parent_->child_s_ += total;
  g_top = parent_;
}

void LayerSpan::SetEnabled(bool enabled) { g_enabled = enabled; }
bool LayerSpan::Enabled() { return g_enabled; }
const std::map<std::string, SpanTotals>& LayerSpan::Totals() {
  return MutableTotals();
}

double Samples::Sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Samples::PrefixSum(size_t n) const {
  n = std::min(n, values_.size());
  return std::accumulate(values_.begin(), values_.begin() + static_cast<long>(n), 0.0);
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  long kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      std::sscanf(line + 6, "%ld", &kb);
      break;
    }
  }
  std::fclose(f);
  return static_cast<double>(kb) / 1024.0;
}

}  // namespace perfbench
