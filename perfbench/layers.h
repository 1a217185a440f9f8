// Layer attribution for the traced run. A LayerSpan brackets one call into a
// layer's public function from the benchmark's own code: it emits a Chrome
// trace span through common/trace.h and accumulates, per span name, the call
// count, total time and self time (total minus the time covered by nested
// spans). Spans nest on the benchmark's single client thread; library work
// fanned out onto the pool is attributed to the span that waits for it.
//
// Disabled (the default, and the whole untraced run) a span is one branch.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/trace.h"

namespace perfbench {

struct SpanTotals {
  int64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

class LayerSpan {
 public:
  explicit LayerSpan(const char* name);
  ~LayerSpan();
  LayerSpan(const LayerSpan&) = delete;
  LayerSpan& operator=(const LayerSpan&) = delete;

  /// Turns span recording on or off (client thread only).
  static void SetEnabled(bool enabled);
  static bool Enabled();
  /// Accumulated totals by span name.
  static const std::map<std::string, SpanTotals>& Totals();

 private:
  const char* name_ = nullptr;  // Null when disabled.
  int64_t start_ns_ = 0;
  double child_s_ = 0.0;
  LayerSpan* parent_ = nullptr;
  std::optional<hdmm::TraceSpan> trace_;
};

/// Samples of one end-to-end quantity.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t size() const { return values_.size(); }
  double Sum() const;
  /// Linear-interpolated quantile (q in [0, 1]); 0 when empty.
  double Quantile(double q) const;
  /// Sum of the first `n` samples.
  double PrefixSum(size_t n) const;

 private:
  std::vector<double> values_;
};

/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
