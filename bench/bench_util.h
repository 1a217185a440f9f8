// Shared helpers for the experiment binaries. Each bench_table* and
// bench_fig* binary regenerates the table or figure of the paper it is named
// after and prints the paper's rows/series; pass --full to run at full paper
// scale.
#ifndef HDMM_BENCH_BENCH_UTIL_H_
#define HDMM_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "linalg/gemm.h"

namespace hdmm_bench {

/// True if --full was passed (paper-scale domains; slower).
inline bool FullScale(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) return true;
  }
  return false;
}

/// Best-of-N wall seconds of `fn`: at least `min_reps` calls, more until
/// `min_total_s` has elapsed (to get past timer noise on fast kernels), at
/// most 20.
inline double TimeBest(const std::function<void()>& fn, int min_reps = 3,
                       double min_total_s = 0.3) {
  double best = 1e300;
  double total = 0.0;
  for (int rep = 0; rep < 20 && (rep < min_reps || total < min_total_s);
       ++rep) {
    hdmm::WallTimer timer;
    fn();
    const double t = timer.Seconds();
    best = std::min(best, t);
    total += t;
  }
  return best;
}

/// Prints a header banner for one experiment.
inline void Banner(const std::string& title, const std::string& paper_ref) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("(reproduces %s; error ratios are sqrt(Err_other/Err_HDMM), "
              "epsilon-independent)\n\n",
              paper_ref.c_str());
}

/// Prints one row of a ratio table: label followed by values ("-" for NaN,
/// "*" for infeasible/skipped).
inline void PrintRow(const std::string& label,
                     const std::vector<double>& values, int width = 10) {
  std::printf("%-28s", label.c_str());
  for (double v : values) {
    if (v != v) {  // NaN = not applicable.
      std::printf("%*s", width, "-");
    } else if (v < 0) {  // Negative = infeasible marker.
      std::printf("%*s", width, "*");
    } else {
      std::printf("%*.2f", width, v);
    }
  }
  std::printf("\n");
}

inline void PrintHeader(const std::string& label,
                        const std::vector<std::string>& columns,
                        int width = 10) {
  std::printf("%-28s", label.c_str());
  for (const auto& c : columns) std::printf("%*s", width, c.c_str());
  std::printf("\n");
}

/// Opens a BENCH_*.json object and writes the shared header fields every
/// bench records: the default pool width, the host's core count (so
/// validators can tell a 1-core box from a real multi-core run), the
/// dispatched GEMM ISA tier, and its cache-tuned blocking constants. The
/// caller finishes the object (results arrays + closing brace).
inline void WriteJsonHeader(std::FILE* f, const std::string& bench) {
  const hdmm::GemmBlocking bl = hdmm::ActiveGemmBlocking();
  const unsigned hw = std::thread::hardware_concurrency();
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n", bench.c_str());
  std::fprintf(f, "  \"pool_threads\": %d,\n",
               hdmm::ThreadPool::Global().num_threads());
  std::fprintf(f, "  \"host_cores\": %u,\n", hw == 0 ? 1u : hw);
  std::fprintf(f, "  \"isa\": \"%s\",\n", hdmm::GemmIsaName());
  std::fprintf(f,
               "  \"blocking\": {\"mr\": %d, \"nr\": %d, \"mc\": %lld, "
               "\"kc\": %lld, \"nc\": %lld},\n",
               bl.mr, bl.nr, static_cast<long long>(bl.mc),
               static_cast<long long>(bl.kc), static_cast<long long>(bl.nc));
}

/// Writes a `"metrics": {...}` member holding the live metrics-registry
/// snapshot (hdmm::Metrics::WriteJson schema — the same document
/// `hdmm_cli --stats-json` emits; see docs/observability.md). Call between
/// other members; emits the trailing comma when `trailing_comma`.
inline void WriteMetricsSection(std::FILE* f, bool trailing_comma = true) {
  std::fprintf(f, "  \"metrics\": ");
  hdmm::Metrics::WriteJson(f, 2);
  std::fprintf(f, trailing_comma ? ",\n" : "\n");
}

}  // namespace hdmm_bench

#endif  // HDMM_BENCH_BENCH_UTIL_H_
