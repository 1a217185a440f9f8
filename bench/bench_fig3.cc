// Figure 3 (Appendix C.2): distribution of locally optimal strategies across
// random restarts, for OPT_0 on range queries and OPT_M on up-to-4-way
// marginals. The paper: range-query local minima are tightly concentrated
// (no restarts needed); marginals vary more, with ~25% of restarts within
// 1.05x of the best.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "core/opt0.h"
#include "core/opt_marginals.h"
#include "workload/building_blocks.h"
#include "workload/marginals.h"

namespace {

void PrintHistogram(const char* name, std::vector<double> errors) {
  double best = *std::min_element(errors.begin(), errors.end());
  std::vector<double> rel;
  for (double e : errors) rel.push_back(std::sqrt(e / best));
  std::sort(rel.begin(), rel.end());
  std::printf("%s: %zu restarts\n", name, rel.size());
  const double edges[] = {1.0, 1.01, 1.05, 1.10, 1.25, 1e9};
  const char* labels[] = {"[1.00,1.01)", "[1.01,1.05)", "[1.05,1.10)",
                          "[1.10,1.25)", ">=1.25"};
  for (int b = 0; b < 5; ++b) {
    int count = 0;
    for (double r : rel)
      if (r >= edges[b] && r < edges[b + 1]) ++count;
    std::printf("  %-14s %4d  ", labels[b], count);
    for (int i = 0; i < count; ++i) std::printf("#");
    std::printf("\n");
  }
  std::printf("  min %.4f  median %.4f  max %.4f\n\n", rel.front(),
              rel[rel.size() / 2], rel.back());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hdmm;
  bool full = hdmm_bench::FullScale(argc, argv);
  hdmm_bench::Banner(
      "Figure 3: distribution of local minima over random restarts",
      "Figure 3 of McKenna et al. 2018");

  // OPT_0 on range queries.
  {
    const int64_t n = full ? 256 : 64;
    const int restarts = full ? 50 : 20;
    Matrix gram = AllRangeGram(n);
    std::vector<double> errors;
    for (int r = 0; r < restarts; ++r) {
      Rng rng(static_cast<uint64_t>(r));
      Opt0Options opts;
      opts.p = static_cast<int>(std::max<int64_t>(2, n / 16));
      opts.restarts = 1;
      errors.push_back(Opt0(gram, opts, &rng).error);
    }
    PrintHistogram("OPT_0, AllRange", std::move(errors));
  }

  // OPT_M on up-to-4-way marginals, d = 8, n = 10.
  {
    const int restarts = full ? 100 : 25;
    Domain d(std::vector<int64_t>(8, 10));
    UnionWorkload w = UpToKWayMarginals(d, 4);
    std::vector<double> errors;
    for (int r = 0; r < restarts; ++r) {
      Rng rng(static_cast<uint64_t>(1000 + r));
      OptMarginalsOptions opts;
      opts.workload_aware_init = false;  // Pure random restarts (Figure 3).
      errors.push_back(OptMarginals(w, opts, &rng).error);
    }
    PrintHistogram("OPT_M, up-to-4-way marginals", std::move(errors));
  }
  std::printf(
      "Shape check (paper): range-query minima concentrated near 1.00; "
      "marginals more spread with ~25%% within 1.05.\n");
  return 0;
}
