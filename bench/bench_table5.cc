// Table 5: up-to-K-way marginals on an 8-dimensional domain with attribute
// size 10 (N = 10^8). Ratios of Identity, LM, and DataCube vs HDMM's OPT_M.
// Paper values: K=1: 435.19/1.18/1.12, K=2: 43.89/1.43/1.03,
// K=3: 8.37/1.96/1.15, K=4: 2.73/3.03/1.21, K=5: 1.33/4.95/1.36,
// K=6: 1.00/9.21/1.67, K=7: 1.07/18.21/2.99, K=8: 1.06/24.94/5.76.
#include <algorithm>
#include <cmath>

#include "baselines/datacube.h"
#include "bench_util.h"
#include "core/opt_marginals.h"
#include "workload/marginals.h"

namespace {

using namespace hdmm;

}  // namespace

int main(int argc, char** argv) {
  bool full = hdmm_bench::FullScale(argc, argv);
  hdmm_bench::RatioBanner(
      "Table 5: up-to-K-way marginals, d=8, n=10 (N = 10^8)",
      "Table 5 of McKenna et al. 2018");
  hdmm_bench::PrintHeader("K", {"Identity", "LM", "DataCube", "HDMM"});

  const int d = 8;
  Domain domain(std::vector<int64_t>(d, 10));
  MarginalsAlgebra algebra(domain.sizes());
  const uint32_t masks = algebra.num_masks();

  for (int k = 1; k <= d; ++k) {
    UnionWorkload w = UpToKWayMarginals(domain, k);
    const Vector gamma = algebra.EigenspaceTraces(w);

    // HDMM = OPT_M, best of S runs: the first from the workload-aware
    // start, the rest from random starts on their own streams.
    Rng rng(static_cast<uint64_t>(k));
    const int restarts = full ? 5 : 3;
    OptMarginalsOptions opts;
    opts.lbfgs.max_iterations = full ? 400 : 200;
    double hdmm_err = OptMarginals(w, opts, &rng).error;
    opts.workload_aware_init = false;
    for (int r = 1; r < restarts; ++r) {
      Rng stream = rng.Fork(static_cast<uint64_t>(r));
      hdmm_err = std::min(hdmm_err, OptMarginals(w, opts, &stream).error);
    }

    // Identity: measure the full contingency table (theta = e_full).
    Vector e_full(masks, 0.0);
    e_full[masks - 1] = 1.0;
    double id_err = algebra.TraceObjective(e_full, gamma);

    // LM: each workload marginal is itself measured; sensitivity is the
    // number of marginals (every cell counted once per marginal), and every
    // query gets full-sensitivity noise.
    double num_marginals = static_cast<double>(w.NumProducts());
    double lm_err =
        num_marginals * num_marginals * static_cast<double>(w.TotalQueries());

    // DataCube greedy selection.
    std::vector<uint32_t> workload_masks;
    for (uint32_t m = 0; m < masks; ++m)
      if (PopCount(m) <= k) workload_masks.push_back(m);
    DataCubeResult dc = DataCubeSelect(domain, workload_masks);

    auto ratio = [&](double e) { return std::sqrt(e / hdmm_err); };
    hdmm_bench::PrintRow("K=" + std::to_string(k),
                         {ratio(id_err), ratio(lm_err),
                          ratio(dc.squared_error), 1.0});
  }
  std::printf(
      "\nPaper: K=1 435/1.18/1.12, K=2 43.9/1.43/1.03, K=3 8.37/1.96/1.15, "
      "K=4 2.73/3.03/1.21,\n  K=5 1.33/4.95/1.36, K=6 1.00/9.21/1.67, "
      "K=7 1.07/18.2/2.99, K=8 1.06/24.9/5.76 (all /1.00 HDMM)\n");
  return 0;
}
