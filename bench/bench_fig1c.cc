// Figure 1c: strategy-selection runtime vs total domain size N = n^8 on the
// 3-way marginals workload (8 dimensions). Both DataCube and HDMM (OPT_M)
// scale gracefully because neither touches the full domain: OPT_M's cost is
// independent of n (O(4^d) in the paper's algebra, O(d 2^d) here).
#include <cstdio>

#include "baselines/datacube.h"
#include "bench_util.h"
#include "common/timer.h"
#include "core/opt_marginals.h"
#include "workload/marginals.h"

int main(int argc, char** argv) {
  using namespace hdmm;
  bool full = hdmm_bench::FullScale(argc, argv);
  hdmm_bench::Banner("Figure 1c: runtime vs N = n^8, 3-way marginals (8D)",
                     "Figure 1(c) of McKenna et al. 2018");
  std::printf("%-14s %-6s %14s %14s\n", "N", "n", "DataCube(s)", "HDMM(s)");

  std::vector<int64_t> ns = {2, 3, 4, 6, 8, 10};
  if (full) ns.push_back(12);

  const int d = 8;
  for (int64_t n : ns) {
    Domain domain(std::vector<int64_t>(d, n));
    UnionWorkload w = KWayMarginals(domain, 3);

    std::vector<uint32_t> workload_masks;
    for (uint32_t m = 0; m < (1u << d); ++m)
      if (PopCount(m) == 3) workload_masks.push_back(m);

    WallTimer t_dc;
    DataCubeSelect(domain, workload_masks);
    double dc_s = t_dc.Seconds();

    WallTimer t_hdmm;
    Rng rng(1);
    OptMarginalsOptions opts;
    OptMarginals(w, opts, &rng);
    double hdmm_s = t_hdmm.Seconds();

    double big_n = 1.0;
    for (int i = 0; i < d; ++i) big_n *= static_cast<double>(n);
    std::printf("%-14.3g %-6lld %14.3f %14.3f\n", big_n,
                static_cast<long long>(n), dc_s, hdmm_s);
  }
  std::printf(
      "\nShape check (paper): both scale to N ~ 10^8-10^9; DataCube is "
      "faster on small domains (HDMM pays its up-front optimization),\n  "
      "and neither depends strongly on n because the domain is never "
      "materialized.\n");
  return 0;
}
