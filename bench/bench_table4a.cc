// Table 4a: 1D error ratios of Identity, Wavelet (Privelet), HB, GreedyH
// against HDMM on AllRange, Prefix, and Permuted Range workloads across
// domain sizes. Paper values at n = 128 (for comparison): AllRange row
// Identity 1.38, Wavelet 1.85, HB 1.38, GreedyH 1.16; Prefix row 1.80 /
// 1.78 / 1.80 / 1.20; PermutedRange row 1.38 / 4.67 / 1.38 / 1.35.
#include <cmath>

#include "baselines/baselines.h"
#include "baselines/greedy_h.h"
#include "baselines/hb.h"
#include "baselines/privelet.h"
#include "bench_util.h"
#include "core/opt0.h"
#include "linalg/pinv.h"
#include "workload/building_blocks.h"

namespace {

using namespace hdmm;

double StrategyError(const Matrix& strategy, const Matrix& gram) {
  double sens = strategy.MaxAbsColSum();
  return sens * sens * TracePinvGram(Gram(strategy), gram);
}

void RunConfig(const char* workload_name, const Matrix& gram, int64_t n) {
  // HDMM: OPT_0 with the Section 7.1 p-convention and a few restarts.
  Rng rng(0);
  Opt0Options opts;
  opts.p = static_cast<int>(std::max<int64_t>(1, n / 16));
  opts.restarts = 3;
  Opt0Result hdmm_res = Opt0(gram, opts, &rng);
  double hdmm_err = hdmm_res.error;

  double id_err = gram.Trace();
  double wav_err = StrategyError(HaarBlock(n), gram);
  double hb_err = StrategyError(HierarchicalBlock(n, SelectHbBranching(n)), gram);
  GreedyHResult gh = GreedyH(gram);

  auto ratio = [&](double e) { return std::sqrt(e / hdmm_err); };
  hdmm_bench::PrintRow(
      std::string(workload_name) + " n=" + std::to_string(n),
      {ratio(id_err), ratio(wav_err), ratio(hb_err),
       ratio(gh.squared_error), 1.0});
}

}  // namespace

int main(int argc, char** argv) {
  bool full = hdmm_bench::FullScale(argc, argv);
  hdmm_bench::RatioBanner("Table 4a: 1D workloads, error ratios vs HDMM",
                          "Table 4(a) of McKenna et al. 2018");
  hdmm_bench::PrintHeader("workload",
                          {"Identity", "Wavelet", "HB", "GreedyH", "HDMM"});

  std::vector<int64_t> sizes = {128, 256};
  if (full) sizes.push_back(1024);

  for (int64_t n : sizes) RunConfig("AllRange", hdmm::AllRangeGram(n), n);
  for (int64_t n : sizes) RunConfig("Prefix", hdmm::PrefixGram(n), n);
  for (int64_t n : sizes) {
    hdmm::Rng rng(42);
    std::vector<int> perm = rng.Permutation(static_cast<int>(n));
    RunConfig("PermutedRange", hdmm::PermuteGram(hdmm::AllRangeGram(n), perm),
              n);
  }
  std::printf(
      "\nPaper (n=128): AllRange 1.38/1.85/1.38/1.16/1.00, Prefix "
      "1.80/1.78/1.80/1.20/1.00, Permuted 1.38/4.67/1.38/1.35/1.00\n");
  return 0;
}
