// Table 4b: 2D error ratios of Identity, Wavelet, HB (Kronecker extensions)
// and QuadTree against HDMM on P x P, R x R, [R x T; T x R], and
// [P x I; I x P] workloads. Paper values at 64 x 64: PxP 2.35/3.40/1.41/1.72,
// RxR 1.54/3.59/1.45/1.72, [RT;TR] 5.00/7.00/3.51/4.13,
// [PI;IP] 1.11/5.26/2.08/3.32.
#include <cmath>

#include "baselines/baselines.h"
#include "baselines/hb.h"
#include "baselines/privelet.h"
#include "baselines/quadtree.h"
#include "bench_util.h"
#include "core/hdmm.h"
#include "workload/building_blocks.h"

namespace {

using namespace hdmm;

UnionWorkload MakeUnion2D(const Domain& d, const Matrix& f1a,
                          const Matrix& f1b, const Matrix& f2a,
                          const Matrix& f2b) {
  UnionWorkload w(d);
  ProductWorkload p1;
  p1.factors = {f1a, f1b};
  w.AddProduct(std::move(p1));
  ProductWorkload p2;
  p2.factors = {f2a, f2b};
  w.AddProduct(std::move(p2));
  return w;
}

void RunConfig(const char* name, const UnionWorkload& w, int64_t n) {
  HdmmOptions opts;
  opts.restarts = 2;
  opts.use_marginals = false;
  opts.kron.lbfgs.max_iterations = 200;
  opts.union_opts.kron.lbfgs.max_iterations = 200;
  HdmmResult hdmm_res = OptimizeStrategy(w, opts);
  double hdmm_err = hdmm_res.squared_error;

  auto id = MakeIdentityBaseline(w.domain());
  auto wav = MakePriveletStrategy(w.domain());
  auto hb = MakeHbStrategy(w.domain());
  auto qt = MakeQuadtreeStrategy(n, n);

  auto ratio = [&](double e) { return std::sqrt(e / hdmm_err); };
  hdmm_bench::PrintRow(
      std::string(name) + " " + std::to_string(n) + "x" + std::to_string(n),
      {ratio(id->SquaredError(w)), ratio(wav->SquaredError(w)),
       ratio(hb->SquaredError(w)), ratio(qt->SquaredError(w)), 1.0});
}

}  // namespace

int main(int argc, char** argv) {
  bool full = hdmm_bench::FullScale(argc, argv);
  hdmm_bench::RatioBanner("Table 4b: 2D workloads, error ratios vs HDMM",
                          "Table 4(b) of McKenna et al. 2018");
  hdmm_bench::PrintHeader("workload",
                          {"Identity", "Wavelet", "HB", "QuadTree", "HDMM"});

  std::vector<int64_t> sizes = {32, 64};
  if (full) sizes.push_back(128);

  for (int64_t n : sizes) {
    Domain d({n, n});
    Matrix p = PrefixBlock(n), r = AllRangeBlock(n), i = IdentityBlock(n),
           t = TotalBlock(n);
    RunConfig("PxP", MakeProductWorkload(d, {p, p}), n);
    RunConfig("RxR", MakeProductWorkload(d, {r, r}), n);
    RunConfig("[RT;TR]", MakeUnion2D(d, r, t, t, r), n);
    RunConfig("[PI;IP]", MakeUnion2D(d, p, i, i, p), n);
  }
  std::printf(
      "\nPaper (64x64): PxP 2.35/3.40/1.41/1.72/1.00, RxR "
      "1.54/3.59/1.45/1.72/1.00,\n  [RT;TR] 5.00/7.00/3.51/4.13/1.00, "
      "[PI;IP] 1.11/5.26/2.08/3.32/1.00\n");
  return 0;
}
