// Ablations on HDMM's design choices:
//  1. Theorem 4: the O(pN^2) Woodbury objective vs the naive O(N^3) path
//     (the paper reports a 240x speedup at N = 8192).
//  2. The Section 7.1 p-convention (p = n/16) vs p = 1 on range workloads.
//  3. Restart-scale cycling vs fixed-scale initialization (the identity
//     basin escape described in core/opt0.cc).
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "common/timer.h"
#include "core/opt0.h"
#include "core/opt_union.h"
#include "workload/building_blocks.h"

int main(int argc, char** argv) {
  using namespace hdmm;
  bool full = hdmm_bench::FullScale(argc, argv);
  hdmm_bench::Banner("Ablations: Woodbury fast path, p-convention, init scale",
                     "Theorem 4 + Section 7.1 design choices");

  // --- 1. Objective evaluation cost: fast vs reference.
  std::printf("objective evaluation time (p = n/16):\n");
  std::printf("%-8s %14s %14s %10s\n", "n", "Woodbury(s)", "naive(s)",
              "speedup");
  std::vector<int64_t> sizes = {128, 256, 512};
  if (full) sizes.push_back(1024);
  for (int64_t n : sizes) {
    int p = static_cast<int>(std::max<int64_t>(1, n / 16));
    Matrix gram = AllRangeGram(n);
    Rng rng(1);
    Matrix theta = Matrix::RandomUniform(p, n, &rng, 0.1, 1.0);
    PIdentityObjective obj(gram, p);
    Vector flat(theta.data(), theta.data() + theta.size());

    WallTimer t_fast;
    Vector grad;
    double fast_val = obj.Eval(flat, &grad);
    double fast_s = t_fast.Seconds();

    WallTimer t_ref;
    double ref_val = PIdentityObjective::EvalReference(theta, gram);
    double ref_s = t_ref.Seconds();

    std::printf("%-8lld %14.4f %14.4f %9.1fx   (values agree to %.2g)\n",
                static_cast<long long>(n), fast_s, ref_s,
                ref_s / std::max(1e-9, fast_s),
                std::fabs(fast_val - ref_val) / ref_val);
  }

  // --- 2. p-convention: p = 1 vs p = n/16 on AllRange.
  std::printf("\np-convention on AllRange (squared error):\n");
  std::printf("%-8s %14s %14s %10s\n", "n", "p=1", "p=n/16", "gain");
  for (int64_t n : {128, 256}) {
    Matrix gram = AllRangeGram(n);
    Rng rng1(2), rng2(2);
    Opt0Options o1;
    o1.p = 1;
    o1.restarts = 3;
    Opt0Options o2 = o1;
    o2.p = static_cast<int>(n / 16);
    double e1 = Opt0(gram, o1, &rng1).error;
    double e2 = Opt0(gram, o2, &rng2).error;
    std::printf("%-8lld %14.1f %14.1f %9.2fx\n", static_cast<long long>(n),
                e1, e2, e1 / e2);
  }

  // --- 3. Initialization-scale cycling: fixed U[0,1] restarts vs cycled
  // scales, on the workload where the identity basin bites (AllRange n=64).
  std::printf("\ninit-scale cycling on AllRange n=64 (squared error, 3 "
              "restarts):\n");
  {
    const int64_t n = 64;
    Matrix gram = AllRangeGram(n);
    double id_err = gram.Trace();
    // Fixed-scale: emulate by single restarts at scale 1 across seeds.
    double fixed_best = 1e300;
    for (uint64_t seed = 0; seed < 3; ++seed) {
      Rng rng(seed);
      Matrix theta0 = Matrix::RandomUniform(4, n, &rng, 0.0, 1.0);
      // Scored like Opt0's restarts (the dense reference evaluation), so
      // the comparison with `cycled` below is like for like.
      const Matrix theta = Opt0WarmStart(gram, theta0, LbfgsbOptions()).theta;
      fixed_best = std::min(fixed_best,
                            PIdentityObjective::EvalReference(theta, gram));
    }
    Rng rng(0);
    Opt0Options opts;
    opts.p = 4;
    opts.restarts = 3;
    double cycled = Opt0(gram, opts, &rng).error;
    std::printf("  identity=%0.f  fixed-scale=%.0f  cycled=%.0f\n", id_err,
                fixed_best, cycled);
  }

  // --- 4. OPT_+ budget split: even lambda_g = 1/l vs the optimized
  // lambda_g ~ e_g^{1/3} (the Definition 11 extension, core/opt_union.h) on the
  // asymmetric union [R x T; T x R'] where group errors differ.
  std::printf("\nOPT_+ budget split on [R(32) x T; T x R(8)] (squared "
              "error):\n");
  {
    Domain d({32, 8});
    UnionWorkload w(d);
    ProductWorkload p1;
    p1.factors = {AllRangeBlock(32), TotalBlock(8)};
    w.AddProduct(p1);
    ProductWorkload p2;
    p2.factors = {TotalBlock(32), AllRangeBlock(8)};
    w.AddProduct(p2);

    OptUnionOptions even;
    even.optimize_budget_split = false;
    OptUnionOptions optimized;
    optimized.optimize_budget_split = true;
    Rng rng_even(3), rng_opt(3);
    const double e_even = OptUnion(w, even, &rng_even).error;
    const double e_opt = OptUnion(w, optimized, &rng_opt).error;
    std::printf("  even split=%.1f  optimized split=%.1f  gain=%.2fx\n",
                e_even, e_opt, e_even / e_opt);
    std::printf("  (closed form: optimized total (sum e_g^{1/3})^3 <= l^2 "
                "sum e_g = even total)\n");
  }
  return 0;
}
