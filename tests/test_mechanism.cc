// End-to-end mechanism tests (Table 1b): unbiasedness, privacy-calibration,
// and accuracy of the full select-measure-reconstruct pipeline.
#include <gtest/gtest.h>

#include "core/error.h"
#include "core/hdmm.h"
#include "data/synthetic.h"
#include "linalg/lsmr.h"
#include "workload/building_blocks.h"

namespace hdmm {
namespace {

TEST(Mechanism, ReconstructionIsUnbiased) {
  // Average of many mechanism runs converges to the true answers.
  Domain d({8});
  UnionWorkload w = MakeProductWorkload(d, {PrefixBlock(8)});
  HdmmOptions opts;
  opts.restarts = 1;
  opts.kron.lbfgs.max_iterations = 60;
  HdmmResult res = OptimizeStrategy(w, opts);

  Rng rng(1);
  Vector x = UniformDataVector(d, 400, &rng);
  Vector truth = TrueAnswers(w, x);

  const int trials = 300;
  Vector mean(truth.size(), 0.0);
  for (int t = 0; t < trials; ++t) {
    Vector est = RunMechanism(w, *res.strategy, x, 1.0, &rng);
    Axpy(1.0 / trials, est, &mean);
  }
  double scale = Norm2(truth) + 1.0;
  for (size_t i = 0; i < truth.size(); ++i)
    EXPECT_NEAR(mean[i], truth[i], 0.05 * scale);
}

TEST(Mechanism, EmpiricalErrorMatchesClosedForm) {
  // Average total squared error over runs ~= (2/eps^2) * SquaredError.
  Domain d({8});
  UnionWorkload w = MakeProductWorkload(d, {PrefixBlock(8)});
  HdmmOptions opts;
  opts.restarts = 1;
  opts.kron.lbfgs.max_iterations = 60;
  HdmmResult res = OptimizeStrategy(w, opts);

  Rng rng(2);
  Vector x = UniformDataVector(d, 500, &rng);
  Vector truth = TrueAnswers(w, x);
  const double eps = 1.0;
  const int trials = 500;
  double total = 0.0;
  for (int t = 0; t < trials; ++t) {
    Vector est = RunMechanism(w, *res.strategy, x, eps, &rng);
    total += EmpiricalSquaredError(truth, est);
  }
  double empirical = total / trials;
  double predicted = res.strategy->TotalSquaredError(w, eps);
  EXPECT_NEAR(empirical, predicted, 0.15 * predicted);
}

TEST(Mechanism, HigherEpsilonLowersError) {
  Domain d({16});
  UnionWorkload w = MakeProductWorkload(d, {PrefixBlock(16)});
  HdmmOptions opts;
  opts.restarts = 1;
  opts.kron.lbfgs.max_iterations = 60;
  HdmmResult res = OptimizeStrategy(w, opts);
  Rng rng(3);
  Vector x = UniformDataVector(d, 1000, &rng);
  Vector truth = TrueAnswers(w, x);
  const int trials = 150;
  double err_low = 0.0, err_high = 0.0;
  for (int t = 0; t < trials; ++t) {
    err_low += EmpiricalSquaredError(
        truth, RunMechanism(w, *res.strategy, x, 0.5, &rng));
    err_high += EmpiricalSquaredError(
        truth, RunMechanism(w, *res.strategy, x, 2.0, &rng));
  }
  EXPECT_LT(err_high, err_low);
}

TEST(Mechanism, LsmrReconstructionRecovers) {
  Rng rng(5);
  Matrix a = PrefixBlock(6);
  DenseOperator op(a);
  Vector x = {3, 1, 4, 1, 5, 9};
  Vector y = MatVec(a, x);
  Vector xhat = LsmrSolve(op, y).x;
  for (size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(xhat[i], x[i], 1e-7);
}

}  // namespace
}  // namespace hdmm
