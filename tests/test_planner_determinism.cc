// Thread-count invariance of the planner: for a fixed seed, Opt0 / OptKron /
// OptMarginals / OptimizeStrategy must select bit-identical strategies and
// errors whether they run over 1 thread, 4, or 16. The tests route the
// restart fan-out and the kernels under it through private pools of
// different widths (SetComputePool) and compare raw result bits, so any
// scheduling- or reduction-order dependence fails loudly. 16 exceeds both
// the restart counts used here (tasks outnumbered by threads — idle workers
// must not perturb anything) and any CI runner's core count
// (oversubscription).
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/hdmm.h"
#include "core/opt0.h"
#include "core/opt_kron.h"
#include "core/opt_marginals.h"
#include "core/strategy_io.h"
#include "workload/building_blocks.h"
#include "workload/parser.h"

namespace hdmm {
namespace {

// Runs `fn` with restart fan-out and compute kernels on a dedicated pool of
// `total_threads` (callers included), restoring the default pool afterwards.
template <typename Fn>
auto WithRestartThreads(int total_threads, Fn fn) {
  ThreadPool pool(total_threads - 1);
  SetComputePool(&pool);
  auto result = fn();
  SetComputePool(nullptr);
  return result;
}

bool BitIdentical(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(),
                      sizeof(double) * static_cast<size_t>(a.size())) == 0);
}

bool BitIdentical(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), sizeof(double) * a.size()) == 0);
}

bool BitIdentical(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

UnionWorkload SmallCensus() {
  Domain d({"sex", "age"}, {2, 24});
  UnionWorkload w(d);
  ProductWorkload p1;
  p1.factors = {IdentityBlock(2), PrefixBlock(24)};
  w.AddProduct(p1);
  ProductWorkload p2;
  p2.factors = {TotalBlock(2), IdentityBlock(24)};
  w.AddProduct(p2);
  return w;
}

TEST(RngFork, IndependentOfParentConsumption) {
  // The forked stream depends on (seed, fork order, stream id) only — not on
  // how far the parent sequence has advanced.
  Rng drained(7);
  for (int i = 0; i < 100; ++i) drained.Uniform();
  Rng fresh(7);
  Rng a = drained.Fork(3);
  Rng b = fresh.Fork(3);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(a.Uniform(), b.Uniform());
}

TEST(RngFork, SuccessiveForksDiffer) {
  // Equal stream ids on successive Fork calls still yield distinct streams
  // (the per-parent epoch separates them), and distinct stream ids differ.
  Rng parent(11);
  Rng a = parent.Fork(0);
  Rng b = parent.Fork(0);
  Rng c = parent.Fork(1);
  EXPECT_NE(a.Uniform(), b.Uniform());
  EXPECT_NE(a.Uniform(), c.Uniform());
}

TEST(PlannerDeterminism, Opt0ThreadCountInvariant) {
  Matrix g = AllRangeGram(24);
  Opt0Options opts;
  opts.p = 2;
  opts.restarts = 4;
  auto run = [&] {
    Rng rng(42);
    return Opt0(g, opts, &rng);
  };
  Opt0Result narrow = WithRestartThreads(1, run);
  for (int threads : {4, 16}) {
    Opt0Result wide = WithRestartThreads(threads, run);
    EXPECT_TRUE(BitIdentical(narrow.error, wide.error)) << threads;
    EXPECT_TRUE(BitIdentical(narrow.theta, wide.theta)) << threads;
  }
}

TEST(PlannerDeterminism, OptKronThreadCountInvariant) {
  // One OPT_x run gives the same bits at every kernel-pool width.
  UnionWorkload w = SmallCensus();
  OptKronOptions opts;
  opts.max_cycles = 3;
  auto run = [&] {
    Rng rng(5);
    return OptKron(w, opts, &rng);
  };
  OptKronResult narrow = WithRestartThreads(1, run);
  for (int threads : {4, 16}) {
    OptKronResult wide = WithRestartThreads(threads, run);
    EXPECT_TRUE(BitIdentical(narrow.error, wide.error)) << threads;
    ASSERT_EQ(narrow.factors.size(), wide.factors.size());
    for (size_t i = 0; i < narrow.factors.size(); ++i)
      EXPECT_TRUE(BitIdentical(narrow.factors[i], wide.factors[i]))
          << threads << " threads, factor " << i;
  }
}

TEST(PlannerDeterminism, OptMarginalsThreadCountInvariant) {
  Domain d({3, 4, 2});
  UnionWorkload w(d);
  ProductWorkload p1;
  p1.factors = {IdentityBlock(3), TotalBlock(4), IdentityBlock(2)};
  w.AddProduct(p1);
  ProductWorkload p2;
  p2.factors = {TotalBlock(3), IdentityBlock(4), TotalBlock(2)};
  w.AddProduct(p2);
  // One OPT_M run from a random start (the branch that reads the Rng) gives
  // the same bits at every kernel-pool width.
  OptMarginalsOptions opts;
  opts.workload_aware_init = false;
  auto run = [&] {
    Rng rng(13);
    return OptMarginals(w, opts, &rng);
  };
  OptMarginalsResult narrow = WithRestartThreads(1, run);
  for (int threads : {4, 16}) {
    OptMarginalsResult wide = WithRestartThreads(threads, run);
    EXPECT_TRUE(BitIdentical(narrow.error, wide.error)) << threads;
    EXPECT_TRUE(BitIdentical(narrow.theta, wide.theta)) << threads;
  }
}

TEST(PlannerDeterminism, OptimizeStrategyThreadCountInvariant) {
  // The last two workloads have a Total-only attribute (c): the first
  // selects an OPT_x plan whose factor on c is 1^T, the second an OPT_+
  // plan with a first factor lambda * 1^T.
  const std::vector<UnionWorkload> workloads = {
      SmallCensus(),
      ParseWorkloadOrDie("domain a=32 b=8 c=2\n"
                         "product a=prefix b=identity\n"
                         "product a=identity b=prefix\n"),
      ParseWorkloadOrDie("domain a=32 b=8 c=2\n"
                         "product a=prefix\n"
                         "product weight=0.5 b=prefix\n")};
  for (size_t k = 0; k < workloads.size(); ++k) {
    const UnionWorkload& w = workloads[k];
    HdmmOptions options;
    options.restarts = 2;
    options.seed = 99;
    auto run = [&] { return OptimizeStrategy(w, options); };
    HdmmResult narrow = WithRestartThreads(1, run);
    for (int threads : {4, 16}) {
      HdmmResult wide = WithRestartThreads(threads, run);
      EXPECT_EQ(narrow.chosen_operator, wide.chosen_operator)
          << "workload " << k << ", " << threads << " threads";
      EXPECT_TRUE(BitIdentical(narrow.squared_error, wide.squared_error))
          << "workload " << k << ", " << threads << " threads";
      // The strategies themselves must match bit-for-bit, not just their
      // errors: compare through the canonical serialization.
      EXPECT_EQ(SerializeStrategy(*narrow.strategy),
                SerializeStrategy(*wide.strategy))
          << "workload " << k << ", " << threads << " threads";
    }
  }
}

TEST(PlannerDeterminism, CpsUnionRepeatsAcrossRoundsAndWidths) {
  // A CPS union whose winner (union vs kron) once flipped with the heap
  // addresses of the optimizer's vectors: the vectorized L-BFGS-B loops
  // peeled a data-dependent number of FMA-contracted iterations. Rounds
  // re-allocate everything, so each round sees fresh addresses.
  const UnionWorkload w = ParseWorkloadOrDie(
      "domain income=100 age=50 race=7 hispanic=4 sex=2\n"
      "product weight=4.61 income=width(13) age=allrange "
      "hispanic=width(2)\n"
      "product weight=4.39 hispanic=width(2) sex=prefix\n"
      "product weight=4.90 age=width(6) race=width(3)\n"
      "product weight=1.93 income=identity hispanic=identity\n");
  HdmmOptions options;
  auto run = [&] { return OptimizeStrategy(w, options); };
  std::string first_operator, first_strategy;
  double first_error = 0.0;
  for (int round = 0; round < 3; ++round) {
    for (int threads : {1, 4, 16}) {
      HdmmResult res = WithRestartThreads(threads, run);
      std::string strategy = SerializeStrategy(*res.strategy);
      if (first_strategy.empty()) {
        first_operator = res.chosen_operator;
        first_strategy = std::move(strategy);
        first_error = res.squared_error;
        continue;
      }
      EXPECT_EQ(first_operator, res.chosen_operator)
          << "round " << round << ", " << threads << " threads";
      EXPECT_TRUE(BitIdentical(first_error, res.squared_error))
          << "round " << round << ", " << threads << " threads";
      // Report which run differs, not both (long) serialized strategies.
      EXPECT_TRUE(first_strategy == strategy)
          << "round " << round << ", " << threads << " threads";
    }
  }
}

TEST(PlannerDeterminism, RepeatedRunsIdenticalOnSamePool) {
  // Two back-to-back runs with the same seed (same pool) must agree — the
  // restart Rng forking may not leak state between calls through anything
  // but the caller's Rng instance.
  UnionWorkload w = SmallCensus();
  HdmmOptions options;
  options.restarts = 2;
  options.seed = 7;
  HdmmResult first = OptimizeStrategy(w, options);
  HdmmResult second = OptimizeStrategy(w, options);
  EXPECT_EQ(first.chosen_operator, second.chosen_operator);
  EXPECT_TRUE(BitIdentical(first.squared_error, second.squared_error));
  EXPECT_EQ(SerializeStrategy(*first.strategy),
            SerializeStrategy(*second.strategy));
}

}  // namespace
}  // namespace hdmm
