#include "core/hdmm.h"

#include <limits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "workload/building_blocks.h"

namespace hdmm {
namespace {

std::unique_ptr<Strategy> MakeIdentityStrategy(const Domain& domain) {
  std::vector<Matrix> factors;
  for (int i = 0; i < domain.NumAttributes(); ++i)
    factors.push_back(IdentityBlock(domain.AttributeSize(i)));
  return std::make_unique<KronStrategy>(std::move(factors), "identity");
}

}  // namespace

HdmmResult OptimizeStrategy(const UnionWorkload& w,
                            const HdmmOptions& options) {
  HDMM_TRACE_SPAN("OptimizeStrategy");
  HDMM_CHECK(w.NumProducts() >= 1);
  Rng rng(options.seed);
  const int d = w.domain().NumAttributes();

  // Line 1 of Algorithm 2: best = (I, error_I).
  HdmmResult best;
  best.strategy = MakeIdentityStrategy(w.domain());
  best.squared_error = best.strategy->SquaredError(w);
  best.chosen_operator = "identity";

  // One job per (restart, operator) cell of Algorithm 2's grid. Jobs are
  // enumerated restart-major in the operator order kron, union, marginals —
  // the same order the old sequential loop considered candidates in — and
  // each owns an independent stream forked from the seed Rng on this thread,
  // so the grid (and the selection below) is a pure function of the options,
  // never of the thread count.
  enum Op { kKron, kUnion, kMarginals };
  struct Job {
    Op op;
    Rng rng;
    std::unique_ptr<Strategy> strategy;
    double error = std::numeric_limits<double>::infinity();
  };
  const bool run_union =
      options.use_union &&
      PartitionBySignature(w, options.union_opts.max_groups).size() > 1;
  const bool run_marginals =
      options.use_marginals && d <= options.max_marginals_dims;
  std::vector<Job> jobs;
  for (int restart = 0; restart < std::max(1, options.restarts); ++restart) {
    if (options.use_kron)
      jobs.push_back({kKron, rng.Fork(jobs.size()), nullptr, 0.0});
    // With a single signature group OPT_+ degenerates to OPT_x; skip it.
    if (run_union)
      jobs.push_back({kUnion, rng.Fork(jobs.size()), nullptr, 0.0});
    if (run_marginals)
      jobs.push_back({kMarginals, rng.Fork(jobs.size()), nullptr, 0.0});
  }

  // Candidates are always compared through the strategy's own closed-form
  // SquaredError rather than the optimizer's internal objective value, so
  // HdmmResult::squared_error is guaranteed to describe the strategy that is
  // actually returned (the optimizers' fast-path objectives can disagree
  // with the built strategy at extreme parameters; see
  // docs/pidentity_gradient.md). The error is computed inside the job so it
  // overlaps with other restarts.
  static Counter* const restarts_run =
      Metrics::GetCounter("optimizer.restarts");
  restarts_run->Add(jobs.size());

  // Push the cancel token down into every operator's L-BFGS-B loop — that
  // inner iteration is the finest-grained yield point, giving ~ms-scale
  // response to a deadline on a ~0.5 s cold plan.
  OptKronOptions kron_opts = options.kron;
  kron_opts.lbfgs.cancel = options.cancel;
  OptUnionOptions union_opts = options.union_opts;
  union_opts.kron.lbfgs.cancel = options.cancel;
  OptMarginalsOptions marginals_opts = options.marginals;
  marginals_opts.lbfgs.cancel = options.cancel;

  ComputePool().ParallelFor(
      0, static_cast<int64_t>(jobs.size()), /*grain=*/1,
      [&](int64_t j0, int64_t j1) {
        for (int64_t ji = j0; ji < j1; ++ji) {
          Job& job = jobs[static_cast<size_t>(ji)];
          // A signalled token skips jobs that have not started; jobs already
          // inside L-BFGS-B notice it themselves within one iteration.
          if (CancelRequested(options.cancel)) continue;
          if (job.op == kKron) {
            OptKronResult res = OptKron(w, kron_opts, &job.rng);
            job.strategy = std::make_unique<KronStrategy>(
                std::move(res.factors), "opt-kron");
          } else if (job.op == kUnion) {
            OptUnionResult res = OptUnion(w, union_opts, &job.rng);
            job.strategy = std::make_unique<UnionKronStrategy>(
                std::move(res.group_factors), std::move(res.group_products),
                "opt-union");
          } else {
            OptMarginalsResult res = OptMarginals(w, marginals_opts,
                                                  &job.rng);
            job.strategy = std::make_unique<MarginalsStrategy>(
                w.domain(), res.theta, "opt-marginals");
          }
          if (CancelRequested(options.cancel)) {
            // Stopped mid-optimization: the iterate is abandoned, so don't
            // spend time scoring it either.
            job.strategy.reset();
            continue;
          }
          job.error = job.strategy->SquaredError(w);
        }
      });

  // Deterministic selection in job order: strict improvement only, so the
  // earliest (lowest restart, operator-order) candidate wins ties.
  best.cancelled = CancelRequested(options.cancel);
  static const char* kOpNames[] = {"kron", "union", "marginals"};
  for (Job& job : jobs) {
    if (job.strategy == nullptr) continue;  // Skipped under cancellation.
    if (job.error < best.squared_error) {
      best.strategy = std::move(job.strategy);
      best.squared_error = job.error;
      best.chosen_operator = kOpNames[job.op];
    }
  }
  return best;
}

Vector RunMechanism(const UnionWorkload& w, const Strategy& strategy,
                    const Vector& x, double epsilon, Rng* rng) {
  HDMM_CHECK(static_cast<int64_t>(x.size()) == w.DomainSize());
  Vector y = strategy.Measure(x, epsilon, rng);
  Vector x_hat = strategy.Reconstruct(y);
  return TrueAnswers(w, x_hat);
}

Vector TrueAnswers(const UnionWorkload& w, const Vector& x) {
  auto op = w.ToOperator();
  return op->Apply(x);
}

}  // namespace hdmm
