// Cold-planning throughput benchmarks: the optimizer-side counterpart of
// bench_engine (which measures how much a *warm* plan saves, this one
// measures how fast a *cold* plan has become).
//
//   eval     the OPT_0 inner loop: PIdentityObjective::Eval driven by
//            L-BFGS-B on the census age attribute (Prefix(115), p = 7,
//            serial kernels), against the library's dense O(N^3)
//            reference, PIdentityObjective::EvalReference, at each run's
//            final Theta. Theorem 4's O(pN^2) evaluation should cost a
//            fraction of the reference per call, and both must return the
//            same value at the same Theta.
//   gradient_cost  time of an Eval with a gradient over an objective-only
//            one (the gradient is built from the objective's own terms,
//            so it should cost a fraction of the objective's GEMM).
//   allocs   heap allocations per Eval after warmup (must be zero).
//   error_eval  heap allocations per repeated Strategy::SquaredError
//            evaluation after one warm call, for Kron and union-Kron
//            candidates (must be zero: the factor Grams, their inverses,
//            and the sensitivity are memoized on the strategy, and the
//            workload factor Grams come shared from the GramCache, so
//            re-scoring a candidate never densifies the implicit factors).
//   plan     full OPT_HDMM cold plan on a freshly parsed bench_engine
//            census workload, with GramCache hit/miss/closed-form counts,
//            the OPT_0 objective evaluations and gradients it took, and the
//            factors it hashed (with the plan's fingerprint: one per
//            factor), plus a second plan over the warm Gram cache
//            (cross-call reuse).
//   scaling  cold-plan wall time vs restart count on private pools of
//            1/2/4 total threads (restarts fan out in parallel), with a
//            content hash of the 8-restart winner per arm proving the
//            selected strategy is bit-identical at every thread count.
//
// Emits BENCH_planner.json; the planner-smoke CI job parses it and fails
// the build if an Eval costs more than half an EvalReference, the two
// disagree at the same Theta, the inner loop allocates, an Eval with a
// gradient costs 2.5x an objective-only one, or the cold plan hashes a
// factor more than once.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/hash.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/gram_cache.h"
#include "core/hdmm.h"
#include "core/opt0.h"
#include "core/pidentity.h"
#include "core/strategy.h"
#include "engine/fingerprint.h"
#include "linalg/gemm.h"
#include "optimize/lbfgsb.h"
#include "workload/building_blocks.h"
#include "workload/parser.h"

// ------------------------------------------------------------------------
// Global allocation counter: every operator new in the binary bumps it, so
// "allocations per Eval" is measured for real, not inferred.
static std::atomic<long long> g_heap_allocs{0};

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace hdmm;

// The bench_engine census-style workload (parser-doc example).
UnionWorkload CensusWorkload(bool full) {
  const std::string spec = full ? "domain sex=2 age=115 race=128\n"
                                : "domain sex=2 age=115 race=64\n";
  return ParseWorkloadOrDie(spec +
                            "product sex=identity age=prefix\n"
                            "product age=prefix race=identity\n"
                            "product sex=identity race=identity\n"
                            "product age=width(10)\n");
}

struct EvalTiming {
  int64_t n = 0;
  int p = 0;
  double eval_s = 0.0;       // The warm starts' wall time, L-BFGS-B included.
  int evals = 0;             // Eval calls across the warm starts.
  double reference_s = 0.0;  // Best-of-N EvalReference, summed over the runs.
  // Per-call cost of the O(N^3) reference over one Eval inside L-BFGS-B:
  // (reference_s / runs) / (eval_s / evals).
  double reference_speedup = 0.0;
  // Largest |f - EvalReference(Theta)| / max(1, |EvalReference(Theta)|) over
  // the runs, where f is the objective Eval reported at the final Theta.
  double values_rel_diff = 0.0;
};

// The OPT_0 inner loop on the census age attribute (the workload's only
// p > 1 block): three L-BFGS-B warm starts of PIdentityObjective::Eval on
// the GramCache's Prefix Gram with serial kernels, then the library's dense
// reference, PIdentityObjective::EvalReference, at each run's final Theta.
// Both read the same Theta, so their values agree to rounding.
EvalTiming TimeOpt0InnerLoop() {
  const int64_t n = 115;  // Census age attribute.
  const int p = DefaultPFromSize(n);
  const int restarts = 3;
  LbfgsbOptions lbfgs;
  lbfgs.max_iterations = 120;

  Rng rng(17);
  std::vector<Matrix> theta0s;
  for (int r = 0; r < restarts; ++r)
    theta0s.push_back(Matrix::RandomUniform(p, n, &rng, 0.0, 0.5));

  EvalTiming t;
  t.n = n;
  t.p = p;
  std::vector<LbfgsbResult> runs;
  {
    WallTimer timer;
    for (int r = 0; r < restarts; ++r) {
      // Closed-form Gram from the cache (a hit after restart 0),
      // allocation-free serial-kernel objective.
      auto gram = GramCache::Global().FactorGram(PrefixBlock(n));
      PIdentityObjective obj(*gram, p, GemmParallelism::kSerial);
      ObjectiveFn fn = [&obj](const Vector& x, Vector* grad) {
        return obj.Eval(x, grad);
      };
      const Matrix& theta0 = theta0s[static_cast<size_t>(r)];
      LbfgsbResult res = MinimizeNonNegative(
          fn, Vector(theta0.data(), theta0.data() + theta0.size()), lbfgs);
      t.evals += res.function_evaluations;
      runs.push_back(std::move(res));
    }
    t.eval_s = timer.Seconds();
  }
  const auto gram = GramCache::Global().FactorGram(PrefixBlock(n));
  for (const LbfgsbResult& run : runs) {
    const Matrix theta(p, n, run.x);
    double reference = 0.0;
    t.reference_s += hdmm_bench::TimeBest(
        [&] { reference = PIdentityObjective::EvalReference(theta, *gram); });
    t.values_rel_diff = std::max(t.values_rel_diff,
                                 std::fabs(run.f - reference) /
                                     std::max(1.0, std::fabs(reference)));
  }
  const double eval_per_call = t.eval_s / std::max(1, t.evals);
  const double reference_per_call = t.reference_s / restarts;
  t.reference_speedup = reference_per_call / eval_per_call;

  std::printf("  Eval in L-BFGS-B:   %8.1f ms  (%d evals, %.2f us/eval)\n",
              1e3 * t.eval_s, t.evals, 1e6 * eval_per_call);
  std::printf("  EvalReference:      %8.3f ms  (%d Theta, %.2f us/call)\n",
              1e3 * t.reference_s, restarts, 1e6 * reference_per_call);
  std::printf("  reference / Eval per call: %.2fx   (values agree to %.2g)\n",
              t.reference_speedup, t.values_rel_diff);
  return t;
}

// Time of an Eval with a gradient divided by the time of an objective-only
// Eval, on the inner loop's Gram (Prefix(115), p = 7) with serial kernels. Two
// fixed Theta alternate, so no call finds the previous call's point in the
// workspace and every call computes the objective; best of 5 rounds.
double MeasureGradientCostRatio() {
  const int64_t n = 115;
  const int p = DefaultPFromSize(n);
  PIdentityObjective obj(PrefixGram(n), p, GemmParallelism::kSerial);
  Rng rng(29);
  const Matrix ta = Matrix::RandomUniform(p, n, &rng, 0.0, 0.5);
  const Matrix tb = Matrix::RandomUniform(p, n, &rng, 0.0, 0.5);
  const Vector xa(ta.data(), ta.data() + ta.size());
  const Vector xb(tb.data(), tb.data() + tb.size());
  Vector grad;
  constexpr int kCalls = 500;
  auto time_calls = [&](Vector* g) {
    WallTimer timer;
    for (int i = 0; i < kCalls; ++i) obj.Eval(i % 2 == 0 ? xa : xb, g);
    return timer.Seconds();
  };
  time_calls(&grad);  // Warmup sizes the workspace.
  double objective_s = std::numeric_limits<double>::infinity();
  double gradient_s = std::numeric_limits<double>::infinity();
  for (int round = 0; round < 5; ++round) {
    objective_s = std::min(objective_s, time_calls(nullptr));
    gradient_s = std::min(gradient_s, time_calls(&grad));
  }
  const double ratio = gradient_s / objective_s;
  std::printf("  objective only: %.2f us/Eval, with gradient: %.2f us/Eval "
              "(ratio %.2f)\n",
              1e6 * objective_s / kCalls, 1e6 * gradient_s / kCalls, ratio);
  return ratio;
}

// Heap allocations per Eval after a warmup pass, in L-BFGS-B's call
// pattern: an objective-only trial, then the gradient at the same point.
// Two fixed Theta alternate, so each trial computes the objective and each
// gradient call takes the reuse path; both are counted.
double MeasureEvalAllocations() {
  const int64_t n = 115;
  const int p = DefaultPFromSize(n);
  PIdentityObjective obj(PrefixGram(n), p, GemmParallelism::kSerial);
  Rng rng(23);
  const Matrix ta = Matrix::RandomUniform(p, n, &rng, 0.1, 0.5);
  const Matrix tb = Matrix::RandomUniform(p, n, &rng, 0.1, 0.5);
  const Vector xa(ta.data(), ta.data() + ta.size());
  const Vector xb(tb.data(), tb.data() + tb.size());
  Vector grad;
  auto trial_then_gradient = [&](int pairs) {
    for (int i = 0; i < pairs; ++i) {
      const Vector& x = i % 2 == 0 ? xa : xb;
      obj.Eval(x, nullptr);
      obj.Eval(x, &grad);
    }
  };
  trial_then_gradient(2);  // Warmup sizes the workspace and the gradient.
  const int kPairs = 100;
  const long long before = g_heap_allocs.load(std::memory_order_relaxed);
  trial_then_gradient(kPairs);
  const long long after = g_heap_allocs.load(std::memory_order_relaxed);
  const double per_eval =
      static_cast<double>(after - before) / static_cast<double>(2 * kPairs);
  std::printf("  heap allocations per Eval after warmup: %.3f\n", per_eval);
  return per_eval;
}

struct ErrorEvalAllocs {
  double kron_per_eval = 0.0;
  double union_per_eval = 0.0;
  double kron_error = 0.0;   // Sanity: the evaluations return real numbers.
  double union_error = 0.0;
};

// Heap allocations per repeated SquaredError after one warm call. The
// OPT_HDMM outer loop re-scores every candidate strategy against the
// workload; with the Grams, their inverses, and the sensitivity memoized on
// the strategy (and the workload factor Grams shared from the GramCache), a
// warm re-evaluation must not densify or allocate anything.
ErrorEvalAllocs MeasureErrorEvalAllocations(const UnionWorkload& w) {
  ErrorEvalAllocs out;
  const Domain& dom = w.domain();

  std::vector<Matrix> kron_factors;
  for (int i = 0; i < dom.NumAttributes(); ++i)
    kron_factors.push_back(PrefixBlock(dom.AttributeSize(i)));
  KronStrategy kron(std::move(kron_factors), "bench-kron");

  // A two-part union: identity factors answer half the products, prefix
  // factors the other half (the split is arbitrary; what matters is that
  // both per-part tracer sets get exercised every evaluation).
  std::vector<std::vector<Matrix>> parts(2);
  for (int i = 0; i < dom.NumAttributes(); ++i) {
    parts[0].push_back(IdentityBlock(dom.AttributeSize(i)));
    parts[1].push_back(PrefixBlock(dom.AttributeSize(i)));
  }
  std::vector<std::vector<int>> groups(2);
  for (int j = 0; j < w.NumProducts(); ++j) groups[static_cast<size_t>(j % 2)].push_back(j);
  UnionKronStrategy uni(std::move(parts), std::move(groups), "bench-union");

  const int kEvals = 50;
  auto measure = [&](const Strategy& s, double* err) {
    for (int i = 0; i < 2; ++i) *err = s.SquaredError(w);  // Warm caches.
    const long long before = g_heap_allocs.load(std::memory_order_relaxed);
    for (int i = 0; i < kEvals; ++i) *err = s.SquaredError(w);
    const long long after = g_heap_allocs.load(std::memory_order_relaxed);
    return static_cast<double>(after - before) / static_cast<double>(kEvals);
  };
  out.kron_per_eval = measure(kron, &out.kron_error);
  out.union_per_eval = measure(uni, &out.union_error);
  std::printf("  heap allocations per SquaredError after warmup: "
              "kron %.3f, union-kron %.3f\n",
              out.kron_per_eval, out.union_per_eval);
  return out;
}

struct PlanTimings {
  double cold_s = 0.0;
  double warm_gram_s = 0.0;
  GramCache::Stats cold_stats;
  GramCache::Stats warm_stats;
  // OPT_0 points the cold plan evaluated, and how many of them also needed
  // a gradient (the starts and the accepted line-search steps).
  uint64_t cold_objective_evals = 0;
  uint64_t cold_gradients = 0;
  // Factors hashed by the cold plan and its fingerprint, and the workload's
  // factor count (products x attributes) that bounds it.
  uint64_t cold_factor_keys = 0;
  int factors = 0;
};

// `w` must be freshly parsed, so that none of its factor keys is hashed yet.
PlanTimings BenchColdPlan(const UnionWorkload& w) {
  HdmmOptions options;
  options.restarts = 1;
  options.seed = 7;

  PlanTimings t;
  Counter* const evals = Metrics::GetCounter("optimizer.evals");
  Counter* const gradients = Metrics::GetCounter("optimizer.gradients");
  Counter* const factor_keys = Metrics::GetCounter("workload.factor_keys");
  GramCache::Global().Clear();
  GramCache::Global().ResetStats();
  {
    const uint64_t evals0 = evals->Value();
    const uint64_t gradients0 = gradients->Value();
    const uint64_t keys0 = factor_keys->Value();
    WallTimer timer;
    HdmmResult res = OptimizeStrategy(w, options);
    t.cold_s = timer.Seconds();
    t.cold_stats = GramCache::Global().stats();
    t.cold_objective_evals = evals->Value() - evals0;
    t.cold_gradients = gradients->Value() - gradients0;
    // Engine::Plan fingerprints the same workload object; its keys are
    // already hashed by now.
    FingerprintPlan(w, options);
    t.cold_factor_keys = factor_keys->Value() - keys0;
    t.factors = w.NumProducts() * w.domain().NumAttributes();
    std::printf("  cold plan (empty gram cache): %8.1f ms  -> %s\n",
                1e3 * t.cold_s, res.chosen_operator.c_str());
    std::printf("  OPT_0 objective evaluations: %llu, gradients: %llu\n",
                static_cast<unsigned long long>(t.cold_objective_evals),
                static_cast<unsigned long long>(t.cold_gradients));
    std::printf("  factors hashed (plan + fingerprint): %llu of %d\n",
                static_cast<unsigned long long>(t.cold_factor_keys),
                t.factors);
  }
  GramCache::Global().ResetStats();
  {
    WallTimer timer;
    HdmmResult res = OptimizeStrategy(w, options);
    t.warm_gram_s = timer.Seconds();
    t.warm_stats = GramCache::Global().stats();
    std::printf("  re-plan (warm gram cache):    %8.1f ms  -> %s\n",
                1e3 * t.warm_gram_s, res.chosen_operator.c_str());
  }
  std::printf("  gram cache: cold %llu miss / %llu hit (%llu closed-form), "
              "warm hit rate %.0f%%\n",
              static_cast<unsigned long long>(t.cold_stats.misses),
              static_cast<unsigned long long>(t.cold_stats.hits),
              static_cast<unsigned long long>(t.cold_stats.closed_form),
              100.0 * t.warm_stats.HitRate());
  return t;
}

struct ScalePoint {
  int restarts = 0;
  double seconds = 0.0;
};

// One thread arm of the restart-scaling sweep: every restart count timed on
// a private pool of `threads` total threads, plus a content hash of the
// 8-restart winner proving selection is bit-identical across arms.
struct ThreadArm {
  int threads = 0;
  uint64_t selection_hash = 0;
  std::vector<ScalePoint> points;
};

// Content hash of the selected strategy: operator name, its error, and the
// strategy applied to a fixed non-uniform vector (exercises every matrix
// entry). Equal digests across pool widths mean the *same bits* were
// selected, not merely the same operator family.
uint64_t SelectionHash(const UnionWorkload& w, const HdmmResult& res) {
  WordHasher h;
  h.Bytes(res.chosen_operator.data(), res.chosen_operator.size());
  h.F64(res.squared_error);
  Vector x(static_cast<size_t>(w.DomainSize()));
  for (size_t i = 0; i < x.size(); ++i)
    x[i] = 1.0 + 0.25 * static_cast<double>(i % 11);
  for (double v : res.strategy->Apply(x)) h.F64(v);
  return h.Digest();
}

std::vector<ThreadArm> BenchRestartScaling(const UnionWorkload& w) {
  std::vector<ThreadArm> arms;
  for (int threads : {1, 2, 4}) {
    // The arm's pool carries both the restart fan-out and the dense kernels
    // under it, exactly as a process started with HDMM_THREADS=t would run.
    ThreadPool pool(threads - 1);
    SetComputePool(&pool);
    ThreadArm arm;
    arm.threads = threads;
    for (int restarts : {1, 2, 4, 8}) {
      HdmmOptions options;
      options.restarts = restarts;
      options.seed = 7;
      WallTimer timer;
      HdmmResult res = OptimizeStrategy(w, options);
      ScalePoint pt;
      pt.restarts = restarts;
      pt.seconds = timer.Seconds();
      arm.points.push_back(pt);
      if (restarts == 8) arm.selection_hash = SelectionHash(w, res);
      std::printf("  threads=%d restarts=%d: %8.1f ms  (%.1f ms/restart)\n",
                  threads, restarts, 1e3 * pt.seconds,
                  1e3 * pt.seconds / restarts);
    }
    SetComputePool(nullptr);
    std::printf("  threads=%d selection hash: %016llx\n", threads,
                static_cast<unsigned long long>(arm.selection_hash));
    arms.push_back(std::move(arm));
  }
  return arms;
}

void WriteJson(const EvalTiming& eval, double gradient_cost_ratio,
               double allocs_per_eval,
               const ErrorEvalAllocs& error_allocs, const PlanTimings& plan,
               const std::vector<ThreadArm>& scaling, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "could not open %s for writing\n", path);
    return;
  }
  hdmm_bench::WriteJsonHeader(f, "bench_planner");
  std::fprintf(f,
               "  \"eval\": {\"n\": %lld, \"p\": %d, \"eval_s\": %.6f, "
               "\"evals\": %d, \"reference_s\": %.6f, "
               "\"reference_speedup\": %.2f, \"values_rel_diff\": %.3g, "
               "\"gradient_cost_ratio\": %.2f},\n",
               static_cast<long long>(eval.n), eval.p, eval.eval_s, eval.evals,
               eval.reference_s, eval.reference_speedup, eval.values_rel_diff,
               gradient_cost_ratio);
  std::fprintf(f,
               "  \"allocations\": {\"per_eval_after_warmup\": %.3f, "
               "\"per_error_eval_after_warmup\": %.3f, "
               "\"per_error_eval_kron\": %.3f, "
               "\"per_error_eval_union\": %.3f},\n",
               allocs_per_eval,
               std::max(error_allocs.kron_per_eval,
                        error_allocs.union_per_eval),
               error_allocs.kron_per_eval, error_allocs.union_per_eval);
  std::fprintf(f,
               "  \"plan\": {\"cold_s\": %.6f, \"warm_gram_s\": %.6f, "
               "\"cold_gram_misses\": %llu, \"cold_gram_hits\": %llu, "
               "\"cold_closed_form\": %llu, \"warm_hit_rate\": %.3f, "
               "\"objective_evals\": %llu, \"gradients\": %llu, "
               "\"factor_keys\": %llu, \"factors\": %d},\n",
               plan.cold_s, plan.warm_gram_s,
               static_cast<unsigned long long>(plan.cold_stats.misses),
               static_cast<unsigned long long>(plan.cold_stats.hits),
               static_cast<unsigned long long>(plan.cold_stats.closed_form),
               plan.warm_stats.HitRate(),
               static_cast<unsigned long long>(plan.cold_objective_evals),
               static_cast<unsigned long long>(plan.cold_gradients),
               static_cast<unsigned long long>(plan.cold_factor_keys),
               plan.factors);
  std::fprintf(f, "  \"restart_scaling\": [\n");
  for (size_t i = 0; i < scaling.size(); ++i) {
    const ThreadArm& arm = scaling[i];
    std::fprintf(f,
                 "    {\"threads\": %d, \"selection_hash\": \"%016llx\", "
                 "\"points\": [",
                 arm.threads,
                 static_cast<unsigned long long>(arm.selection_hash));
    for (size_t j = 0; j < arm.points.size(); ++j) {
      std::fprintf(f, "%s{\"restarts\": %d, \"seconds\": %.6f}",
                   j == 0 ? "" : ", ", arm.points[j].restarts,
                   arm.points[j].seconds);
    }
    std::fprintf(f, "]}%s\n", i + 1 < scaling.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = hdmm_bench::FullScale(argc, argv);
  UnionWorkload w = CensusWorkload(full);

  std::printf("=== planner: OPT_0 inner loop (n=115 census age) ===\n");
  const EvalTiming eval = TimeOpt0InnerLoop();

  std::printf("\n=== planner: gradient cost (n=115, p=7, serial) ===\n");
  const double gradient_cost_ratio = MeasureGradientCostRatio();

  std::printf("\n=== planner: Eval allocation audit ===\n");
  const double allocs = MeasureEvalAllocations();

  std::printf("\n=== planner: SquaredError allocation audit ===\n");
  const ErrorEvalAllocs error_allocs = MeasureErrorEvalAllocations(w);

  std::printf("\n=== planner: cold plan, census workload (N=%lld, %d pool "
              "threads) ===\n",
              static_cast<long long>(w.DomainSize()),
              ThreadPool::Global().num_threads());
  const PlanTimings plan = BenchColdPlan(CensusWorkload(full));

  std::printf("\n=== planner: restart scaling (deterministic parallel "
              "restarts, private 1/2/4-thread pools) ===\n");
  const std::vector<ThreadArm> scaling = BenchRestartScaling(w);

  WriteJson(eval, gradient_cost_ratio, allocs, error_allocs, plan, scaling,
            "BENCH_planner.json");
  return 0;
}
