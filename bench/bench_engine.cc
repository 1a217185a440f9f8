// Serving-engine benchmarks: the compute-once/serve-many claim in numbers.
//
//   plan   cold OPT_HDMM run vs warm Plan() through the strategy cache's
//          disk tier (simulated restart) and memory tier, on the
//          census-style example workload
//   batch  10k box queries answered one dense row at a time (today's
//          `W x_hat` serving path) vs AnswerBatch over the session's
//          summed-area table, pool-parallel
//   queries  ns per text query line through ParseQueryLine, on batches of
//          CPS point/marginal/range lines like a served request's
//
// Emits BENCH_engine.json in the working directory; the CI smoke job parses
// it and fails the build if the cache ever gets slower than a cold plan.
#include <cmath>
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "engine/engine.h"
#include "workload/parser.h"

namespace {

using namespace hdmm;

// The parser-doc census-style example: identity+prefix style products over a
// sex x age x race schema. --full widens race to the full SF1-ish 128.
UnionWorkload CensusWorkload(bool full) {
  const std::string spec = full ? "domain sex=2 age=115 race=128\n"
                                : "domain sex=2 age=115 race=64\n";
  return ParseWorkloadOrDie(spec +
                            "product sex=identity age=prefix\n"
                            "product age=prefix race=identity\n"
                            "product sex=identity race=identity\n"
                            "product age=width(10)\n");
}

struct PlanTimings {
  double cold_s = 0.0;
  double warm_disk_s = 0.0;
  double warm_mem_s = 0.0;
};

PlanTimings BenchPlan(const UnionWorkload& w, const std::string& cache_dir) {
  std::filesystem::remove_all(cache_dir);
  EngineOptions options;
  options.optimizer.restarts = 1;
  options.optimizer.seed = 7;
  options.cache.disk_dir = cache_dir;

  PlanTimings t;
  {
    Engine cold_engine(options);
    PlanResult cold = cold_engine.Plan(w);
    if (PlanSource::kOptimized != cold.source) {
      std::fprintf(stderr, "expected a cold plan, got %s\n",
                   PlanSourceName(cold.source));
    }
    t.cold_s = cold.seconds;
    std::printf("  cold plan (OPT_HDMM):      %9.3f ms  fingerprint %s\n",
                1e3 * t.cold_s, cold.fingerprint.Hex().c_str());
  }
  {
    // Fresh engine over the same directory = restart: the plan is a file
    // read. Best of 5 to measure the steady state, not the page cache warmup.
    Engine warm_engine(options);
    for (int rep = 0; rep < 5; ++rep) {
      warm_engine.cache().ClearMemory();
      PlanResult warm = warm_engine.Plan(w);
      if (PlanSource::kDiskCache != warm.source) {
        std::fprintf(stderr, "expected a disk hit, got %s\n",
                     PlanSourceName(warm.source));
      }
      t.warm_disk_s = rep == 0 ? warm.seconds
                               : std::min(t.warm_disk_s, warm.seconds);
    }
    std::printf("  warm plan (disk cache):    %9.3f ms  (%.0fx)\n",
                1e3 * t.warm_disk_s, t.cold_s / t.warm_disk_s);
    for (int rep = 0; rep < 5; ++rep) {
      PlanResult warm = warm_engine.Plan(w);
      if (PlanSource::kMemoryCache != warm.source) {
        std::fprintf(stderr, "expected a memory hit, got %s\n",
                     PlanSourceName(warm.source));
      }
      t.warm_mem_s = rep == 0 ? warm.seconds
                              : std::min(t.warm_mem_s, warm.seconds);
    }
    std::printf("  warm plan (memory cache):  %9.3f us  (%.0fx)\n",
                1e6 * t.warm_mem_s, t.cold_s / t.warm_mem_s);
  }
  return t;
}

struct FailpointTimings {
  double disabled_check_ns = 0.0;  ///< Registry empty: the fast path.
  double armed_other_check_ns = 0.0;  ///< Some *other* point armed.
  double warm_mem_armed_s = 0.0;  ///< Warm-mem Plan with an off-point armed.
  double overhead_pct_bound = 0.0;  ///< Computed worst-case on a warm Plan.
};

// The robustness tier's standing cost: every environmental code path now
// carries HDMM_FAILPOINT sites, which must be free when nothing is armed.
// Measures the per-check cost with the registry empty (one relaxed atomic
// load + a predicted-untaken branch) and with an unrelated point armed (the
// slow path: a registry lookup that misses), then bounds the worst-case
// overhead on a warm in-memory Plan assuming a generous per-plan site count.
FailpointTimings BenchFailpoints(const UnionWorkload& w,
                                 const std::string& cache_dir,
                                 double warm_mem_baseline_s) {
  constexpr int64_t kIters = 50'000'000;
  FailpointTimings t;
  int64_t fired = 0;

  WallTimer timer;
  for (int64_t i = 0; i < kIters; ++i) {
    if (HDMM_FAILPOINT("bench.engine.probe")) ++fired;
  }
  t.disabled_check_ns = timer.Seconds() * 1e9 / static_cast<double>(kIters);

  Failpoints::Activate("bench.engine.other", "off");
  timer.Restart();
  for (int64_t i = 0; i < kIters; ++i) {
    if (HDMM_FAILPOINT("bench.engine.probe")) ++fired;
  }
  t.armed_other_check_ns =
      timer.Seconds() * 1e9 / static_cast<double>(kIters);

  {
    // Warm-mem Plan with the registry non-empty: the realistic "operator
    // left a failpoint armed" regime. Best of 5, same as the baseline arm.
    EngineOptions options;
    options.optimizer.restarts = 1;
    options.optimizer.seed = 7;
    options.cache.disk_dir = cache_dir;
    Engine engine(options);
    engine.Plan(w);  // Promote disk -> memory once.
    for (int rep = 0; rep < 5; ++rep) {
      PlanResult warm = engine.Plan(w);
      t.warm_mem_armed_s = rep == 0 ? warm.seconds
                                    : std::min(t.warm_mem_armed_s,
                                               warm.seconds);
    }
  }
  Failpoints::Deactivate("bench.engine.other");

  // Worst-case bound, deterministic by construction: even if a warm Plan
  // crossed 64 disabled sites (it crosses far fewer), the added latency is
  // 64 * disabled_check_ns.
  constexpr double kGenerousSitesPerPlan = 64.0;
  t.overhead_pct_bound = 100.0 * kGenerousSitesPerPlan *
                         (t.disabled_check_ns * 1e-9) / warm_mem_baseline_s;

  std::printf("  disabled check:            %9.3f ns  (registry empty)\n",
              t.disabled_check_ns);
  std::printf("  disabled check, armed reg: %9.3f ns  (other point armed)\n",
              t.armed_other_check_ns);
  std::printf("  warm plan, armed registry: %9.3f us  (baseline %.3f us)\n",
              1e6 * t.warm_mem_armed_s, 1e6 * warm_mem_baseline_s);
  std::printf("  warm-plan overhead bound:  %9.4f %%  (64 sites assumed)\n",
              t.overhead_pct_bound);
  if (fired != 0) std::printf("  (impossible: probe fired %lld)\n",
                              static_cast<long long>(fired));
  return t;
}

struct MetricsTimings {
  double disabled_add_ns = 0.0;  ///< HDMM_METRICS off: the gated fast path.
  double enabled_add_ns = 0.0;   ///< Uncontended single-writer slot update.
  double hist_record_ns = 0.0;   ///< Enabled Histogram::Record.
  double overhead_pct_bound = 0.0;  ///< Worst case on a warm in-memory Plan.
};

// The observability tier's standing cost, mirroring BenchFailpoints: counter
// and histogram sites are compiled into the serving path unconditionally, so
// both the disabled path (one relaxed load + predicted branch) and the
// always-on enabled path (sharded single-writer slot update) must stay in
// the nanoseconds. The CI smoke gate holds the disabled path at ~1 ns and
// the instrumented warm-Plan overhead bound under 1%.
MetricsTimings BenchMetrics(double warm_mem_baseline_s) {
  constexpr int64_t kIters = 50'000'000;
  MetricsTimings t;
  Counter* const probe = Metrics::GetCounter("bench.engine.metrics_probe");
  Histogram* const hist =
      Metrics::GetHistogram("bench.engine.metrics_probe_ns");

  // 4x unrolled so the loop counter amortizes: the figure of interest is
  // the marginal per-op cost of the gate (one relaxed load + predicted
  // branch), not the bench loop's own increment/compare.
  Metrics::SetEnabled(false);
  WallTimer timer;
  for (int64_t i = 0; i < kIters; i += 4) {
    probe->Add(1);
    probe->Add(1);
    probe->Add(1);
    probe->Add(1);
  }
  t.disabled_add_ns = timer.Seconds() * 1e9 / static_cast<double>(kIters);
  Metrics::SetEnabled(true);

  timer.Restart();
  for (int64_t i = 0; i < kIters; i += 4) {
    probe->Add(1);
    probe->Add(1);
    probe->Add(1);
    probe->Add(1);
  }
  t.enabled_add_ns = timer.Seconds() * 1e9 / static_cast<double>(kIters);

  timer.Restart();
  for (int64_t i = 0; i < kIters; ++i) {
    hist->Record(static_cast<uint64_t>(i & 0xffff));
  }
  t.hist_record_ns = timer.Seconds() * 1e9 / static_cast<double>(kIters);

  // Worst-case bound on a warm in-memory Plan, same construction as the
  // failpoint gate: even 64 enabled counter updates per plan (the real path
  // crosses a handful) add only 64 * enabled_add_ns.
  constexpr double kGenerousSitesPerPlan = 64.0;
  t.overhead_pct_bound = 100.0 * kGenerousSitesPerPlan *
                         (t.enabled_add_ns * 1e-9) / warm_mem_baseline_s;

  std::printf("  counter add, disabled:     %9.3f ns  (HDMM_METRICS=off)\n",
              t.disabled_add_ns);
  std::printf("  counter add, enabled:      %9.3f ns  (single-writer slot)\n",
              t.enabled_add_ns);
  std::printf("  histogram record, enabled: %9.3f ns\n", t.hist_record_ns);
  std::printf("  warm-plan overhead bound:  %9.4f %%  (64 sites assumed)\n",
              t.overhead_pct_bound);
  return t;
}

struct BatchTimings {
  int64_t num_queries = 0;
  double one_at_a_time_s = 0.0;
  double batched_s = 0.0;
  double max_abs_diff = 0.0;
};

struct GovernorTimings {
  double touch_ns = 0.0;  ///< Throttled ticket Touch: the per-answer hook.
  double admit_release_us = 0.0;  ///< Full Admit + release cycle (cold path).
  double overhead_pct_bound = 0.0;  ///< Worst case on a warm batched answer.
};

// The resource governor's standing cost on the warm serving path, mirroring
// the failpoint/metrics arms: a session ticket Touch() (LRU recency) fires
// once per public Answer() call and once per AnswerBatch call — the batched
// inner loop is touch-free — and is a relaxed counter bump on 63 of 64
// calls, one governor-lock splice on the 64th. Admit/release is the cold
// path — once per measurement, never per query — and is reported for
// capacity planning, not gated.
GovernorTimings BenchGovernor(const BatchTimings& batch) {
  constexpr int64_t kIters = 50'000'000;
  GovernorTimings t;
  GovernorOptions options;
  options.max_sessions = 64;
  options.memory_budget_bytes = 1ll << 30;
  auto governor = std::make_shared<ResourceGovernor>(options);

  SessionStorageOptions storage;
  auto admitted = governor->Admit(1 << 20, &storage);
  if (!admitted.ok()) {
    std::fprintf(stderr, "governor bench: admit failed: %s\n",
                 admitted.status().ToString().c_str());
    return t;
  }
  AdmissionTicket held = std::move(admitted).value();

  WallTimer timer;
  for (int64_t i = 0; i < kIters; ++i) held.Touch();
  t.touch_ns = timer.Seconds() * 1e9 / static_cast<double>(kIters);

  constexpr int64_t kCycles = 200'000;
  timer.Restart();
  for (int64_t i = 0; i < kCycles; ++i) {
    SessionStorageOptions cycle_storage;
    auto ticket = governor->Admit(1 << 12, &cycle_storage);
    if (!ticket.ok()) break;  // Cannot happen under these limits.
    // The ticket releases its charge at scope exit.
  }
  t.admit_release_us = timer.Seconds() * 1e6 / static_cast<double>(kCycles);

  // Worst-case bound: one Touch per governed call, against the cheaper of
  // the two call shapes that pay it — a single one-at-a-time Answer() or a
  // whole AnswerBatch invocation (whose inner loop is touch-free).
  const double per_single_answer_s =
      batch.one_at_a_time_s / static_cast<double>(batch.num_queries);
  const double cheapest_call_s = std::min(per_single_answer_s, batch.batched_s);
  t.overhead_pct_bound = 100.0 * (t.touch_ns * 1e-9) / cheapest_call_s;

  std::printf("  ticket touch (throttled):  %9.3f ns  (per governed call)\n",
              t.touch_ns);
  std::printf("  admit + release cycle:     %9.3f us  (per measurement)\n",
              t.admit_release_us);
  std::printf("  answer overhead bound:     %9.4f %%  (1 touch per call)\n",
              t.overhead_pct_bound);
  return t;
}

// Today's serving path for an ad-hoc query: materialize its dense indicator
// row over the domain and dot it with x_hat — O(N) per query.
double DenseRowAnswer(const Domain& domain, const Vector& x_hat,
                      const BoxQuery& q) {
  const int64_t n = domain.TotalSize();
  const int d = domain.NumAttributes();
  double total = 0.0;
  std::vector<int64_t> coords(static_cast<size_t>(d));
  for (int64_t cell = 0; cell < n; ++cell) {
    int64_t rest = cell;
    bool inside = true;
    for (int i = d - 1; i >= 0; --i) {
      coords[static_cast<size_t>(i)] = rest % domain.AttributeSize(i);
      rest /= domain.AttributeSize(i);
    }
    for (int i = 0; i < d; ++i) {
      const int64_t c = coords[static_cast<size_t>(i)];
      if (c < q.lo[static_cast<size_t>(i)] || c > q.hi[static_cast<size_t>(i)])
        inside = false;
    }
    if (inside) total += x_hat[static_cast<size_t>(cell)];
  }
  return total;
}

BatchTimings BenchBatch(const Domain& domain, int64_t num_queries) {
  Rng rng(11);
  Vector x_hat(static_cast<size_t>(domain.TotalSize()));
  for (double& v : x_hat) v = rng.Uniform(0.0, 50.0);
  MeasurementSession session(domain, x_hat, PrivacyCharge::Laplace(1.0),
                             nullptr);

  std::vector<BoxQuery> queries;
  queries.reserve(static_cast<size_t>(num_queries));
  for (int64_t i = 0; i < num_queries; ++i) {
    BoxQuery q = FullRangeQuery(domain);
    for (int a = 0; a < domain.NumAttributes(); ++a) {
      const double pick = rng.Uniform(0.0, 1.0);
      const int64_t size = domain.AttributeSize(a);
      if (pick < 0.4) {  // Point coordinate on this attribute.
        const int64_t v = static_cast<int64_t>(
            rng.Uniform(0.0, static_cast<double>(size)));
        q.lo[static_cast<size_t>(a)] = v;
        q.hi[static_cast<size_t>(a)] = v;
      } else if (pick < 0.7) {  // Proper sub-range.
        int64_t lo = static_cast<int64_t>(
            rng.Uniform(0.0, static_cast<double>(size)));
        int64_t hi = static_cast<int64_t>(
            rng.Uniform(0.0, static_cast<double>(size)));
        if (lo > hi) std::swap(lo, hi);
        q.lo[static_cast<size_t>(a)] = lo;
        q.hi[static_cast<size_t>(a)] = hi;
      }  // Else: marginalize the attribute out (full range).
    }
    queries.push_back(std::move(q));
  }

  BatchTimings t;
  t.num_queries = num_queries;

  Vector serial(queries.size(), 0.0);
  WallTimer timer;
  for (size_t i = 0; i < queries.size(); ++i) {
    serial[i] = DenseRowAnswer(domain, x_hat, queries[i]);
  }
  t.one_at_a_time_s = timer.Seconds();

  timer.Restart();
  const Vector batched = session.AnswerBatch(queries);
  t.batched_s = timer.Seconds();

  for (size_t i = 0; i < queries.size(); ++i) {
    t.max_abs_diff = std::max(t.max_abs_diff,
                              std::fabs(serial[i] - batched[i]));
  }
  std::printf("  one-at-a-time (dense row): %9.3f ms  (%.0f q/s)\n",
              1e3 * t.one_at_a_time_s,
              static_cast<double>(num_queries) / t.one_at_a_time_s);
  std::printf("  AnswerBatch (SAT + pool):  %9.3f ms  (%.0f q/s, %.0fx)\n",
              1e3 * t.batched_s,
              static_cast<double>(num_queries) / t.batched_s,
              t.one_at_a_time_s / t.batched_s);
  std::printf("  max |diff|: %.3g\n", t.max_abs_diff);
  return t;
}

struct ParseTimings {
  int64_t lines = 0;
  double ns_per_line = 0.0;
};

// The serving tier's other per-query cost: a request arrives as text lines
// that are parsed before AnswerBatch runs. The lines mix point, marginal and
// range queries on the CPS schema; the first half of each batch binds two
// attributes (what a 2-way marginal table covers), the rest three or more.
// Each batch parses into a fresh vector, as a served request does. Best of
// 15 passes over all batches (~0.1 s): a shared host's slow spells last
// longer than one pass.
ParseTimings BenchParse() {
  constexpr int kBatches = 64;
  constexpr int kBatchSize = 256;
  const Domain cps({"income", "age", "race", "hispanic", "sex"},
                   {100, 50, 7, 4, 2});
  const int d = cps.NumAttributes();
  Rng rng(23);
  std::vector<std::vector<std::string>> batches(kBatches);
  for (std::vector<std::string>& batch : batches) {
    for (int q = 0; q < kBatchSize; ++q) {
      const int arity =
          q < kBatchSize / 2 ? 2 : static_cast<int>(rng.UniformInt(3, d));
      std::vector<int> attrs = rng.Permutation(d);
      attrs.resize(static_cast<size_t>(arity));
      std::sort(attrs.begin(), attrs.end());
      const bool ranges = rng.UniformInt(0, 3) != 0;
      std::string line = ranges ? "range" : arity == d ? "point" : "marginal";
      for (int a : attrs) {
        const int64_t n = cps.AttributeSize(a);
        const int64_t extent = ranges ? rng.UniformInt(1, n) : 1;
        const int64_t lo = rng.UniformInt(0, n - extent);
        line += " " + cps.AttributeName(a) + "=" + std::to_string(lo);
        if (ranges) line += ":" + std::to_string(lo + extent - 1);
      }
      batch.push_back(std::move(line));
    }
  }

  ParseTimings t;
  t.lines = int64_t{kBatches} * kBatchSize;
  int64_t failed = 0;
  std::string error;
  for (int pass = 0; pass < 15; ++pass) {
    WallTimer timer;
    for (const std::vector<std::string>& batch : batches) {
      std::vector<BoxQuery> parsed(batch.size());
      for (size_t i = 0; i < batch.size(); ++i) {
        if (!ParseQueryLine(batch[i], cps, &parsed[i], &error)) ++failed;
      }
    }
    const double ns = timer.Seconds() * 1e9 / static_cast<double>(t.lines);
    t.ns_per_line = pass == 0 ? ns : std::min(t.ns_per_line, ns);
  }
  std::printf("  ParseQueryLine:            %9.1f ns/line  (%lld lines, "
              "batches of %d)\n",
              t.ns_per_line, static_cast<long long>(t.lines), kBatchSize);
  if (failed != 0) {
    std::fprintf(stderr, "%lld generated lines did not parse: %s\n",
                 static_cast<long long>(failed), error.c_str());
    t.ns_per_line = 0.0;  // Fails the CI gate's > 0 check.
  }
  return t;
}

void WriteJson(const PlanTimings& plan, const FailpointTimings& fp,
               const MetricsTimings& mt, const BatchTimings& batch,
               const GovernorTimings& gov, const ParseTimings& parse,
               const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "could not open %s for writing\n", path);
    return;
  }
  hdmm_bench::WriteJsonHeader(f, "bench_engine");
  std::fprintf(f,
               "  \"plan\": {\"cold_s\": %.6f, \"warm_disk_s\": %.6f, "
               "\"warm_mem_s\": %.9f, \"warm_disk_speedup\": %.1f, "
               "\"warm_mem_speedup\": %.1f},\n",
               plan.cold_s, plan.warm_disk_s, plan.warm_mem_s,
               plan.cold_s / plan.warm_disk_s, plan.cold_s / plan.warm_mem_s);
  std::fprintf(f,
               "  \"failpoints\": {\"disabled_check_ns\": %.4f, "
               "\"armed_other_check_ns\": %.4f, \"warm_mem_armed_s\": %.9f, "
               "\"overhead_pct_bound\": %.6f},\n",
               fp.disabled_check_ns, fp.armed_other_check_ns,
               fp.warm_mem_armed_s, fp.overhead_pct_bound);
  std::fprintf(f,
               "  \"metrics_overhead\": {\"disabled_add_ns\": %.4f, "
               "\"enabled_add_ns\": %.4f, \"hist_record_ns\": %.4f, "
               "\"overhead_pct_bound\": %.6f},\n",
               mt.disabled_add_ns, mt.enabled_add_ns, mt.hist_record_ns,
               mt.overhead_pct_bound);
  std::fprintf(f,
               "  \"batch\": {\"num_queries\": %lld, \"one_at_a_time_s\": "
               "%.6f, \"batched_s\": %.6f, \"throughput_speedup\": %.1f, "
               "\"batched_qps\": %.0f, \"max_abs_diff\": %.3g},\n",
               static_cast<long long>(batch.num_queries),
               batch.one_at_a_time_s, batch.batched_s,
               batch.one_at_a_time_s / batch.batched_s,
               static_cast<double>(batch.num_queries) / batch.batched_s,
               batch.max_abs_diff);
  std::fprintf(f,
               "  \"governor\": {\"touch_ns\": %.4f, "
               "\"admit_release_us\": %.4f, "
               "\"overhead_pct_bound\": %.6f},\n",
               gov.touch_ns, gov.admit_release_us, gov.overhead_pct_bound);
  std::fprintf(f,
               "  \"queries\": {\"lines\": %lld, "
               "\"parse_ns_per_line\": %.1f},\n",
               static_cast<long long>(parse.lines), parse.ns_per_line);
  // Live registry snapshot: the cache_hits/misses/quarantine counters CI
  // asserts on come from the same metrics the serving tier reports, not
  // from bench-local bookkeeping.
  hdmm_bench::WriteMetricsSection(f, /*trailing_comma=*/false);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = hdmm_bench::FullScale(argc, argv);
  UnionWorkload w = CensusWorkload(full);

  std::printf("=== serving engine: plan latency ===\n");
  std::printf("(census-style workload, %s domain, N=%lld)\n",
              w.domain().ToString().c_str(),
              static_cast<long long>(w.DomainSize()));
  const PlanTimings plan = BenchPlan(w, "bench_engine_cache");

  std::printf("\n=== serving engine: failpoint overhead ===\n");
  const FailpointTimings fp =
      BenchFailpoints(w, "bench_engine_cache", plan.warm_mem_s);

  std::printf("\n=== serving engine: metrics overhead ===\n");
  const MetricsTimings mt = BenchMetrics(plan.warm_mem_s);

  const int64_t num_queries = full ? 100000 : 10000;
  std::printf("\n=== serving engine: batched answering (%lld queries) ===\n",
              static_cast<long long>(num_queries));
  const BatchTimings batch = BenchBatch(w.domain(), num_queries);

  std::printf("\n=== serving engine: governor overhead ===\n");
  const GovernorTimings gov = BenchGovernor(batch);

  std::printf("\n=== serving engine: query-line parsing ===\n");
  const ParseTimings parse = BenchParse();

  WriteJson(plan, fp, mt, batch, gov, parse, "BENCH_engine.json");
  return 0;
}
