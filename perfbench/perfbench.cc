// perfbench: the repository's end-to-end benchmark. One process runs one
// workload as a closed loop with one client against the public Engine API,
// prints every end-to-end metric with its unit, checks that every output is
// correct, and ends with one JSON result line.
//
//   perfbench --workload plan_cold|serve_mem --seed N
//             --seconds S --trace 0|1 [--threads T] [--out DIR]
//             [--inputs-only]
//
// Workloads (see README.md for why each was chosen):
//   plan_cold     a stream of distinct workloads over the CPS, Adult and
//                 census schemas, each planned on an empty strategy cache.
//   serve_mem     fixed-size text query batches against one materialized
//                 in-memory CPS session measured with a 2-way marginals plan.
//                 After its timed loop it runs the governed out-of-core path
//                 (MmapRound), which feeds checks and per-layer metrics only.
//
// The end-to-end metrics are the same on every workload: set-up time, the
// latency and rate of the workload's own request (a cold plan, or a query
// batch), the plans' error against Identity, and peak RSS.
//
// --trace 1 runs the same loop twice on the same inputs: first untraced, then
// with the calls into each layer replayed through public functions inside
// LayerSpans (a Chrome trace is written to DIR/trace.json). It reports the
// per-layer metrics, and the difference between the two halves as the
// tracing overhead.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "common/trace.h"
#include "core/diagnostics.h"
#include "core/gram_cache.h"
#include "core/hdmm.h"
#include "engine/engine.h"
#include "engine/fingerprint.h"
#include "inputs.h"
#include "layers.h"
#include "workload/building_blocks.h"
#include "workload/parser.h"

namespace perfbench {
namespace {

using namespace hdmm;

// ------------------------------------------------------------------ sizes --

constexpr int kSetupReps = 5;             // setup_s is their median.
constexpr int kRatioPlans = 48;           // plans in plan_rmse_ratio.
constexpr int kServeBatchSize = 256;
constexpr int kServeCovered = 128;        // Half of each serve batch.
constexpr int kServePool = 256;
constexpr int kServeCheckEvery = 64;      // Batches between sampled checks.
constexpr int kMmapBatchSize = 64;
constexpr int kMmapPool = 64;
constexpr int kMmapBatchesPerSession = 4;  // On the new and the oldest session.
constexpr size_t kMaxLiveSessions = 6;  // The last cycle's five, plus the new one.
constexpr int kCheckQueries = 4;          // Sampled queries per checked batch.
constexpr double kEpsilon = 0.5;          // Laplace budget per measurement.
constexpr uint64_t kParityNoiseSeed = 20180601;

// The mmap round's plans: Kron over 65,536 cells, marginals over 524,288
// cells, and a three-product union-Kron over 8,192 cells whose LSMR
// reconstruction takes about a second. One cycle measures them in the order
// kMmapCycle.
const char* const kMmapSpecs[3] = {
    "domain a=32 b=16 c=16 d=8\nproduct a=prefix b=identity c=identity\n",
    "domain a=64 b=32 c=16 d=16\nmarginals k=2\n",
    "domain a=16 b=16 c=8 d=4\nproduct a=allrange b=prefix\n"
    "product c=identity d=identity\nproduct b=width(4) d=identity\n"};
const char* const kMmapDatasets[3] = {"kron", "marginals", "union"};
constexpr int kMmapCycle[5] = {0, 1, 1, 1, 2};
constexpr int kMmapCycles = 2;
constexpr int64_t kTileBytes = 32 << 10;
constexpr int64_t kHotTileBudget = 64 << 10;  // An eighth of the Kron SAT.
// Every Kron and marginals session would charge at least 1 MiB in memory,
// so each one is degraded to mmap (128 KiB; a hibernated Kron session 72
// KiB); union-Kron sessions stay in memory (128 KiB). Six live sessions
// (one cycle plus the new one) exceed the budget until the one Kron session
// among them is hibernated; nothing is ever refused.
constexpr int64_t kGovernorBytes = 736 << 10;

// Input-stream tags (inputs.h Stream).
enum Tag : uint64_t {
  kTagPlanCold = 1,
  kTagServeQueries,
  kTagMmapQueries,
  kTagData,
  kTagNoise,
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int threads = 0;
  std::string out = ".bench_out/run";
  bool inputs_only = false;
};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

UnionWorkload Parse(const std::string& spec) {
  UnionWorkload w;
  std::string error;
  if (!ParseWorkload(spec, &w, &error)) {
    Die("generated workload does not parse: " + error + "\n" + spec);
  }
  return w;
}

uint64_t CounterValue(const char* name) {
  return Metrics::GetCounter(name)->Value();
}

using Batch = std::vector<std::string>;

// ----------------------------------------------------------------- inputs --

// Everything the library will see, generated from the seed.
struct Inputs {
  std::vector<std::string> plan_specs;  // plan_cold: the first kRatioPlans.
  Vector serve_x;
  std::vector<Batch> serve_batches;
  std::vector<Vector> mmap_x;                    // serve_mem's mmap round,
  std::vector<std::vector<Batch>> mmap_batches;  // per plan kind.
  uint64_t hash = 0;
};

std::vector<Batch> Batches(const Domain& domain, uint64_t seed, uint64_t tag,
                           int count, int size, int covered) {
  std::vector<Batch> batches;
  for (int b = 0; b < count; ++b) {
    batches.push_back(QueryBatch(domain, seed, tag, b, size, covered));
  }
  return batches;
}

Inputs GenerateInputs(const std::string& workload, uint64_t seed) {
  Inputs in;
  InputHash hash;
  if (workload == "plan_cold") {
    PlanSpecStream specs(seed, kTagPlanCold,
                         {kCpsDomain, kAdultDomain, kCensusDomain});
    for (int i = 0; i < kRatioPlans; ++i) in.plan_specs.push_back(specs.Next());
    hash.Add(in.plan_specs);
  } else if (workload == "serve_mem") {
    const Domain cps = Parse(std::string(kCpsDomain) + "\nmarginals k=2\n").domain();
    in.serve_x = SyntheticCounts(cps, seed ^ (kTagData + 1));
    in.serve_batches = Batches(cps, seed, kTagServeQueries, kServePool,
                               kServeBatchSize, kServeCovered);
    hash.Add(in.serve_x);
    for (const Batch& b : in.serve_batches) hash.Add(b);
    for (int k = 0; k < 3; ++k) {
      const Domain domain = Parse(kMmapSpecs[k]).domain();
      in.mmap_x.push_back(SyntheticCounts(domain, seed ^ (kTagData + 2 + k)));
      in.mmap_batches.push_back(Batches(domain, seed, kTagMmapQueries + 16 * k,
                                        kMmapPool, kMmapBatchSize,
                                        kMmapBatchSize / 2));
      hash.Add(in.mmap_x.back());
      for (const Batch& b : in.mmap_batches.back()) hash.Add(b);
    }
  } else {
    Die("unknown workload '" + workload +
        "' (want plan_cold | serve_mem)");
  }
  in.hash = hash.value();
  return in;
}

// -------------------------------------------------------------- run state --

struct Tally {
  double sum = 0.0;
  int64_t n = 0;
};

// One pass of a workload's loop: the latency of each of its requests, its
// failures and, when traced, the per-layer tallies.
struct Run {
  Samples request_s;
  std::vector<double> log_ratios;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, Tally> tally;

  void Add(const std::string& key, double value) {
    Tally& t = tally[key];
    t.sum += value;
    ++t.n;
  }
  double Sum(const std::string& key) const {
    auto it = tally.find(key);
    return it == tally.end() ? 0.0 : it->second.sum;
  }
  int64_t Count(const std::string& key) const {
    auto it = tally.find(key);
    return it == tally.end() ? 0 : it->second.n;
  }
  void Fail(const std::string& what) {
    if (failed < 10) std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
    ++failed;
  }
};

// An engine plus the charges the benchmark expects its accountant to hold.
struct Service {
  std::unique_ptr<Engine> engine;
  std::map<std::string, std::pair<double, int64_t>> charged;  // eps, count.
};

// A live session with its in-memory twin (traced runs of mmap sessions: the
// same release on the memory backend, for the tile-fault cost).
struct Live {
  std::unique_ptr<MeasurementSession> session;
  std::unique_ptr<MeasurementSession> twin;
  const std::vector<Batch>* batches = nullptr;
};

struct Context {
  Args args;
  int64_t unique = 0;
  std::string Fresh(const std::string& name) {
    return args.out + "/" + name + "-" + std::to_string(unique++);
  }
};

// ------------------------------------------------------------ correctness --

double IdentityError(const UnionWorkload& w) {
  std::vector<Matrix> factors;
  for (int i = 0; i < w.domain().NumAttributes(); ++i) {
    factors.push_back(IdentityBlock(w.domain().AttributeSize(i)));
  }
  return KronStrategy(std::move(factors), "identity").SquaredError(w);
}

// Every plan must support its workload and have a finite expected error;
// returns the RMSE ratio against the Identity strategy (0 on failure).
double CheckPlan(const Strategy& strategy, const UnionWorkload& w) {
  const double error = strategy.SquaredError(w);
  if (!std::isfinite(error) || error <= 0.0 || !SupportsWorkload(strategy, w)) {
    return 0.0;
  }
  const double ratio = std::sqrt(error / IdentityError(w));
  return std::isfinite(ratio) ? ratio : 0.0;
}

bool Constrained(const Domain& d, const BoxQuery& q, int i) {
  return q.lo[static_cast<size_t>(i)] != 0 ||
         q.hi[static_cast<size_t>(i)] != d.AttributeSize(i) - 1;
}

// Sum of `x` (row-major over `sizes`) over the box [lo, hi]; *mass gets the
// sum of absolute values.
double BoxSum(const std::vector<int64_t>& sizes, const double* x,
              const std::vector<int64_t>& lo, const std::vector<int64_t>& hi,
              double* mass) {
  const size_t k = sizes.size();
  std::vector<int64_t> stride(k, 1);
  for (size_t i = k; i-- > 1;) stride[i - 1] = stride[i] * sizes[i];
  std::vector<int64_t> c = lo;
  double total = 0.0;
  *mass = 0.0;
  while (true) {
    int64_t index = 0;
    for (size_t i = 0; i < k; ++i) index += c[i] * stride[i];
    total += x[index];
    *mass += std::fabs(x[index]);
    size_t axis = k;
    while (axis > 0 && c[axis - 1] == hi[axis - 1]) {
      c[axis - 1] = lo[axis - 1];
      --axis;
    }
    if (axis == 0) return total;
    ++c[axis - 1];
  }
}

// Checks sampled answers: a query answered from a measured marginal table
// must equal the sum of a covering table over the query's sub-box; any
// other must equal the brute-force sum over XHat(). Tolerance: 1e-9 of the
// summed absolute mass, plus 1e-12 of the release's absolute mass for the
// summed-area table's cancellation.
bool CheckAnswers(const MeasurementSession& session,
                  const std::vector<BoxQuery>& queries, const Vector& answers) {
  if (answers.size() != queries.size()) return false;
  const Domain& d = session.domain();
  const int n = static_cast<int>(queries.size());
  for (int s = 0; s < kCheckQueries && s < n; ++s) {
    const size_t i = static_cast<size_t>(s * n / kCheckQueries);
    const BoxQuery& q = queries[i];
    if (session.CoveredByMarginal(q)) {
      bool matched = false;
      for (const MeasuredMarginal& t : session.marginal_tables()) {
        std::vector<int64_t> sizes, lo, hi;
        bool covers = true;
        for (int a = 0; a < d.NumAttributes(); ++a) {
          const bool kept = (t.mask >> a) & 1u;
          if (!kept && Constrained(d, q, a)) covers = false;
          if (kept) {
            sizes.push_back(d.AttributeSize(a));
            lo.push_back(q.lo[static_cast<size_t>(a)]);
            hi.push_back(q.hi[static_cast<size_t>(a)]);
          }
        }
        if (!covers) continue;
        double mass = 0.0;
        const double want = BoxSum(sizes, t.values.data(), lo, hi, &mass);
        if (std::fabs(answers[i] - want) <= 1e-9 * std::max(mass, 1.0)) {
          matched = true;
        }
      }
      if (!matched) return false;
    } else {
      const Vector& x = session.XHat();
      double all = 0.0;
      for (double v : x) all += std::fabs(v);
      double mass = 0.0;
      const double want = BoxSum(d.sizes(), x.data(), q.lo, q.hi, &mass);
      if (std::fabs(answers[i] - want) > 1e-9 * std::max(mass, 1.0) + 1e-12 * all) {
        return false;
      }
    }
  }
  return true;
}

void CheckLedger(Service& service, Run* run) {
  for (const auto& [dataset, expect] : service.charged) {
    ++run->attempted;
    const BudgetAccountant& accountant = service.engine->accountant();
    const double spent = accountant.Spent(dataset);
    if (std::fabs(spent - expect.first) > 1e-9 * expect.first ||
        accountant.NumCharges(dataset) != expect.second) {
      run->Fail("accountant spend on '" + dataset + "' is " +
                std::to_string(spent) + ", admitted charges sum to " +
                std::to_string(expect.first));
    }
  }
}

// ------------------------------------------------------------- operations --

const char* TierName(StrategyCache::Tier tier) {
  switch (tier) {
    case StrategyCache::Tier::kMemory:
      return "memory";
    case StrategyCache::Tier::kDisk:
      return "disk";
    case StrategyCache::Tier::kMiss:
      return "miss";
  }
  return "miss";
}

// Engine::Plan's sequence through public functions, one span per layer.
std::shared_ptr<const Strategy> ReplayPlan(Engine& engine, const UnionWorkload& w,
                                           Run* run) {
  LayerSpan op("plan");
  const HdmmOptions& options = engine.options().optimizer;
  Fingerprint fp;
  {
    LayerSpan span("engine.fingerprint");
    fp = FingerprintPlan(w, options);
  }
  StrategyCache::Tier tier = StrategyCache::Tier::kMiss;
  std::shared_ptr<const Strategy> strategy;
  {
    WallTimer timer;
    LayerSpan span("engine.strategy_cache.get");
    strategy = engine.cache().Get(fp, &tier);
    run->Add(std::string("get_s.") + TierName(tier), timer.Seconds());
  }
  if (strategy != nullptr && strategy->DomainSize() == w.DomainSize()) {
    return strategy;
  }
  const uint64_t evals = CounterValue("optimizer.evals");
  const uint64_t restarts = CounterValue("optimizer.restarts");
  const GramCache::Stats gram = GramCache::Global().stats();
  HdmmResult result;
  {
    LayerSpan span("core.optimize");
    result = OptimizeStrategy(w, options);
  }
  const GramCache::Stats gram_after = GramCache::Global().stats();
  run->Add("plans.cold", 1.0);
  run->Add("optimize.evals", static_cast<double>(CounterValue("optimizer.evals") - evals));
  run->Add("optimize.restarts",
           static_cast<double>(CounterValue("optimizer.restarts") - restarts));
  run->Add("gram.hits", static_cast<double>(gram_after.hits - gram.hits));
  run->Add("gram.misses", static_cast<double>(gram_after.misses - gram.misses));
  run->Add("gram.closed_form",
           static_cast<double>(gram_after.closed_form - gram.closed_form));
  strategy = std::shared_ptr<const Strategy>(std::move(result.strategy));
  {
    LayerSpan span("engine.strategy_cache.put");
    const Status put = engine.cache().Put(fp, strategy);
    if (!put.ok()) run->Fail("strategy cache put: " + put.ToString());
  }
  return strategy;
}

// Attribution probes after a traced cold plan: the disk tier on a new cache
// over the plan's directory (a warm restart), and one timed call per
// operator entry of OPT_HDMM.
void PlanProbes(const UnionWorkload& w, const EngineOptions& options,
                Run* run) {
  StrategyCache disk(options.cache);
  StrategyCache::Tier tier = StrategyCache::Tier::kMiss;
  const Fingerprint fp = FingerprintPlan(w, options.optimizer);
  WallTimer timer;
  disk.Get(fp, &tier);
  run->Add(std::string("get_s.") + TierName(tier), timer.Seconds());

  const HdmmOptions& o = options.optimizer;
  Rng rng(o.seed);
  timer.Restart();
  OptKron(w, o.kron, &rng);
  run->Add("operator.kron", timer.Seconds());
  if (PartitionBySignature(w, o.union_opts.max_groups).size() > 1) {
    timer.Restart();
    OptUnion(w, o.union_opts, &rng);
    run->Add("operator.union", timer.Seconds());
  }
  if (w.domain().NumAttributes() <= o.max_marginals_dims) {
    timer.Restart();
    OptMarginals(w, o.marginals, &rng);
    run->Add("operator.marginals", timer.Seconds());
  }
}

// One cold plan: a fresh engine over an empty disk-cache directory, so Plan
// is a strategy-cache miss. The strategy is checked after the timer stops.
void ColdPlan(Context& ctx, const UnionWorkload& w, Run* run, bool ratio) {
  ++run->attempted;
  EngineOptions options;
  options.cache.disk_dir = ctx.Fresh("plan-cache");
  std::shared_ptr<const Strategy> strategy;
  {
    Engine engine(options);
    WallTimer timer;
    strategy = LayerSpan::Enabled() ? ReplayPlan(engine, w, run)
                                    : engine.Plan(w).strategy;
    run->request_s.Add(timer.Seconds());
  }
  if (LayerSpan::Enabled()) PlanProbes(w, options, run);
  std::filesystem::remove_all(options.cache.disk_dir);
  const double r = CheckPlan(*strategy, w);
  if (r <= 0.0) {
    run->Fail("plan does not support its workload or has no finite error");
  } else if (ratio) {
    run->log_ratios.push_back(std::log(r));
  }
}

const char* ReconstructSpan(const Strategy& strategy) {
  if (dynamic_cast<const KronStrategy*>(&strategy) != nullptr) {
    return "core.reconstruct.kron";
  }
  if (dynamic_cast<const UnionKronStrategy*>(&strategy) != nullptr) {
    return "core.reconstruct.union_kron";
  }
  return "core.reconstruct.other";
}

// Engine::MeasureOr's sequence through public functions: admission, plan
// (a memory hit), ledger charge, noise, reconstruction, session build. When
// the admitted session is mmap-backed, *twin_input receives a copy of the
// release (y for marginals plans, x_hat otherwise) for the in-memory twin.
StatusOr<std::unique_ptr<MeasurementSession>> ReplayMeasure(
    Engine& engine, const UnionWorkload& w, const std::string& dataset,
    const Vector& x, Rng* rng, Run* run, Vector* twin_input) {
  LayerSpan op("measure");
  const PrivacyCharge charge = PrivacyCharge::Laplace(kEpsilon);
  SessionStorageOptions storage = engine.options().session_storage;
  AdmissionTicket ticket;
  if (ResourceGovernor* governor = engine.governor()) {
    LayerSpan span("engine.governor.admit");
    StatusOr<AdmissionTicket> admitted = governor->Admit(w.DomainSize(), &storage);
    if (!admitted.ok()) return admitted.status();
    ticket = std::move(admitted).value();
  }
  if (storage.backend == SessionStorage::kMmap && !storage.dir.empty()) {
    static int64_t replayed = 0;
    storage.dir += "/replay-" + std::to_string(replayed++);
  }
  const bool keep = storage.backend == SessionStorage::kMmap;
  const std::shared_ptr<const Strategy> strategy = ReplayPlan(engine, w, run);
  {
    LayerSpan span("engine.accountant.charge");
    const Status charged = engine.accountant().Charge(dataset, charge);
    if (!charged.ok()) return charged;
  }
  Vector y;
  {
    LayerSpan span("core.noise");
    y = strategy->Measure(x, kEpsilon, rng);
  }
  std::unique_ptr<MeasurementSession> session;
  if (auto marginals = std::dynamic_pointer_cast<const MarginalsStrategy>(strategy)) {
    if (keep) *twin_input = y;
    LayerSpan span("engine.session.build");
    session = std::make_unique<MeasurementSession>(w.domain(), marginals,
                                                   std::move(y), charge, storage);
  } else {
    Vector x_hat;
    {
      LayerSpan span(ReconstructSpan(*strategy));
      x_hat = strategy->Reconstruct(y);
    }
    if (keep) *twin_input = x_hat;
    LayerSpan span("engine.session.build");
    session = std::make_unique<MeasurementSession>(w.domain(), std::move(x_hat),
                                                   charge, strategy, storage);
  }
  session->AttachTicket(std::move(ticket));
  return session;
}

// One measurement request (Laplace, kEpsilon). Traced runs replay it and,
// for mmap sessions, then build the in-memory twin.
Live Measure(Service& service, const UnionWorkload& w, const std::string& dataset,
             const Vector& x, Rng* rng, Run* run) {
  ++run->attempted;
  Live live;
  const bool traced = LayerSpan::Enabled();
  const uint64_t writes = CounterValue("tile_store.writes");
  Vector twin_input;
  if (traced && service.engine->governor() != nullptr) {
    run->Add("governed_measures", 1.0);
  }
  StatusOr<std::unique_ptr<MeasurementSession>> session =
      traced ? ReplayMeasure(*service.engine, w, dataset, x, rng, run, &twin_input)
             : service.engine->MeasureOr(w, dataset, x,
                                         MeasureRequest::Laplace(kEpsilon), rng);
  if (!session.ok()) {
    run->Fail("measure refused: " + session.status().ToString());
    return live;
  }
  auto& charged = service.charged[dataset];
  charged.first += kEpsilon;
  ++charged.second;
  live.session = std::move(session).value();
  if (!traced) return live;

  run->Add("tile.writes", static_cast<double>(CounterValue("tile_store.writes") - writes));
  if (twin_input.empty()) return live;
  const PrivacyCharge charge = PrivacyCharge::Laplace(kEpsilon);
  const std::shared_ptr<const Strategy>& strategy = live.session->strategy();
  if (auto marginals = std::dynamic_pointer_cast<const MarginalsStrategy>(strategy)) {
    if (run->Count("marginals.reconstructed") == 0) {  // Seconds at this size.
      run->Add("marginals.reconstructed", 1.0);
      LayerSpan span("core.reconstruct.marginals");
      marginals->Reconstruct(twin_input);
    }
    live.twin = std::make_unique<MeasurementSession>(w.domain(), marginals,
                                                     std::move(twin_input), charge);
  } else {
    live.twin = std::make_unique<MeasurementSession>(
        w.domain(), std::move(twin_input), charge, strategy);
  }
  return live;
}

// Which answer path a query takes: a proper (lower-order) covering marginal
// table, only the full-domain marginal table, or the summed-area table.
enum AnswerPath { kTablePath, kFullTablePath, kSatPath };
const char* const kPathNames[] = {"table", "full_table", "sat"};

AnswerPath PathOf(const MeasurementSession& session, const BoxQuery& q) {
  if (!session.CoveredByMarginal(q)) return kSatPath;
  const Domain& d = session.domain();
  const uint32_t full = (1u << d.NumAttributes()) - 1;
  uint32_t constrained = 0;
  for (int a = 0; a < d.NumAttributes(); ++a) {
    if (Constrained(d, q, a)) constrained |= 1u << a;
  }
  for (const MeasuredMarginal& t : session.marginal_tables()) {
    if (t.mask != full && (constrained & ~t.mask) == 0) return kTablePath;
  }
  return kFullTablePath;
}

// Traced-only probes after an answer. On an in-memory session: one sub-batch
// per answer path (cost per query of each path). On an mmap session with a
// twin: the same batch on the twin, whose difference is the tile-fault cost.
void AnswerProbes(const MeasurementSession& session, const MeasurementSession* twin,
                  const std::vector<BoxQuery>& queries, double answer_s,
                  uint64_t faults, Run* run) {
  if (session.storage().backend == SessionStorage::kMmap) {
    run->Add("mmap.queries", static_cast<double>(queries.size()));
    if (twin != nullptr && faults > 0) {
      WallTimer timer;
      twin->AnswerBatch(queries);
      run->Add("fault.extra_s", answer_s - timer.Seconds());
      run->Add("fault.count", static_cast<double>(faults));
    }
    return;
  }
  std::vector<BoxQuery> paths[3];
  for (const BoxQuery& q : queries) paths[PathOf(session, q)].push_back(q);
  WallTimer timer;
  for (int p = 0; p < 3; ++p) {
    if (paths[p].empty()) continue;
    timer.Restart();
    session.AnswerBatch(paths[p]);
    run->Add(std::string(kPathNames[p]) + ".seconds", timer.Seconds());
    run->Add(std::string(kPathNames[p]) + ".queries", static_cast<double>(paths[p].size()));
  }
}

// One answer request: parse a batch of query lines, then AnswerBatch.
void Answer(const MeasurementSession& session, const MeasurementSession* twin,
            const Batch& lines, Samples* request_s, Run* run, bool check) {
  ++run->attempted;
  const bool traced = LayerSpan::Enabled();
  uint64_t before[4] = {};
  const char* const counters[4] = {"tile_store.faults", "tile_store.hits",
                                   "thread_pool.tasks", "thread_pool.steals"};
  if (traced) {
    for (int c = 0; c < 4; ++c) before[c] = CounterValue(counters[c]);
  }
  std::vector<BoxQuery> queries(lines.size());
  Vector answers;
  bool parsed = true;
  double batch_s = 0.0;  // AnswerBatch alone, for the tile-fault probe.
  WallTimer timer;
  {
    LayerSpan op("answer");
    {
      LayerSpan span("workload.parse_query");
      std::string error;
      for (size_t i = 0; i < lines.size(); ++i) {
        parsed = ParseQueryLine(lines[i], session.domain(), &queries[i], &error) && parsed;
      }
    }
    if (parsed) {
      LayerSpan span("engine.session.answer");
      WallTimer batch_timer;
      answers = session.AnswerBatch(queries);
      batch_s = batch_timer.Seconds();
    }
  }
  const double seconds = timer.Seconds();
  if (!parsed) {
    run->Fail("a generated query line does not parse");
    return;
  }
  request_s->Add(seconds);
  if (traced) {
    const uint64_t faults = CounterValue(counters[0]) - before[0];
    run->Add("queries", static_cast<double>(lines.size()));
    run->Add("tile.faults", static_cast<double>(faults));
    run->Add("tile.hits", static_cast<double>(CounterValue(counters[1]) - before[1]));
    run->Add("pool.tasks", static_cast<double>(CounterValue(counters[2]) - before[2]));
    run->Add("pool.steals", static_cast<double>(CounterValue(counters[3]) - before[3]));
    AnswerProbes(session, twin, queries, batch_s, faults, run);
  }
  if (check && !CheckAnswers(session, queries, answers)) {
    run->Fail("sampled answers disagree with the release");
  }
}

// ---------------------------------------------------------------- fixture --

struct MmapKind {
  UnionWorkload workload;
  std::string dataset;
  const Vector* x = nullptr;
};

// Everything set-up builds before timing starts.
struct Fixture {
  Inputs in;
  // serve_mem
  Service serve;
  std::unique_ptr<MeasurementSession> session;
  double materialize_s = 0.0;
  double plan_rmse_ratio = 0.0;
};

Service MakeService(EngineOptions options) {
  options.total_epsilon = 1e9;  // Budget never binds; only the ledger is checked.
  Service service;
  service.engine = std::make_unique<Engine>(std::move(options));
  return service;
}

std::unique_ptr<Fixture> Setup(Context& ctx) {
  const std::string& workload = ctx.args.workload;
  const uint64_t seed = ctx.args.seed;
  auto fx = std::make_unique<Fixture>();
  fx->in = GenerateInputs(workload, seed);

  if (workload == "plan_cold") {
    // Validate the head of the stream through the parser.
    for (const std::string& spec : fx->in.plan_specs) Parse(spec);
  } else if (workload == "serve_mem") {
    fx->serve = MakeService(EngineOptions());
    const UnionWorkload w = Parse(std::string(kCpsDomain) + "\nmarginals k=2\n");
    Rng noise(seed ^ kTagNoise);
    StatusOr<std::unique_ptr<MeasurementSession>> session =
        fx->serve.engine->MeasureOr(w, "cps", fx->in.serve_x,
                                    MeasureRequest::Laplace(kEpsilon), &noise);
    if (!session.ok()) Die("serve_mem set-up measure: " + session.status().ToString());
    fx->serve.charged["cps"] = {kEpsilon, 1};
    fx->session = std::move(session).value();
    fx->plan_rmse_ratio = CheckPlan(*fx->session->strategy(), w);
    if (fx->plan_rmse_ratio <= 0.0) Die("serve_mem's plan does not support its workload");
    // Lazy materialization (x_hat and the summed-area table), which an
    // uncovered query or XHat() triggers. OPT_M keeps the full marginal
    // active, so every query here is covered; XHat() forces it.
    WallTimer timer;
    fx->session->XHat();
    fx->materialize_s = timer.Seconds();
  }
  return fx;
}

// Memory and mmap sessions over one release must give memcmp-identical
// answers. Run for the Kron and marginals plans (the sessions the governor
// moves to mmap) with a fixed noise seed.
void CheckParity(Context& ctx, const Inputs& in, const std::vector<MmapKind>& kinds,
                 Engine& engine, Run* run) {
  for (size_t k = 0; k < 2; ++k) {
    ++run->attempted;
    const MmapKind& kind = kinds[k];
    const std::shared_ptr<const Strategy> strategy = engine.Plan(kind.workload).strategy;
    Rng rng(kParityNoiseSeed);
    Vector y = strategy->Measure(*kind.x, kEpsilon, &rng);
    const PrivacyCharge charge = PrivacyCharge::Laplace(kEpsilon);
    SessionStorageOptions mmap;
    mmap.backend = SessionStorage::kMmap;
    mmap.dir = ctx.Fresh("parity");
    mmap.tile_bytes = kTileBytes;
    mmap.hot_tile_budget = kHotTileBudget;
    std::unique_ptr<MeasurementSession> memory_session, mmap_session;
    const Domain& domain = kind.workload.domain();
    if (auto marginals = std::dynamic_pointer_cast<const MarginalsStrategy>(strategy)) {
      memory_session = std::make_unique<MeasurementSession>(domain, marginals, y, charge);
      mmap_session = std::make_unique<MeasurementSession>(domain, marginals, y, charge, mmap);
    } else {
      Vector x_hat = strategy->Reconstruct(y);
      memory_session = std::make_unique<MeasurementSession>(domain, x_hat, charge, strategy);
      mmap_session = std::make_unique<MeasurementSession>(domain, std::move(x_hat), charge,
                                                          strategy, mmap);
    }
    std::vector<BoxQuery> queries;
    for (const std::string& line : in.mmap_batches[k][0]) {
      BoxQuery q;
      std::string error;
      if (ParseQueryLine(line, domain, &q, &error)) queries.push_back(q);
    }
    const Vector a = memory_session->AnswerBatch(queries);
    const Vector b = mmap_session->AnswerBatch(queries);
    if (a.size() != b.size() ||
        std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) != 0) {
      run->Fail("mmap and memory sessions give different answers");
    }
  }
}

// The governed, out-of-core write-beside-read path: kMmapCycles cycles of
// measurements under a governor that degrades them to mmap sessions and
// hibernates the older Kron session, with a durable ledger; each is followed
// by batches on the new session interleaved with batches on the oldest live
// one. Then the ledger and memory-vs-mmap parity checks. serve_mem runs it
// after its timed loop, so it adds checks to every run and per-layer
// numbers to the traced run, but no end-to-end samples.
void MmapRound(Context& ctx, const Inputs& in, Run* run) {
  EngineOptions options;
  options.ledger_path = ctx.Fresh("ledger");
  options.session_storage.dir = ctx.Fresh("sessions");
  options.session_storage.tile_bytes = kTileBytes;
  options.session_storage.hot_tile_budget = kHotTileBudget;
  options.governor.memory_budget_bytes = kGovernorBytes;
  Service service = MakeService(options);
  std::vector<MmapKind> kinds;
  for (size_t k = 0; k < 3; ++k) {
    MmapKind kind;
    kind.workload = Parse(kMmapSpecs[k]);
    kind.dataset = kMmapDatasets[k];
    kind.x = &in.mmap_x[k];
    if (LayerSpan::Enabled()) {
      ReplayPlan(*service.engine, kind.workload, run);
    } else {
      service.engine->Plan(kind.workload);
    }
    kinds.push_back(std::move(kind));
  }
  Rng noise(ctx.args.seed ^ kTagNoise);
  Samples answer_s;  // Discarded: no end-to-end metric reads the round.
  {
    std::deque<Live> ring;
    for (int i = 0; i < kMmapCycles * 5; ++i) {
      const size_t k = static_cast<size_t>(kMmapCycle[i % 5]);
      const MmapKind& kind = kinds[k];
      if (ring.size() >= kMaxLiveSessions) ring.pop_front();
      Live live = Measure(service, kind.workload, kind.dataset, *kind.x, &noise, run);
      if (live.session == nullptr) continue;
      live.batches = &in.mmap_batches[k];
      for (int j = 0; j < kMmapBatchesPerSession; ++j) {
        const size_t b = static_cast<size_t>((i * kMmapBatchesPerSession + j) % kMmapPool);
        Answer(*live.session, live.twin.get(), (*live.batches)[b], &answer_s, run, j == 0);
        if (!ring.empty()) {
          const Live& old = ring.front();
          Answer(*old.session, old.twin.get(), (*old.batches)[(b + 1) % kMmapPool],
                 &answer_s, run, false);
        }
      }
      ring.push_back(std::move(live));
    }
  }
  CheckLedger(service, run);
  CheckParity(ctx, in, kinds, *service.engine, run);
}

// ------------------------------------------------------------------ loops --

// One pass of the workload: its closed loop for `seconds` (and at least
// `min_items` requests).
void Loop(Context& ctx, Fixture& fx, Run* run, double seconds, int64_t min_items) {
  const std::string& workload = ctx.args.workload;
  WallTimer clock;
  auto more = [&](int64_t i) { return clock.Seconds() < seconds || i < min_items; };
  if (workload == "plan_cold") {
    PlanSpecStream specs(ctx.args.seed, kTagPlanCold,
                         {kCpsDomain, kAdultDomain, kCensusDomain});
    for (int64_t i = 0; more(i); ++i) {
      ColdPlan(ctx, Parse(specs.Next()), run, i < kRatioPlans);
    }
  } else if (workload == "serve_mem") {
    for (int64_t i = 0; more(i); ++i) {
      Answer(*fx.session, nullptr, fx.in.serve_batches[static_cast<size_t>(i % kServePool)],
             &run->request_s, run, i % kServeCheckEvery == 0);
    }
  }
}

// ----------------------------------------------------------------- report --

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// The workload's request is a cold plan (plan_cold) or one query batch,
// parsed and answered (serve_mem).
std::vector<Metric> EndToEnd(const Run& run, const Samples& setup_s, const Fixture& fx) {
  double log_sum = 0.0;
  for (double l : run.log_ratios) log_sum += l;
  const double rmse_ratio = run.log_ratios.empty()
                                ? fx.plan_rmse_ratio
                                : std::exp(log_sum / static_cast<double>(run.log_ratios.size()));
  return {
      {"setup_s", setup_s.Quantile(0.5), "s"},
      {"request_ms_p50", 1e3 * run.request_s.Quantile(0.5), "ms"},
      {"request_ms_p90", 1e3 * run.request_s.Quantile(0.9), "ms"},
      {"requests_per_s", Ratio(static_cast<double>(run.request_s.size()), run.request_s.Sum()),
       "1/s"},
      {"plan_rmse_ratio", rmse_ratio, "ratio"},
      {"peak_rss_mb", PeakRssMb(), "MiB"},
  };
}

// Per-layer metrics of the traced half `traced`; `untraced` is the first
// half on the same inputs, for the overhead.
std::vector<Metric> PerLayer(const Run& untraced, const Run& traced,
                             const Fixture& fx,
                             const std::map<std::string, uint64_t>& counters) {
  const auto& spans = LayerSpan::Totals();
  auto span = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? SpanTotals() : it->second;
  };
  auto mean_self = [&](const char* name, double scale) {
    const SpanTotals t = span(name);
    return t.count == 0 ? 0.0 : scale * t.self_s / static_cast<double>(t.count);
  };
  auto per_call = [&](const std::string& key, double scale) {
    return Ratio(scale * traced.Sum(key), static_cast<double>(traced.Count(key)));
  };
  auto coverage = [&](const char* op) {
    const SpanTotals t = span(op);
    return Ratio(t.total_s - t.self_s, t.total_s);
  };
  auto delta = [&](const char* name) {
    return static_cast<double>(CounterValue(name) - counters.at(name));
  };
  const double cold_plans = traced.Sum("plans.cold");
  const double measures = traced.Sum("governed_measures");
  const double batches = static_cast<double>(traced.Count("queries"));
  const double operators = traced.Sum("operator.kron") + traced.Sum("operator.union") +
                           traced.Sum("operator.marginals");
  const double gram_lookups = traced.Sum("gram.hits") + traced.Sum("gram.misses");
  const double cache_hits =
      delta("strategy_cache.memory_hits") + delta("strategy_cache.disk_hits");
  const double cache_lookups = cache_hits + delta("strategy_cache.misses");
  const double tile_reads = traced.Sum("tile.hits") + traced.Sum("tile.faults");

  // Overhead: the traced half against the untraced half over the requests
  // both halves completed (the same inputs in the same order).
  double base = 0.0, with_spans = 0.0;
  const auto pair = [&](const Samples& a, const Samples& b) {
    const size_t n = std::min(a.size(), b.size());
    base += a.PrefixSum(n);
    with_spans += b.PrefixSum(n);
  };
  pair(untraced.request_s, traced.request_s);

  return {
      {"workload.parse_query_us",
       Ratio(1e6 * span("workload.parse_query").total_s, traced.Sum("queries")), "us"},
      {"engine.fingerprint_us", mean_self("engine.fingerprint", 1e6), "us"},
      {"strategy_cache.get_us.memory", per_call("get_s.memory", 1e6), "us"},
      {"strategy_cache.get_us.disk", per_call("get_s.disk", 1e6), "us"},
      {"strategy_cache.get_us.miss", per_call("get_s.miss", 1e6), "us"},
      {"strategy_cache.put_ms", mean_self("engine.strategy_cache.put", 1e3), "ms"},
      {"strategy_cache.hit_rate", Ratio(cache_hits, cache_lookups), "ratio"},
      {"core.optimize_s", mean_self("core.optimize", 1.0), "s"},
      {"core.operator_share.kron", Ratio(traced.Sum("operator.kron"), operators), "ratio"},
      {"core.operator_share.union", Ratio(traced.Sum("operator.union"), operators), "ratio"},
      {"core.operator_share.marginals", Ratio(traced.Sum("operator.marginals"), operators),
       "ratio"},
      {"gram_cache.hit_rate", Ratio(traced.Sum("gram.hits"), gram_lookups), "ratio"},
      {"gram_cache.closed_form", Ratio(traced.Sum("gram.closed_form"), cold_plans),
       "1/plan"},
      {"optimize.evals_per_plan", Ratio(traced.Sum("optimize.evals"), cold_plans), "1/plan"},
      {"optimize.restarts_per_plan", Ratio(traced.Sum("optimize.restarts"), cold_plans),
       "1/plan"},
      {"optimize.eval_us",
       Ratio(1e6 * span("core.optimize").self_s, traced.Sum("optimize.evals")), "us"},
      {"governor.admit_us", mean_self("engine.governor.admit", 1e6), "us"},
      {"governor.degraded_to_mmap", Ratio(delta("governor.degraded_to_mmap"), measures),
       "1/measure"},
      {"governor.hibernated", Ratio(delta("governor.hibernated"), measures), "1/measure"},
      {"governor.woken", Ratio(delta("governor.woken"), measures), "1/measure"},
      {"governor.refused", Ratio(delta("governor.refused"), measures), "1/measure"},
      {"accountant.charge_us", mean_self("engine.accountant.charge", 1e6), "us"},
      {"core.noise_ms", mean_self("core.noise", 1e3), "ms"},
      {"core.reconstruct_ms.kron", mean_self("core.reconstruct.kron", 1e3), "ms"},
      {"core.reconstruct_ms.marginals", mean_self("core.reconstruct.marginals", 1e3), "ms"},
      {"core.reconstruct_ms.union_kron", mean_self("core.reconstruct.union_kron", 1e3),
       "ms"},
      {"session.build_ms", mean_self("engine.session.build", 1e3), "ms"},
      {"session.materialize_ms", 1e3 * fx.materialize_s, "ms"},
      {"session.table_answer_ns",
       Ratio(1e9 * traced.Sum("table.seconds"), traced.Sum("table.queries")), "ns"},
      {"session.full_table_answer_ns",
       Ratio(1e9 * traced.Sum("full_table.seconds"), traced.Sum("full_table.queries")),
       "ns"},
      {"session.sat_answer_ns",
       Ratio(1e9 * traced.Sum("sat.seconds"), traced.Sum("sat.queries")), "ns"},
      {"tile_store.hit_rate", Ratio(traced.Sum("tile.hits"), tile_reads), "ratio"},
      {"tile_store.faults_per_query",
       Ratio(traced.Sum("tile.faults"), traced.Sum("mmap.queries")), "1/query"},
      {"tile_store.writes_per_measure", Ratio(traced.Sum("tile.writes"), measures),
       "1/measure"},
      {"tile_store.fault_us",
       Ratio(1e6 * traced.Sum("fault.extra_s"), traced.Sum("fault.count")), "us"},
      {"thread_pool.tasks_per_batch", Ratio(traced.Sum("pool.tasks"), batches), "1/batch"},
      {"thread_pool.steals_per_batch", Ratio(traced.Sum("pool.steals"), batches), "1/batch"},
      {"trace.coverage.plan", coverage("plan"), "ratio"},
      {"trace.coverage.measure", coverage("measure"), "ratio"},
      {"trace.coverage.answer", coverage("answer"), "ratio"},
      {"trace.overhead_pct", 100.0 * (Ratio(with_spans, base) - 1.0), "%"},
  };
}

void Report(const Context& ctx, const Inputs& in, const std::vector<Metric>& metrics,
            int64_t attempted, int64_t failed) {
  std::printf("perfbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d "
              "pool_threads=%d host_cores=%u input_hash=%016" PRIx64 "\n",
              ctx.args.workload.c_str(), ctx.args.seed, ctx.args.seconds,
              ctx.args.trace ? 1 : 0, ThreadPool::Global().num_threads(),
              std::max(1u, std::thread::hardware_concurrency()), in.hash);
  for (const Metric& m : metrics) {
    std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  %-32s %16.6f %s\n", "failed_frac",
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)), "ratio");
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64 ", \"failed\": %" PRId64
              ", \"metrics\": {",
              failed == 0 ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--inputs-only") {
      args.inputs_only = true;
      continue;
    }
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--threads") {
      args.threads = std::atoi(value.c_str());
    } else if (flag == "--out") {
      args.out = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) Die("--workload is required");
  if (!(args.seconds > 0.0)) Die("--seconds must be positive");
  return args;
}

int Main(int argc, char** argv) {
  Context ctx;
  ctx.args = ParseArgs(argc, argv);
  if (ctx.args.inputs_only) {
    const Inputs in = GenerateInputs(ctx.args.workload, ctx.args.seed);
    std::printf("input_hash=%016" PRIx64 "\n", in.hash);
    return 0;
  }
  if (ctx.args.threads > 0) ThreadPool::SetGlobalThreads(ctx.args.threads);
  std::filesystem::remove_all(ctx.args.out);
  std::filesystem::create_directories(ctx.args.out);

  // Set-up, repeated; each repetition starts from an empty Gram cache and
  // builds everything afresh. The last fixture is the one measured.
  Samples setup_s;
  std::unique_ptr<Fixture> fx;
  for (int rep = 0; rep < (ctx.args.trace ? 1 : kSetupReps); ++rep) {
    fx.reset();
    GramCache::Global().Clear();
    WallTimer timer;
    fx = Setup(ctx);
    setup_s.Add(timer.Seconds());
  }

  Run untraced, traced;
  std::vector<Metric> metrics;
  if (!ctx.args.trace) {
    GramCache::Global().Clear();
    Loop(ctx, *fx, &untraced, ctx.args.seconds, kRatioPlans);
    metrics = EndToEnd(untraced, setup_s, *fx);
    if (ctx.args.workload == "serve_mem") MmapRound(ctx, fx->in, &untraced);
  } else {
    const double half = ctx.args.seconds / 2.0;
    GramCache::Global().Clear();
    Loop(ctx, *fx, &untraced, half, 0);
    std::map<std::string, uint64_t> counters;
    for (const char* name : {"strategy_cache.memory_hits", "strategy_cache.disk_hits",
                             "strategy_cache.misses",
                             "governor.degraded_to_mmap", "governor.hibernated",
                             "governor.woken", "governor.refused"}) {
      counters[name] = CounterValue(name);
    }
    const std::string trace_path = ctx.args.out + "/trace.json";
    std::string error;
    if (!Trace::Start(trace_path, &error)) Die("trace: " + error);
    Trace::SetThreadName("client");
    LayerSpan::SetEnabled(true);
    GramCache::Global().Clear();
    Loop(ctx, *fx, &traced, half, 0);
    if (ctx.args.workload == "serve_mem") MmapRound(ctx, fx->in, &traced);
    LayerSpan::SetEnabled(false);
    if (!Trace::Stop(&error)) Die("trace: " + error);
    std::printf("trace written to %s\n", trace_path.c_str());
    metrics = PerLayer(untraced, traced, *fx, counters);
  }

  Run checks;
  if (fx->serve.engine != nullptr) CheckLedger(fx->serve, &checks);
  const Inputs in = fx->in;
  fx.reset();
  // Keep the trace; drop the caches, sessions and ledgers.
  for (const auto& entry : std::filesystem::directory_iterator(ctx.args.out)) {
    if (entry.path().filename() != "trace.json") std::filesystem::remove_all(entry.path());
  }
  const int64_t attempted = untraced.attempted + traced.attempted + checks.attempted;
  const int64_t failed = untraced.failed + traced.failed + checks.failed;
  Report(ctx, in, metrics, attempted, failed);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
