// Command-line front end for the library: optimize a workload spec, answer
// it privately over a CSV dataset, or translate SQL scripts into workload
// specs. This is the path a data custodian without a C++ toolchain takes:
// author a .workload file (or SQL), then
//
//   hdmm_cli optimize    --workload w.workload
//   hdmm_cli run         --workload w.workload --data people.csv --epsilon 1
//   hdmm_cli convert-sql --domain "sex=2,age=115" --sql queries.sql
//
// Strategy selection never touches the data (Section 7.3 of the paper);
// only `run` consumes privacy budget, via the Laplace mechanism.
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <system_error>
#include <type_traits>
#include <vector>

#include "common/deadline.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/diagnostics.h"
#include "core/hdmm.h"
#include "core/strategy_io.h"
#include "data/csv.h"
#include "engine/engine.h"
#include "workload/building_blocks.h"
#include "workload/parser.h"
#include "workload/sql.h"

namespace {

using namespace hdmm;

int Usage() {
  std::fprintf(
      stderr,
      "usage: hdmm_cli COMMAND [--threads N] [--stats-json FILE] ...\n"
      "  hdmm_cli optimize    --workload FILE [--restarts N] [--seed S]\n"
      "                       [--epsilon E] [--save-strategy FILE]\n"
      "  hdmm_cli run         --workload FILE --data FILE --epsilon E\n"
      "                       [--seed S] [--truth] [--strategy FILE]\n"
      "  hdmm_cli convert-sql --domain \"a=2,b=10,...\" --sql FILE\n"
      "  hdmm_cli show        --workload FILE\n"
      "  hdmm_cli serve       --workload FILE --data FILE [--budget E]\n"
      "                       [--regime pure|zcdp] [--budget-rho R]\n"
      "                       [--delta D] [--cache-dir DIR] [--ledger FILE]\n"
      "                       [--seed S] [--opt-seed S] [--restarts N]\n"
      "                       [--session-storage memory|mmap]\n"
      "                       [--tile-bytes B] [--hot-tile-budget B]\n"
      "                       [--session-dir DIR] [--max-sessions N]\n"
      "                       [--memory-budget-bytes B] [--deadline-ms MS]\n"
      "\n"
      "Optimize once, reuse forever: `optimize --save-strategy s.hdmm`\n"
      "persists the selected strategy; `run --strategy s.hdmm` skips the\n"
      "optimization (strategy selection is data-independent, Section 7.3).\n"
      "`serve` reads commands from stdin and answers from measurement\n"
      "sessions: measure EPS [NAME] | gaussian RHO [NAME] | use NAME |\n"
      "release [NAME] | sessions | point a=V ... | range a=LO:HI ... |\n"
      "marginal a=V ... | budget | stats [json] | quit. Measurements are\n"
      "named sessions (default name `default`); queries answer from the\n"
      "most recently measured or `use`-selected one.\n"
      "\n"
      "Overload behavior (docs/serving.md): --max-sessions N and\n"
      "--memory-budget-bytes B cap live sessions and their footprint; an\n"
      "over-capacity measure is refused with a retryable\n"
      "`error retryable retry_after_ms=...` reply BEFORE any budget is\n"
      "spent. --deadline-ms MS bounds each measure/query; an expired\n"
      "deadline is likewise retryable and side-effect free.\n"
      "The accountant\n"
      "enforces the budget ceiling: --regime pure composes epsilons\n"
      "sequentially (Laplace only); --regime zcdp composes rho additively\n"
      "(Bun-Steinke) so `gaussian RHO` measurements are accountable too, and\n"
      "reports the spend as (epsilon, --delta)-DP. The ceiling is --budget\n"
      "epsilon (converted to rho under zcdp) or --budget-rho directly. With\n"
      "--cache-dir the spend ledger persists there across restarts (or at\n"
      "--ledger FILE), fsync-backed and flock-protected against concurrent\n"
      "serving processes.\n"
      "\n"
      "--threads N (any command) pins the shared pool's total thread count\n"
      "(planning stays bit-identical at any value for a fixed seed); the\n"
      "HDMM_THREADS environment variable is the equivalent knob for the\n"
      "bench binaries.\n"
      "\n"
      "Observability (docs/observability.md): --stats-json FILE (any\n"
      "command) dumps the metrics registry snapshot as JSON on exit; the\n"
      "serve-mode `stats` command prints live counters (`stats json` for\n"
      "the full snapshot); HDMM_TRACE=FILE records a Chrome trace of the\n"
      "session, loadable at ui.perfetto.dev.\n");
  return 2;
}

// Minimal flag parsing: --name value pairs plus boolean --name.
struct Flags {
  std::map<std::string, std::string> values;
  bool Has(const std::string& name) const { return values.count(name) > 0; }
  std::string Get(const std::string& name, const std::string& dflt = "") const {
    auto it = values.find(name);
    return it == values.end() ? dflt : it->second;
  }
};

bool ParseFlags(int argc, char** argv, int first, Flags* flags) {
  static const char* kBoolFlags[] = {"truth"};
  for (int i = first; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--", 2) != 0) {
      std::fprintf(stderr, "unexpected argument '%s'\n", arg);
      return false;
    }
    const std::string name = arg + 2;
    bool is_bool = false;
    for (const char* b : kBoolFlags) {
      if (name == b) is_bool = true;
    }
    if (is_bool) {
      flags->values[name] = "1";
    } else {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "flag --%s needs a value\n", name.c_str());
        return false;
      }
      flags->values[name] = argv[++i];
    }
  }
  return true;
}

// The least double above zero: the `min` of flags that must be positive.
constexpr double kPositive = std::numeric_limits<double>::denorm_min();

// Reads numeric flag --name into *out, leaving *out (the default) alone
// when the flag is absent. Strict: the whole value must parse as a T
// (`--budget 1x` or `--restarts abc` is a typo, not a request for 1 or 0),
// be finite and be at least `min`. Otherwise prints "--name must be <want>"
// and fails. T comes from `out` alone; `min` converts to it.
template <typename T>
bool ReadNumericFlag(const Flags& flags, const std::string& name,
                     std::common_type_t<T> min, const char* want, T* out) {
  if (!flags.Has(name)) return true;
  const std::string text = flags.Get(name);
  const char* end = text.data() + text.size();
  T value{};
  const std::from_chars_result parsed =
      std::from_chars(text.data(), end, value);
  if (parsed.ec != std::errc() || parsed.ptr != end ||
      !std::isfinite(static_cast<double>(value)) || value < min) {
    std::fprintf(stderr, "--%s must be %s (got '%s')\n", name.c_str(), want,
                 text.c_str());
    return false;
  }
  *out = value;
  return true;
}

bool LoadWorkloadFlag(const Flags& flags, UnionWorkload* w) {
  const std::string path = flags.Get("workload");
  if (path.empty()) {
    std::fprintf(stderr, "missing --workload FILE\n");
    return false;
  }
  std::string error;
  if (!LoadWorkloadFile(path, w, &error)) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
    return false;
  }
  return true;
}

// Parses "a=2,b=10" into a named Domain.
bool ParseDomainSpec(const std::string& spec, Domain* out) {
  std::vector<std::string> names;
  std::vector<int64_t> sizes;
  std::string current;
  std::istringstream in(spec);
  while (std::getline(in, current, ',')) {
    const size_t eq = current.find('=');
    if (eq == std::string::npos || eq == 0) {
      std::fprintf(stderr, "bad domain component '%s' (want name=size)\n",
                   current.c_str());
      return false;
    }
    // Strict: digits only, and a size beyond int64 fails instead of
    // clamping.
    const char* last = current.data() + current.size();
    int64_t size = 0;
    const std::from_chars_result parsed =
        std::from_chars(current.data() + eq + 1, last, size);
    if (parsed.ec != std::errc() || parsed.ptr != last || size < 1) {
      std::fprintf(stderr, "bad attribute size in '%s'\n", current.c_str());
      return false;
    }
    names.push_back(current.substr(0, eq));
    sizes.push_back(size);
  }
  if (names.empty()) {
    std::fprintf(stderr, "empty domain spec\n");
    return false;
  }
  int64_t cells = 0;
  if (!CheckedCellCount(sizes, &cells)) {
    std::fprintf(stderr, "domain '%s': cell count overflows int64\n",
                 spec.c_str());
    return false;
  }
  *out = Domain(std::move(names), std::move(sizes));
  return true;
}

void PrintWorkloadSummary(const UnionWorkload& w) {
  std::printf("domain:   %s  (N = %lld)\n", w.domain().ToString().c_str(),
              static_cast<long long>(w.DomainSize()));
  std::printf("products: %d\n", w.NumProducts());
  std::printf("queries:  %lld\n", static_cast<long long>(w.TotalQueries()));
  std::printf("implicit storage: %lld doubles (explicit would be %lld)\n",
               static_cast<long long>(w.ImplicitStorageDoubles()),
               static_cast<long long>(w.ExplicitStorageDoubles()));
}

// --restarts and the optimizer seed, read from flag `seed_flag`.
bool OptionsFromFlags(const Flags& flags, const std::string& seed_flag,
                      HdmmOptions* options) {
  return ReadNumericFlag(flags, "restarts", 1, "an integer >= 1",
                         &options->restarts) &&
         ReadNumericFlag(flags, seed_flag, 0, "a non-negative integer",
                         &options->seed);
}

int CmdOptimize(const Flags& flags) {
  UnionWorkload w;
  if (!LoadWorkloadFlag(flags, &w)) return 1;
  HdmmOptions options;
  double epsilon = 1.0;
  if (!OptionsFromFlags(flags, "seed", &options) ||
      !ReadNumericFlag(flags, "epsilon", kPositive, "positive", &epsilon)) {
    return 1;
  }
  PrintWorkloadSummary(w);

  std::printf("plan fingerprint: %s\n",
              FingerprintPlan(w, options).Hex().c_str());
  HdmmResult result = OptimizeStrategy(w, options);
  std::printf("\nchosen operator: %s\n", result.chosen_operator.c_str());
  std::printf("strategy queries: %lld, sensitivity %.6f\n",
              static_cast<long long>(result.strategy->NumQueries()),
              result.strategy->Sensitivity());
  std::printf("expected per-query RMSE at epsilon=%.3g: %.4f\n", epsilon,
              result.strategy->RootMeanSquaredError(w, epsilon));

  // Identity baseline ratio (always defined).
  std::vector<Matrix> id_factors;
  for (int i = 0; i < w.domain().NumAttributes(); ++i) {
    id_factors.push_back(IdentityBlock(w.domain().AttributeSize(i)));
  }
  KronStrategy identity(std::move(id_factors), "identity");
  std::printf("error ratio vs Identity baseline: %.3f\n",
              std::sqrt(identity.SquaredError(w) / result.squared_error));

  // Laplace-mechanism baseline: per-query noise at workload sensitivity.
  const double lm_error = w.Sensitivity() * w.Sensitivity() *
                          static_cast<double>(w.TotalQueries());
  std::printf("error ratio vs Laplace mechanism:  %.3f\n",
              std::sqrt(lm_error / result.squared_error));

  // Spectral lower bound when computable (single product at any scale,
  // unions on modest domains): report how close this plan is to the best
  // any strategy could do, on the paper's root-error scale.
  const SessionDiagnostics diag = DiagnoseSession(*result.strategy, w, epsilon);
  if (diag.computable) {
    // sqrt(achieved / bound), the reciprocal of pct_of_optimal / 100.
    const double gap = 100.0 / diag.pct_of_optimal;
    std::printf("optimality gap vs spectral lower bound [28]: %.3f%s\n", gap,
                gap < 1.005 ? " (certified optimal)" : "");
    std::printf("pct_of_optimal: %.1f%%  (Err bound %.6g vs achieved %.6g at "
                "epsilon=%.3g)\n",
                diag.pct_of_optimal, diag.lower_bound_total_sq,
                diag.achieved_total_sq, epsilon);
  }

  if (flags.Has("save-strategy")) {
    const std::string path = flags.Get("save-strategy");
    std::string error;
    if (!SaveStrategyFile(path, *result.strategy, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::printf("strategy saved to %s\n", path.c_str());
  }
  return 0;
}

int CmdRun(const Flags& flags) {
  UnionWorkload w;
  if (!LoadWorkloadFlag(flags, &w)) return 1;
  const std::string data_path = flags.Get("data");
  if (data_path.empty()) {
    std::fprintf(stderr, "missing --data FILE\n");
    return 1;
  }
  if (!flags.Has("epsilon")) {
    std::fprintf(stderr, "missing --epsilon E\n");
    return 1;
  }
  HdmmOptions options;
  double epsilon = 0.0;
  if (!OptionsFromFlags(flags, "seed", &options) ||
      !ReadNumericFlag(flags, "epsilon", kPositive, "positive", &epsilon)) {
    return 1;
  }

  Dataset dataset(w.domain());
  std::string error;
  if (!LoadCsvDataset(data_path, w.domain(), &dataset, &error)) {
    std::fprintf(stderr, "%s: %s\n", data_path.c_str(), error.c_str());
    return 1;
  }
  std::fprintf(stderr, "loaded %lld records over %s\n",
               static_cast<long long>(dataset.NumRecords()),
               w.domain().ToString().c_str());

  // Either reuse a saved strategy (optimize-once workflow) or select one
  // now; neither path touches the data. Either way, report the fingerprint
  // the serving engine's strategy cache would key this plan under.
  std::fprintf(stderr, "plan fingerprint: %s\n",
               FingerprintPlan(w, options).Hex().c_str());
  std::unique_ptr<Strategy> strategy;
  if (flags.Has("strategy")) {
    std::string error;
    strategy = LoadStrategyFile(flags.Get("strategy"), &error);
    if (strategy == nullptr) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    if (strategy->DomainSize() != w.DomainSize()) {
      std::fprintf(stderr,
                   "strategy domain size %lld does not match workload %lld\n",
                   static_cast<long long>(strategy->DomainSize()),
                   static_cast<long long>(w.DomainSize()));
      return 1;
    }
    if (!SupportsWorkload(*strategy, w)) {
      std::fprintf(stderr,
                   "loaded strategy does not support this workload "
                   "(W A+ A != W); reconstruction would be biased\n");
      return 1;
    }
    std::fprintf(stderr, "loaded strategy: %s\n", strategy->Name().c_str());
  } else {
    HdmmResult result = OptimizeStrategy(w, options);
    std::fprintf(stderr, "optimized strategy: %s\n",
                 result.chosen_operator.c_str());
    strategy = std::move(result.strategy);
  }
  std::fprintf(stderr, "expected per-query RMSE %.4f\n",
               strategy->RootMeanSquaredError(w, epsilon));

  const Vector x = dataset.ToDataVector();
  Rng rng(options.seed);  // --seed steers both the restarts and the noise.
  const Vector answers = RunMechanism(w, *strategy, x, epsilon, &rng);

  if (flags.Has("truth")) {
    const Vector truth = TrueAnswers(w, x);
    double sq = 0.0;
    for (size_t i = 0; i < answers.size(); ++i) {
      const double diff = answers[i] - truth[i];
      sq += diff * diff;
    }
    std::printf("# query, private_answer, true_answer\n");
    for (size_t i = 0; i < answers.size(); ++i) {
      std::printf("%zu,%.4f,%.1f\n", i, answers[i], truth[i]);
    }
    std::fprintf(stderr, "realized per-query RMSE: %.4f\n",
                 std::sqrt(sq / static_cast<double>(answers.size())));
  } else {
    std::printf("# query, private_answer\n");
    for (size_t i = 0; i < answers.size(); ++i) {
      std::printf("%zu,%.4f\n", i, answers[i]);
    }
  }
  return 0;
}

// serve: one long-lived process per dataset release. Planning goes through
// the engine's strategy cache (so a warm start answers from disk instead of
// re-running OPT_HDMM), measurements are budgeted by the accountant, and
// queries are answered from the current measurement session's x_hat — pure
// post-processing, no further budget.
int CmdServe(const Flags& flags) {
  UnionWorkload w;
  if (!LoadWorkloadFlag(flags, &w)) return 1;
  const std::string data_path = flags.Get("data");
  if (data_path.empty()) {
    std::fprintf(stderr, "missing --data FILE\n");
    return 1;
  }
  Dataset dataset(w.domain());
  std::string error;
  if (!LoadCsvDataset(data_path, w.domain(), &dataset, &error)) {
    std::fprintf(stderr, "%s: %s\n", data_path.c_str(), error.c_str());
    return 1;
  }

  EngineOptions engine_options;
  // --seed steers the *noise* draw only. The optimizer seed is part of the
  // plan fingerprint, so folding the noise seed into it would invalidate
  // the strategy cache on every reseeded restart; use --opt-seed to
  // deliberately re-optimize with different random restarts.
  uint64_t noise_seed = 0;
  if (!OptionsFromFlags(flags, "opt-seed", &engine_options.optimizer) ||
      !ReadNumericFlag(flags, "seed", 0, "a non-negative integer",
                       &noise_seed)) {
    return 1;
  }
  // Accounting regime: pure-eps sequential composition (Laplace only) or
  // rho-zCDP additive composition (Laplace at eps^2/2, Gaussian at rho).
  const std::string regime = flags.Get("regime", "pure");
  if (regime == "zcdp") {
    engine_options.regime = BudgetRegime::kZCdp;
  } else if (regime != "pure") {
    std::fprintf(stderr, "--regime must be pure or zcdp\n");
    return 1;
  }
  if (!ReadNumericFlag(flags, "budget", kPositive, "positive",
                       &engine_options.total_epsilon) ||
      !ReadNumericFlag(flags, "delta", kPositive, "in (0, 1)",
                       &engine_options.delta)) {
    return 1;
  }
  if (!(engine_options.delta < 1.0)) {
    std::fprintf(stderr, "--delta must be in (0, 1)\n");
    return 1;
  }
  if (flags.Has("budget-rho")) {
    if (engine_options.regime != BudgetRegime::kZCdp) {
      std::fprintf(stderr, "--budget-rho needs --regime zcdp\n");
      return 1;
    }
    if (!ReadNumericFlag(flags, "budget-rho", kPositive, "positive",
                         &engine_options.total_rho)) {
      return 1;
    }
  }
  // Session data-vector storage: --session-storage mmap tiles each
  // measurement session's x_hat + summed-area table onto files (see
  // docs/serving.md, "Out-of-core sessions"), so serving a domain larger
  // than RAM answers box queries from O(2^d) corner tiles instead of a
  // dense vector.
  SessionStorageOptions& session_storage = engine_options.session_storage;
  if (!ParseSessionStorage(flags.Get("session-storage", "memory"),
                           &session_storage.backend)) {
    std::fprintf(stderr, "--session-storage must be memory or mmap\n");
    return 1;
  }
  if (!ReadNumericFlag(flags, "tile-bytes", sizeof(double), "an integer >= 8",
                       &session_storage.tile_bytes) ||
      !ReadNumericFlag(flags, "hot-tile-budget", 0, "a non-negative integer",
                       &session_storage.hot_tile_budget)) {
    return 1;
  }
  session_storage.dir = flags.Get("session-dir");
  if (!session_storage.dir.empty()) {
    if (session_storage.backend != SessionStorage::kMmap) {
      std::fprintf(stderr, "--session-dir needs --session-storage mmap\n");
      return 1;
    }
    std::error_code ec;
    std::filesystem::create_directories(session_storage.dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create --session-dir '%s': %s\n",
                   session_storage.dir.c_str(), ec.message().c_str());
      return 1;
    }
  }
  // Resource governor (docs/serving.md, "Overload behavior"): caps are
  // enforced at admission time, before any noise is drawn or budget
  // charged, so an over-capacity request is retryable and free.
  int64_t deadline_ms = 0;  // 0 = no deadline.
  if (!ReadNumericFlag(flags, "max-sessions", 0, "a non-negative integer",
                       &engine_options.governor.max_sessions) ||
      !ReadNumericFlag(flags, "memory-budget-bytes", 0,
                       "a non-negative integer",
                       &engine_options.governor.memory_budget_bytes) ||
      !ReadNumericFlag(flags, "deadline-ms", 0, "a non-negative integer",
                       &deadline_ms)) {
    return 1;
  }
  engine_options.cache.disk_dir = flags.Get("cache-dir");
  // The budget ceiling must survive restarts whenever the strategies do:
  // with a cache directory the ledger defaults to living next to the
  // strategies (override with --ledger; an explicit --ledger works without
  // a cache directory too).
  engine_options.ledger_path = flags.Get("ledger");
  if (engine_options.ledger_path.empty() &&
      !engine_options.cache.disk_dir.empty()) {
    engine_options.ledger_path =
        engine_options.cache.disk_dir + "/budget.ledger";
  }
  if (!engine_options.cache.disk_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(engine_options.cache.disk_dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create --cache-dir '%s': %s\n",
                   engine_options.cache.disk_dir.c_str(),
                   ec.message().c_str());
      return 1;
    }
  }
  Engine engine(engine_options);

  const Vector x = dataset.ToDataVector();
  Rng rng(noise_seed);

  // The ledger keys on the dataset id: canonicalize the path so
  // `data.csv`, `./data.csv`, and an absolute spelling of the same file
  // share one budget instead of each getting a fresh ceiling.
  std::error_code canon_ec;
  std::string dataset_id =
      std::filesystem::weakly_canonical(data_path, canon_ec).string();
  if (canon_ec || dataset_id.empty()) dataset_id = data_path;

  if (engine.accountant().regime() == BudgetRegime::kZCdp) {
    std::printf(
        "serving %s over %s (N=%lld, zcdp budget rho=%g ~ epsilon=%g at "
        "delta=%g)\n",
        flags.Get("workload").c_str(), w.domain().ToString().c_str(),
        static_cast<long long>(w.DomainSize()),
        engine.accountant().TotalBudget(), engine.accountant().total_epsilon(),
        engine.accountant().delta());
  } else {
    std::printf("serving %s over %s (N=%lld, budget epsilon=%g)\n",
                flags.Get("workload").c_str(), w.domain().ToString().c_str(),
                static_cast<long long>(w.DomainSize()),
                engine.accountant().total_epsilon());
  }
  std::printf("dataset id: %s\n", dataset_id.c_str());

  // Prewarm: plan before the first measure so startup reports whether this
  // release hits the cache, and so disk-tier problems surface immediately
  // instead of as a silent cold plan on every restart.
  PlanResult plan = engine.Plan(w);
  std::printf("plan fingerprint: %s (%s, %.1f ms)\n",
              plan.fingerprint.Hex().c_str(), PlanSourceName(plan.source),
              1e3 * plan.seconds);
  if (!plan.cache_error.empty()) {
    std::fprintf(stderr, "warning: strategy not persisted: %s\n",
                 plan.cache_error.c_str());
  }
  const SessionDiagnostics serve_diag = DiagnoseSession(
      *plan.strategy, w, engine.accountant().total_epsilon());
  if (serve_diag.computable) {
    std::printf("pct_of_optimal: %.1f%% of the spectral error bound\n",
                serve_diag.pct_of_optimal);
  }
  std::fflush(stdout);

  // Serve-loop contract: a malformed line gets a one-line `error: ...`
  // reply and the loop continues. A session may hold a measurement whose
  // budget is already spent — tearing it down over a typo would waste an
  // unrecoverable release.
  //
  // Reply protocol for failures: retryable conditions (admission refused,
  // deadline expired, lock contention) reply
  //   error retryable retry_after_ms=N: <status>
  // so a client can back off and resend; everything else keeps the plain
  // fatal `error: ...` form.
  constexpr size_t kMaxLineBytes = 4096;
  std::map<std::string, std::unique_ptr<MeasurementSession>> sessions;
  std::string current_name;  // Empty until the first successful measure.
  auto current_session = [&]() -> MeasurementSession* {
    auto it = sessions.find(current_name);
    return it == sessions.end() ? nullptr : it->second.get();
  };
  auto print_status_error = [](const Status& status) {
    if (IsRetryable(status.code())) {
      int retry_ms = RetryAfterMillis(status);
      if (retry_ms < 0) retry_ms = 100;
      std::printf("error retryable retry_after_ms=%d: %s\n", retry_ms,
                  status.ToString().c_str());
    } else {
      std::printf("error: %s\n", status.ToString().c_str());
    }
  };
  auto valid_session_name = [](const std::string& name) {
    if (name.empty() || name.size() > 64) return false;
    for (char c : name) {
      if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
            c == '-')) {
        return false;
      }
    }
    return true;
  };
  std::string line;
  while (std::getline(std::cin, line)) {
    // CRLF-tolerant: Windows clients and piped here-docs send \r\n.
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.size() > kMaxLineBytes) {
      std::printf("error: line too long (%zu bytes, max %zu)\n", line.size(),
                  kMaxLineBytes);
      std::fflush(stdout);
      continue;
    }
    // Strip comments and whitespace-only lines so sessions can be scripted.
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream in(line);
    std::string command;
    if (!(in >> command)) continue;

    if (command == "quit" || command == "exit") break;

    if (command == "budget") {
      if (engine.accountant().regime() == BudgetRegime::kZCdp) {
        std::printf(
            "budget regime=zcdp spent_rho=%g remaining_rho=%g total_rho=%g "
            "reported_epsilon=%g delta=%g\n",
            engine.accountant().Spent(dataset_id),
            engine.accountant().Remaining(dataset_id),
            engine.accountant().TotalBudget(),
            engine.accountant().ReportedEpsilon(dataset_id),
            engine.accountant().delta());
      } else {
        std::printf("budget spent=%g remaining=%g total=%g\n",
                    engine.accountant().Spent(dataset_id),
                    engine.accountant().Remaining(dataset_id),
                    engine.accountant().total_epsilon());
      }
    } else if (command == "measure" || command == "gaussian") {
      // measure EPS [NAME] -> Laplace; gaussian RHO [NAME] -> Gaussian under
      // zCDP. The accountant decides whether the regime can express the
      // charge. NAME (default `default`) keys the session: re-measuring a
      // name replaces that session, so many live sessions need many names.
      const bool is_gaussian = command == "gaussian";
      // Strict numeric parse: `measure 1.5x` is a malformed request, not a
      // request for 1.5 — iostream's lax "parse a prefix" behavior would
      // silently spend budget on a typo.
      std::string amount_token;
      std::string name = "default";
      std::string extra;
      char* end = nullptr;
      double amount = 0.0;
      bool well_formed = static_cast<bool>(in >> amount_token);
      if (well_formed && (in >> extra)) {
        name = extra;
        extra.clear();
        well_formed = !static_cast<bool>(in >> extra);
      }
      if (well_formed) {
        amount = std::strtod(amount_token.c_str(), &end);
        well_formed = end == amount_token.c_str() + amount_token.size();
      }
      if (!well_formed || !(amount > 0.0) || !std::isfinite(amount)) {
        std::printf(
            "error: %s needs one positive finite %s and at most one "
            "session name\n",
            command.c_str(), is_gaussian ? "rho" : "epsilon");
      } else if (!valid_session_name(name)) {
        std::printf(
            "error: session name must be 1-64 chars of [A-Za-z0-9_-]\n");
      } else {
        const MeasureRequest request = is_gaussian
                                           ? MeasureRequest::Gaussian(amount)
                                           : MeasureRequest::Laplace(amount);
        // A fresh token per request: --deadline-ms bounds each command, not
        // the process lifetime.
        CancelToken token(deadline_ms > 0 ? Deadline::AfterMillis(deadline_ms)
                                          : Deadline());
        const CancelToken* cancel = deadline_ms > 0 ? &token : nullptr;
        auto next = engine.MeasureOr(w, dataset_id, x, request, &rng, cancel);
        if (!next.ok()) {
          print_status_error(next.status());
        } else {
          sessions[name] = std::move(next).value();
          current_name = name;
          std::printf("ok measured %s=%g session=%s spent=%g remaining=%g\n",
                      is_gaussian ? "rho" : "epsilon", amount, name.c_str(),
                      engine.accountant().Spent(dataset_id),
                      engine.accountant().Remaining(dataset_id));
        }
      }
    } else if (command == "use") {
      std::string name;
      if (!(in >> name) || sessions.find(name) == sessions.end()) {
        std::printf("error: no session named '%s'\n", name.c_str());
      } else {
        current_name = name;
        std::printf("ok using session=%s\n", name.c_str());
      }
    } else if (command == "release") {
      // release [NAME]: drop a session and return its footprint to the
      // governor. The budget already spent on it stays spent — release
      // frees memory, never privacy budget.
      std::string name;
      if (!(in >> name)) name = current_name;
      auto it = sessions.find(name);
      if (it == sessions.end()) {
        std::printf("error: no session named '%s'\n", name.c_str());
      } else {
        sessions.erase(it);
        if (name == current_name) current_name.clear();
        std::printf("ok released session=%s live=%zu\n", name.c_str(),
                    sessions.size());
      }
    } else if (command == "sessions") {
      std::string names;
      for (const auto& entry : sessions) {
        names += names.empty() ? entry.first : " " + entry.first;
      }
      if (engine.governor() != nullptr) {
        std::printf("sessions live=%zu charged_bytes=%lld current=%s [%s]\n",
                    sessions.size(),
                    static_cast<long long>(engine.governor()->charged_bytes()),
                    current_name.empty() ? "-" : current_name.c_str(),
                    names.c_str());
      } else {
        std::printf("sessions live=%zu current=%s [%s]\n", sessions.size(),
                    current_name.empty() ? "-" : current_name.c_str(),
                    names.c_str());
      }
    } else if (command == "point" || command == "range" ||
               command == "marginal") {
      MeasurementSession* session = current_session();
      if (session == nullptr) {
        std::printf(
            "error: no measurement session (run `measure EPS` first)\n");
      } else {
        BoxQuery q;
        std::string why;
        if (!ParseQueryLine(line, w.domain(), &q, &why)) {
          std::printf("error: %s\n", why.c_str());
        } else {
          // Through the batch path (not session->Answer directly) so the
          // `stats` command's AnswerBatch latency histogram covers every
          // served answer, and through the Or variant so --deadline-ms
          // bounds queries the same way it bounds measurements.
          CancelToken token(deadline_ms > 0
                                ? Deadline::AfterMillis(deadline_ms)
                                : Deadline());
          const CancelToken* cancel = deadline_ms > 0 ? &token : nullptr;
          auto answer = session->AnswerBatchOr({q}, cancel);
          if (!answer.ok()) {
            print_status_error(answer.status());
          } else {
            std::printf("answer %.4f\n", answer.value()[0]);
          }
        }
      }
    } else if (command == "stats") {
      std::string mode;
      in >> mode;
      if (mode == "json") {
        std::fputs(Metrics::ToJson().c_str(), stdout);
        std::fputc('\n', stdout);
      } else {
        const MetricsSnapshot snap = Metrics::Snapshot();
        auto count = [&snap](const char* name) -> unsigned long long {
          auto it = snap.counters.find(name);
          return it == snap.counters.end() ? 0 : it->second;
        };
        const unsigned long long memory_hits =
            count("strategy_cache.memory_hits");
        const unsigned long long disk_hits = count("strategy_cache.disk_hits");
        const unsigned long long misses = count("strategy_cache.misses");
        const unsigned long long lookups = memory_hits + disk_hits + misses;
        const double hit_rate =
            lookups == 0
                ? 0.0
                : 100.0 * static_cast<double>(memory_hits + disk_hits) /
                      static_cast<double>(lookups);
        HistogramSnapshot answer_latency;
        auto hist_it = snap.histograms.find("engine.answer_batch.latency_ns");
        if (hist_it != snap.histograms.end()) answer_latency = hist_it->second;
        std::printf(
            "stats cache_hit_rate=%.1f%% memory_hits=%llu disk_hits=%llu "
            "misses=%llu budget_spent=%g budget_remaining=%g "
            "answer_batches=%llu answer_batch_p99_us=%.1f\n",
            hit_rate, memory_hits, disk_hits, misses,
            engine.accountant().Spent(dataset_id),
            engine.accountant().Remaining(dataset_id),
            count("engine.answer_batch.count"), answer_latency.p99 / 1e3);
      }
    } else {
      std::printf("error: unknown command '%s' (measure | gaussian | use | "
                  "release | sessions | point | range | marginal | budget | "
                  "stats | quit)\n",
                  command.c_str());
    }
    std::fflush(stdout);
  }
  return 0;
}

int CmdConvertSql(const Flags& flags) {
  Domain domain;
  if (!ParseDomainSpec(flags.Get("domain"), &domain)) return 1;
  const std::string sql_path = flags.Get("sql");
  if (sql_path.empty()) {
    std::fprintf(stderr, "missing --sql FILE\n");
    return 1;
  }
  std::ifstream in(sql_path);
  if (!in) {
    std::fprintf(stderr, "cannot open '%s'\n", sql_path.c_str());
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();

  UnionWorkload w;
  std::string error;
  if (!ParseSqlWorkload(buffer.str(), domain, &w, &error)) {
    std::fprintf(stderr, "%s: %s\n", sql_path.c_str(), error.c_str());
    return 1;
  }
  std::fputs(SerializeWorkload(w).c_str(), stdout);
  return 0;
}

int CmdShow(const Flags& flags) {
  // --strategy: describe a persisted strategy (optionally checking support
  // against --workload). Otherwise show the workload.
  if (flags.Has("strategy")) {
    std::string error;
    auto strategy = LoadStrategyFile(flags.Get("strategy"), &error);
    if (strategy == nullptr) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::fputs(ReportToString(DescribeStrategy(*strategy)).c_str(), stdout);
    if (flags.Has("workload")) {
      UnionWorkload w;
      if (!LoadWorkloadFlag(flags, &w)) return 1;
      if (strategy->DomainSize() != w.DomainSize()) {
        std::printf("workload: DOMAIN MISMATCH (%lld vs %lld cells)\n",
                    static_cast<long long>(w.DomainSize()),
                    static_cast<long long>(strategy->DomainSize()));
        return 1;
      }
      const bool ok = SupportsWorkload(*strategy, w);
      std::printf("workload support: %s\n",
                  ok ? "yes (W A+ A = W)" : "NO — reconstruction would be "
                                            "biased");
      if (ok) {
        std::printf("expected per-query RMSE at epsilon=1: %.4f\n",
                    strategy->RootMeanSquaredError(w, 1.0));
      }
    }
    return 0;
  }
  UnionWorkload w;
  if (!LoadWorkloadFlag(flags, &w)) return 1;
  PrintWorkloadSummary(w);
  std::printf("\n%s", SerializeWorkload(w).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  Flags flags;
  if (!ParseFlags(argc, argv, 2, &flags)) return Usage();

  // --threads N (all commands): pin the shared pool before any library code
  // can lazily create it at the hardware default. Planning results are
  // bit-identical at any thread count for a fixed seed, so this is purely a
  // throughput/isolation knob.
  if (flags.Has("threads")) {
    int threads = 0;
    if (!ReadNumericFlag(flags, "threads", 1, "a positive integer",
                         &threads)) {
      return 2;
    }
    ThreadPool::SetGlobalThreads(threads);
  }

  Trace::SetThreadName("main");

  int rc = -1;
  if (command == "optimize") rc = CmdOptimize(flags);
  else if (command == "run") rc = CmdRun(flags);
  else if (command == "serve") rc = CmdServe(flags);
  else if (command == "convert-sql") rc = CmdConvertSql(flags);
  else if (command == "show") rc = CmdShow(flags);
  if (rc < 0) {
    std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
    return Usage();
  }

  // --stats-json FILE (any command): machine-readable snapshot of every
  // metric the command touched, in the schema shared with bench_util's
  // BENCH_*.json "metrics" section (see docs/observability.md).
  if (flags.Has("stats-json")) {
    const std::string path = flags.Get("stats-json");
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write --stats-json '%s'\n", path.c_str());
      return rc == 0 ? 1 : rc;
    }
    Metrics::WriteJson(f);
    std::fputc('\n', f);
    std::fclose(f);
  }
  return rc;
}
