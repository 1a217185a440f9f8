// Per-dataset privacy-budget ledger. Strategy selection is data-independent
// and free (Section 7.3 of the paper); only MEASURE spends budget. The
// accountant enforces a hard per-dataset ceiling: a measurement that would
// push the running spend past the configured total is refused *before* any
// noise is drawn, so a refused request leaks nothing.
//
// Two composition regimes (see engine/privacy.h):
//
//   pure-dp  Laplace only; epsilons add. zCDP charges are refused (a
//            Gaussian release has no finite pure-eps cost).
//   zcdp     rho adds (Bun-Steinke): Gaussian charges cost their rho,
//            Laplace charges cost eps^2/2 (Prop 1.4). The running rho is
//            reported as (eps, delta)-DP via eps = rho + 2 sqrt(rho ln(1/d))
//            (Prop 1.3) at the accountant's configured reporting delta.
//
// Durability: the ceiling is only as durable as the ledger. With a
// `ledger_path` every successful charge is appended, flushed, AND fsync'd to
// disk before Charge returns — charges are durable before they are
// spendable, so a crash can only over-record (refuse budget that was never
// used), never under-record. Prior charges are replayed at construction.
//
// Ledger format v2 (versioned; one record per line after the header):
//
//   hdmm-budget-ledger v2
//   <mechanism> <epsilon-or-rho> <delta> <dataset...to end of line>
//
// where <mechanism> is `laplace` (value = epsilon, delta = 0) or `gaussian`
// (value = rho, delta = the reporting delta at charge time). Headerless v1
// files (`<epsilon> <dataset>` per line, pure-eps charges) replay cleanly
// and are migrated to v2 in place (atomic tmp + rename) at construction. A
// torn final record without a trailing newline — the signature of a crash
// mid-append, whose charge was by construction never acted on — is dropped
// and truncated away; any other malformed content aborts, because a corrupt
// privacy ledger must never be silently ignored. That abort names the
// offending line number and byte offset and first copies the ledger to
// `<ledger_path>.corrupt`, so the evidence survives the operator's fix.
//
// Cross-process exclusion: the accountant takes a `flock` on
// `<ledger_path>.lock` for its whole lifetime — two serving processes
// replaying one ledger could otherwise jointly spend up to twice the
// ceiling. A held lock is retried with bounded exponential backoff until
// `lock_timeout_ms` elapses (restart orchestration routinely overlaps the
// old process's shutdown with the new one's startup); only after the
// deadline does construction die. Serialize steady-state serving of a
// dataset through one accountant.
#ifndef HDMM_ENGINE_ACCOUNTANT_H_
#define HDMM_ENGINE_ACCOUNTANT_H_

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "engine/privacy.h"

namespace hdmm {

struct BudgetAccountantOptions {
  /// Composition regime; fixes the currency of the ceiling and of
  /// Spent/Remaining (epsilon for kPureDp, rho for kZCdp).
  BudgetRegime regime = BudgetRegime::kPureDp;

  /// Per-dataset ceiling in pure-dp regime. Must be positive and finite
  /// when regime == kPureDp.
  double total_epsilon = 1.0;

  /// Per-dataset ceiling in zcdp regime. When 0 (and regime == kZCdp) it is
  /// derived from (total_epsilon, delta) via the Bun-Steinke inverse, i.e.
  /// the largest rho whose reported epsilon stays within total_epsilon.
  double total_rho = 0.0;

  /// Reporting delta for the zcdp regime's rho -> (eps, delta) conversion.
  double delta = 1e-9;

  /// Per-dataset ceiling overrides in REGIME units (epsilon for pure-dp,
  /// rho for zcdp); datasets not listed use the default ceiling above.
  /// Sensitive datasets can be pinned below the fleet-wide default without
  /// a dedicated accountant per dataset. Every override must be positive
  /// and finite (checked at construction). Overrides bound future charges
  /// only — spend already replayed from a ledger is history, exactly like a
  /// lowered default ceiling.
  std::unordered_map<std::string, double> dataset_ceilings;

  /// Durable ledger file; empty keeps the ledger in memory only (resets on
  /// restart — each process would get the full budget again).
  std::string ledger_path;

  /// How long construction keeps retrying a held ledger lock (exponential
  /// backoff, 1ms doubling to a 100ms cap) before dying. 0 means a single
  /// attempt — the pre-backoff fail-fast behavior.
  int lock_timeout_ms = 2000;
};

class BudgetAccountant {
 public:
  /// Dies on non-positive / non-finite ceilings, on a malformed ledger, or
  /// when another accountant holds the ledger lock.
  explicit BudgetAccountant(BudgetAccountantOptions options);

  /// Pure-dp convenience constructor (the pre-zCDP interface): epsilon
  /// ceiling, sequential composition, optional durable ledger.
  explicit BudgetAccountant(double total_epsilon,
                            const std::string& ledger_path = "");
  ~BudgetAccountant();

  BudgetAccountant(const BudgetAccountant&) = delete;
  BudgetAccountant& operator=(const BudgetAccountant&) = delete;

  /// Attempts to charge `charge` against `dataset`'s ledger, durably
  /// recording it when the regime cost fits under the ceiling (up to a
  /// relative tolerance absorbing floating-point accumulation). Non-OK
  /// returns record nothing:
  ///
  ///   kOverBudget          the charge would exceed the ceiling
  ///   kFailedPrecondition  the regime cannot soundly express the charge
  ///                        (a zCDP charge against a pure-dp accountant)
  ///   kIoError             the durable append failed (see below)
  ///
  /// Dies on costs that are not positive and finite: NaN/inf/zero noise
  /// scales are never a meaningful request, so that stays a contract.
  ///
  /// An append failure rolls the ledger file back to the pre-append record
  /// boundary and refuses the charge — the caller must not draw noise. If
  /// even the rollback fails the accountant wedges: every later durable
  /// charge is refused with kIoError, because appending after a torn record
  /// would corrupt the ledger. Failure never under-records spend.
  ///
  /// Failpoints: `accountant.append.io_error` injects an append failure;
  /// crash sites `accountant.append.before`, `accountant.append.torn`
  /// (half the record reaches disk), and `accountant.append.after_sync`
  /// SIGKILL mid-charge.
  Status Charge(const std::string& dataset, const PrivacyCharge& charge);

  /// Budget already consumed by `dataset` in regime units (epsilon for
  /// pure-dp, rho for zcdp); 0 for unknown datasets.
  double Spent(const std::string& dataset) const;

  /// TotalBudget() - Spent(dataset), clamped at 0.
  double Remaining(const std::string& dataset) const;

  /// Number of successful charges against `dataset`.
  int64_t NumCharges(const std::string& dataset) const;

  /// The default per-dataset ceiling in regime units (== total_epsilon()
  /// for pure-dp, == the rho ceiling for zcdp). Per-dataset overrides are
  /// not reflected here; use TotalBudget(dataset).
  double TotalBudget() const;

  /// The ceiling actually enforced for `dataset` in regime units: its
  /// entry in dataset_ceilings when present, the default otherwise.
  double TotalBudget(const std::string& dataset) const;

  /// The ceiling as an epsilon: the configured total for pure-dp, the
  /// Bun-Steinke (eps, delta) report of the rho ceiling for zcdp.
  double total_epsilon() const;

  /// The (eps, delta)-DP guarantee currently delivered for `dataset`: the
  /// spent epsilon for pure-dp (delta = 0), RhoToEpsilon(spent, delta) for
  /// zcdp.
  double ReportedEpsilon(const std::string& dataset) const;

  BudgetRegime regime() const { return options_.regime; }
  double delta() const { return options_.delta; }

 private:
  struct Ledger {
    double spent = 0.0;  // Regime units: epsilon (pure-dp) or rho (zcdp).
    int64_t charges = 0;
  };

  /// The charge's cost in regime units, or a refusal (false + *why).
  bool RegimeCost(const PrivacyCharge& charge, double* cost,
                  std::string* why) const;

  /// Ceiling for `dataset`: its override or the default. Lock-free —
  /// options_ is immutable after construction.
  double CeilingFor(const std::string& dataset) const;

  void LoadLedger();
  Status AppendRecordLocked(const PrivacyCharge& charge,
                            const std::string& dataset);

  BudgetAccountantOptions options_;
  double total_budget_ = 0.0;  // Ceiling in regime units.
  mutable std::mutex mu_;
  std::unordered_map<std::string, Ledger> ledgers_;
  std::FILE* ledger_file_ = nullptr;  // Append handle when persistent.
  int lock_fd_ = -1;                  // flock'd <ledger_path>.lock handle.
  bool wedged_ = false;  // Append rollback failed; durable charges refused.
};

}  // namespace hdmm

#endif  // HDMM_ENGINE_ACCOUNTANT_H_
