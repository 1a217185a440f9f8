// Deadlines and cooperative cancellation for long-running serving work.
//
// A cold plan takes ~0.5 s (BENCH_planner.json); an overloaded server must
// be able to shed it *before* privacy budget is spent. Nothing here
// preempts: computation loops (L-BFGS-B iterations, restart fan-out jobs,
// AnswerBatch shards) poll a CancelToken at natural yield points and return
// kDeadlineExceeded with no side effects. The token is plumbed as a raw
// `const CancelToken*` (nullptr == never stop) so options structs stay
// copyable and plan fingerprints — which hash option *fields*, never this
// pointer — are unaffected.
#ifndef HDMM_COMMON_DEADLINE_H_
#define HDMM_COMMON_DEADLINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#include "common/status.h"

namespace hdmm {

/// A point on the steady clock, or "never". Value type; cheap to copy.
class Deadline {
 public:
  /// Default: infinite — never expires.
  Deadline() = default;

  /// Expires `ms` milliseconds from now (clamped below at "already expired"
  /// for negative input).
  static Deadline AfterMillis(int64_t ms) {
    Deadline d;
    d.has_deadline_ = true;
    d.at_ = std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
    return d;
  }

  bool Expired() const {
    return has_deadline_ && std::chrono::steady_clock::now() >= at_;
  }

  /// Milliseconds until expiry, clamped at 0. A large sentinel (one day)
  /// when infinite, so callers can min() against it safely.
  int64_t RemainingMillis() const {
    if (!has_deadline_) return 86400000;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        at_ - std::chrono::steady_clock::now());
    return left.count() > 0 ? left.count() : 0;
  }

 private:
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point at_{};
};

/// Cancellation flag + optional deadline, polled cooperatively. Thread-safe:
/// any thread may Cancel(); worker threads poll ShouldStop(). Not copyable —
/// share by pointer; the creating frame owns it and must outlive the work.
class CancelToken {
 public:
  CancelToken() = default;
  explicit CancelToken(Deadline deadline) : deadline_(deadline) {}

  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// True once Cancel() was called or the deadline passed. Safe (and cheap,
  /// one relaxed load + one clock read) to poll every loop iteration.
  bool ShouldStop() const {
    return cancelled_.load(std::memory_order_relaxed) || deadline_.Expired();
  }

  /// kOk while running; kDeadlineExceeded once stopped. The message says
  /// which trigger fired so serve replies can distinguish a client cancel
  /// from a blown deadline.
  Status StopStatus() const;

 private:
  std::atomic<bool> cancelled_{false};
  Deadline deadline_{};
};

/// True when `cancel` is non-null and signalled — the form the hot loops use
/// so the disabled path is a single null compare.
inline bool CancelRequested(const CancelToken* cancel) {
  return cancel != nullptr && cancel->ShouldStop();
}

}  // namespace hdmm

#endif  // HDMM_COMMON_DEADLINE_H_
