#include "common/thread_pool.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "common/check.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace hdmm {
namespace {

thread_local bool tls_in_pool_task = false;

// SetGlobalThreads request and a created-flag guarding against requests that
// arrive after the (unresizable) global pool already exists.
std::atomic<int> g_requested_threads{0};
std::atomic<bool> g_global_created{false};

// Bench/test override routing the kernels and restart fan-out to a custom
// pool.
std::atomic<ThreadPool*> g_compute_pool_override{nullptr};

int GlobalThreadCount() {
  const int requested = g_requested_threads.load(std::memory_order_acquire);
  if (requested >= 1) return requested;
  // HDMM_THREADS mirrors the CLI's --threads. Set, it must be a whole
  // positive int: "4x" is a typo, not 4 threads, and a value past INT_MAX
  // does not wrap. Anything else is reported once and ignored.
  const char* env = std::getenv("HDMM_THREADS");
  if (env != nullptr && *env != '\0') {
    const char* end = env + std::strlen(env);
    int n = 0;
    const auto [ptr, ec] = std::from_chars(env, end, n);
    if (ec == std::errc() && ptr == end && n >= 1) return n;
    HDMM_LOG(Warn,
             "HDMM_THREADS=%s is not a positive whole number; sizing the "
             "pool from the hardware",
             env);
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace

// Completion state for one ParallelFor call. Tasks from different concurrent
// calls can interleave freely in the queues; each decrements its own group.
// Deliberately just an atomic: the final fetch_sub is the last access a
// worker ever makes to the group, so the caller may destroy it the moment it
// observes zero. A mutex/cv handshake here would reintroduce a
// use-after-free window between the worker's decrement and its notify.
struct ThreadPool::TaskGroup {
  std::atomic<int64_t> remaining{0};
};

ThreadPool::ThreadPool(int num_workers) {
  HDMM_CHECK(num_workers >= 0);
  queues_.reserve(static_cast<size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i)
    queues_.push_back(std::make_unique<WorkerQueue>());
  workers_.reserve(static_cast<size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i)
    workers_.emplace_back([this, i] { WorkerLoop(static_cast<size_t>(i)); });
}

ThreadPool::~ThreadPool() {
  {
    // Under the lock, as in Push: a worker between its predicate check and
    // parking would otherwise miss this wakeup and never be joined.
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    stop_.store(true, std::memory_order_release);
  }
  sleep_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

bool ThreadPool::InWorker() { return tls_in_pool_task; }

ThreadPool& ThreadPool::Global() {
  // Leaked on purpose: workers may still be parked in ParallelFor epilogues
  // when static destructors run, and the pool must outlive all of them.
  static ThreadPool* pool = [] {
    g_global_created.store(true, std::memory_order_release);
    return new ThreadPool(GlobalThreadCount() - 1);
  }();
  return *pool;
}

void ThreadPool::SetGlobalThreads(int n) {
  HDMM_CHECK_MSG(n >= 1, "SetGlobalThreads needs n >= 1");
  HDMM_CHECK_MSG(!g_global_created.load(std::memory_order_acquire),
                 "SetGlobalThreads must run before the global pool is first "
                 "used (the pool is created once and never resized)");
  g_requested_threads.store(n, std::memory_order_release);
}

ThreadPool& ComputePool() {
  ThreadPool* override_pool =
      g_compute_pool_override.load(std::memory_order_acquire);
  return override_pool != nullptr ? *override_pool : ThreadPool::Global();
}

void SetComputePool(ThreadPool* pool) {
  g_compute_pool_override.store(pool, std::memory_order_release);
}

void ThreadPool::Push(Task task) {
  const size_t q = static_cast<size_t>(
      next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size());
  {
    std::lock_guard<std::mutex> lock(queues_[q]->mutex);
    queues_[q]->tasks.push_back(std::move(task));
  }
  pending_.fetch_add(1, std::memory_order_release);
  // Lock/unlock orders this increment against a worker's predicate check;
  // notifying without it can race into the window between a worker
  // evaluating the predicate and parking, losing the wakeup for good.
  { std::lock_guard<std::mutex> lock(sleep_mutex_); }
  sleep_cv_.notify_one();
}

bool ThreadPool::TryPop(size_t preferred, Task* out) {
  const size_t n = queues_.size();
  for (size_t attempt = 0; attempt < n; ++attempt) {
    WorkerQueue& q = *queues_[(preferred + attempt) % n];
    std::lock_guard<std::mutex> lock(q.mutex);
    if (q.tasks.empty()) continue;
    if (attempt == 0) {  // Own queue: LIFO end for locality.
      *out = std::move(q.tasks.back());
      q.tasks.pop_back();
    } else {  // Steal from the FIFO end of a victim queue.
      *out = std::move(q.tasks.front());
      q.tasks.pop_front();
      static Counter* const steals =
          Metrics::GetCounter("thread_pool.steals");
      steals->Add(1);
    }
    pending_.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void ThreadPool::RunTask(Task& task) {
  static Counter* const tasks = Metrics::GetCounter("thread_pool.tasks");
  tasks->Add(1);
  tls_in_pool_task = true;
  task.fn();
  tls_in_pool_task = false;
  task.group->remaining.fetch_sub(1, std::memory_order_acq_rel);
}

void ThreadPool::WorkerLoop(size_t index) {
  Trace::SetThreadName("hdmm-worker-" + std::to_string(index));
  // Spin briefly before parking: kernels issue many back-to-back short
  // parallel sections (one per GEMM panel pass), and a cv wakeup can cost
  // milliseconds under a busy hypervisor — longer than the section itself.
  // A worker that stays runnable across the gap picks the next section's
  // tasks up in microseconds.
  constexpr int kSpinRounds = 4096;
  Task task;
  while (true) {
    bool ran = false;
    for (int spin = 0; spin < kSpinRounds; ++spin) {
      if (pending_.load(std::memory_order_acquire) > 0 &&
          TryPop(index, &task)) {
        RunTask(task);
        ran = true;
        break;
      }
      if (stop_.load(std::memory_order_acquire)) break;
      std::this_thread::yield();
    }
    if (ran) continue;
    std::unique_lock<std::mutex> lock(sleep_mutex_);
    sleep_cv_.wait(lock, [this] {
      return stop_.load(std::memory_order_acquire) ||
             pending_.load(std::memory_order_acquire) > 0;
    });
    if (stop_.load(std::memory_order_acquire) &&
        pending_.load(std::memory_order_acquire) == 0) {
      return;
    }
  }
}

void ThreadPool::ParallelFor(int64_t begin, int64_t end, int64_t grain,
                             const std::function<void(int64_t, int64_t)>& body) {
  const int64_t n = end - begin;
  if (n <= 0) return;
  grain = std::max<int64_t>(1, grain);
  if (workers_.empty() || tls_in_pool_task || n < 2 * grain) {
    body(begin, end);
    return;
  }

  // Cap the chunk count so scheduling overhead stays bounded while leaving
  // enough slack (4x) for stealing to balance uneven chunks.
  const int64_t max_chunks = int64_t{4} * num_threads();
  const int64_t chunk = std::max(grain, (n + max_chunks - 1) / max_chunks);
  const int64_t num_chunks = (n + chunk - 1) / chunk;

  TaskGroup group;
  group.remaining.store(num_chunks, std::memory_order_relaxed);
  for (int64_t c = 1; c < num_chunks; ++c) {
    const int64_t b = begin + c * chunk;
    const int64_t e = std::min(end, b + chunk);
    Push(Task{[&body, b, e] { body(b, e); }, &group});
  }
  // The caller runs the first chunk itself, then helps drain queues until its
  // group completes. It may execute tasks from unrelated concurrent groups
  // while it waits; that only speeds overall progress.
  Task first{[&body, begin, chunk, end] {
               body(begin, std::min(end, begin + chunk));
             },
             &group};
  RunTask(first);
  Task stolen;
  int idle_spins = 0;
  while (group.remaining.load(std::memory_order_acquire) > 0) {
    if (TryPop(0, &stolen)) {
      RunTask(stolen);
      idle_spins = 0;
      continue;
    }
    // Tail of the section: the last chunks are in flight on workers and
    // usually finish in microseconds, so spin-yield first and only then back
    // off to short sleeps (bounded poll latency, and — unlike a cv wait — no
    // worker ever has to touch the group after its final decrement).
    if (++idle_spins < 1024) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
}

}  // namespace hdmm
