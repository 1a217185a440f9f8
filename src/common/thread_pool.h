// Persistent work-stealing thread pool shared by every parallel kernel in the
// library. Threads are spawned once (lazily, on first use) and live for the
// whole process; hot paths submit closures instead of constructing
// std::thread per call, which the profile showed costing more than the actual
// arithmetic for mid-sized operands.
#ifndef HDMM_COMMON_THREAD_POOL_H_
#define HDMM_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace hdmm {

/// Fixed-size pool of worker threads with per-worker deques and work
/// stealing. The calling thread participates in execution while it waits, so
/// a pool with W workers runs parallel sections W+1 wide.
///
/// Nested parallel sections (a task body invoking ParallelFor again) run
/// serially inside the calling task: the pool never blocks a worker on work
/// that only another worker could run, so there is no deadlock and no thread
/// explosion.
class ThreadPool {
 public:
  /// Spawns `num_workers` worker threads (>= 0). Most callers should use
  /// Global() instead of constructing their own pool.
  explicit ThreadPool(int num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Parallelism width: workers plus the participating caller.
  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs body(b, e) over a partition of [begin, end) across the pool and
  /// blocks until every chunk has finished. Chunks hold at least `grain`
  /// iterations; ranges smaller than 2 * grain, pools with no workers, and
  /// nested calls from inside a pool task all run body(begin, end) serially
  /// on the calling thread.
  void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                   const std::function<void(int64_t, int64_t)>& body);

  /// True when called from inside a pool task (used to serialize nesting).
  static bool InWorker();

  /// Process-wide shared pool. Sized, in priority order, from
  /// SetGlobalThreads, the HDMM_THREADS environment variable (total thread
  /// count, caller included; a value that is not a positive whole number is
  /// warned about and ignored), or std::thread::hardware_concurrency().
  /// Never destroyed.
  static ThreadPool& Global();

  /// Pins the global pool's total thread count (callers of Global() see
  /// `num_threads() == n`). Must be called before the first Global() use —
  /// the pool is created once and never resized; dies otherwise. This is
  /// the hook behind `hdmm_cli --threads N`.
  static void SetGlobalThreads(int n);

 private:
  struct TaskGroup;
  struct Task {
    std::function<void()> fn;
    TaskGroup* group = nullptr;
  };
  struct WorkerQueue {
    std::mutex mutex;
    std::deque<Task> tasks;
  };

  void WorkerLoop(size_t index);
  void Push(Task task);
  bool TryPop(size_t preferred, Task* out);
  void RunTask(Task& task);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;
  std::atomic<int64_t> pending_{0};
  std::atomic<uint64_t> next_queue_{0};
  std::atomic<bool> stop_{false};
  std::mutex sleep_mutex_;
  std::condition_variable sleep_cv_;
};

/// The pool the dense compute kernels (GEMM, Cholesky, kron, eigensolver,
/// batched answering) and the optimizer's restart fan-out (OptimizeStrategy's
/// grid, Opt0's restarts) run on: ThreadPool::Global() unless an override is
/// installed. The indirection exists so benches and tests can run the same
/// code on pools of different widths within one process — thread-count
/// scaling arms, and the kernel and planner thread-invariance tests — without
/// paying a process restart per arm.
ThreadPool& ComputePool();

/// Installs (or, with nullptr, removes) a compute-pool override. Bench/test
/// knob — not synchronized against in-flight work; quiesce all parallel
/// work before switching, and restore nullptr before the pool dies.
void SetComputePool(ThreadPool* pool);

}  // namespace hdmm

#endif  // HDMM_COMMON_THREAD_POOL_H_
