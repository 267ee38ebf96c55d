// Fixed-size worker pool with a ParallelFor convenience.
//
// The process-wide compute pool (nn/compute_pool.h) is one: inference runs
// the row shards of a batch on it as fork-join phases. Model *training*
// stays single-threaded so gradients are bit-reproducible. Workers start on
// every CPU the process may use, whatever the mask of the creating thread.

#ifndef RPT_UTIL_THREAD_POOL_H_
#define RPT_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace rpt {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>= 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for asynchronous execution.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void Wait();

  size_t num_threads() const { return workers_.size(); }

  /// Runs body(i) for i in [0, n) split into k = min(n, num_threads() + 1)
  /// contiguous ranges of n/k items (rounded either way), one per
  /// participant; blocks until complete. The calling thread is a
  /// participant and runs the first range itself, so there is no per-call
  /// thread spawn. Must not be called from inside a pool task (the wait
  /// could deadlock on a saturated pool).
  void ParallelFor(size_t n, const std::function<void(size_t)>& body);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  // tasks_.size(), readable without mu_: idle workers poll it briefly
  // before they block on task_cv_.
  std::atomic<size_t> queued_{0};
  std::mutex mu_;
  std::condition_variable task_cv_;
  std::condition_variable done_cv_;
  size_t in_flight_ = 0;
  bool shutdown_ = false;
};

}  // namespace rpt

#endif  // RPT_UTIL_THREAD_POOL_H_
