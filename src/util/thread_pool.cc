#include "util/thread_pool.h"

#include <algorithm>
#include <chrono>

#include "util/affinity.h"
#include "util/logging.h"

namespace rpt {

namespace {

// How long an idle worker, or a caller waiting on a ParallelFor, polls
// before it blocks. Fork-join phases follow each other within
// microseconds; waking a blocked thread takes 50-300 us on a virtualised
// host, longer than a whole small phase.
constexpr std::chrono::microseconds kSpinBeforeBlock{100};

// Polls `ready` (yielding the CPU between polls) until it holds or the spin
// budget runs out. The caller then takes the blocking path, which re-checks.
template <typename Ready>
void SpinUntil(Ready ready) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinBeforeBlock;
  while (!ready() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  RPT_CHECK_GE(num_threads, 1u);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] {
      // A pool created from a pinned thread would otherwise inherit its
      // one-CPU mask and crowd every worker onto that CPU.
      UnpinCurrentThread();
      WorkerLoop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  task_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
    queued_.store(tasks_.size(), std::memory_order_relaxed);
    ++in_flight_;
  }
  task_cv_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    SpinUntil([this] { return queued_.load(std::memory_order_relaxed) > 0; });
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_cv_.wait(lock, [this] { return shutdown_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
      queued_.store(tasks_.size(), std::memory_order_relaxed);
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t)>& body) {
  if (n == 0) return;
  // k participants (the caller and up to k - 1 workers) take contiguous
  // ranges [s*n/k, (s+1)*n/k), whose sizes differ by at most one.
  const size_t k = std::min(n, num_threads() + 1);
  const auto run = [n, k, &body](size_t s) {
    for (size_t i = s * n / k; i < (s + 1) * n / k; ++i) body(i);
  };
  if (k == 1) {
    run(0);
    return;
  }
  // `remaining` is fixed before any task is submitted: a range finishing
  // early must never race a later increment. It only changes under
  // `done_mu`, so the final lock below also waits for the last worker to
  // release the mutex before it goes out of scope.
  std::mutex done_mu;
  std::condition_variable done_cv;
  std::atomic<size_t> remaining{k - 1};
  for (size_t s = 1; s < k; ++s) {
    Submit([s, &run, &done_mu, &done_cv, &remaining] {
      run(s);
      std::lock_guard<std::mutex> lock(done_mu);
      if (remaining.fetch_sub(1) == 1) done_cv.notify_one();
    });
  }
  run(0);  // the caller works instead of idling on the wait
  SpinUntil([&remaining] { return remaining.load() == 0; });
  std::unique_lock<std::mutex> lock(done_mu);
  done_cv.wait(lock, [&remaining] { return remaining.load() == 0; });
}

}  // namespace rpt
