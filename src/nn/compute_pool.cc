#include "nn/compute_pool.h"

#include <algorithm>

#include "profile/perf_hooks.h"
#include "tensor/cpu_features.h"
#include "tensor/tensor.h"
#include "util/affinity.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace rpt {

namespace {

// Fewest rows per shard, so small interactive batches (under 8 rows) run
// inline on the caller and never touch the pool.
constexpr int64_t kMinRowsPerShard = 4;

// Callers are one participant each, so OnlineCpuCount() - 1 workers fill
// the CPUs. Only built when a phase has more than one shard, which needs
// OnlineCpuCount() >= 2.
ThreadPool& ComputePool() {
  static ThreadPool pool(static_cast<size_t>(OnlineCpuCount() - 1));
  return pool;
}

}  // namespace

int64_t ComputeShardCount(int64_t rows) {
  return std::clamp<int64_t>(rows / kMinRowsPerShard, 1, OnlineCpuCount());
}

void RunComputePhase(int64_t shards,
                     const std::function<void(int64_t)>& body) {
  RPT_CHECK_GE(shards, 1);
  RPT_CHECK_LE(shards, OnlineCpuCount());
  const TensorBackend backend = ActiveTensorBackend();
  const auto shard_body = [backend, &body](size_t s) {
    ScopedTensorBackendOverride same_backend(backend);
    NoGradGuard no_grad;
    ScopedStageMute mute;
    body(static_cast<int64_t>(s));
  };
  if (shards == 1) {
    shard_body(0);
    return;
  }
  // shards <= workers + 1, so ParallelFor hands each participant one shard.
  ComputePool().ParallelFor(static_cast<size_t>(shards), shard_body);
}

}  // namespace rpt
