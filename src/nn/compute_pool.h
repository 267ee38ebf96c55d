// Fork-join phases over the process-wide compute pool.
//
// Inference splits one batch into row shards and runs each stage of the
// forward pass (encode, prefill, every decode step) as one phase: shard s
// runs body(s), the calling thread taking part, and the phase returns when
// every shard is done. The pool is a util/ThreadPool with one worker per
// online CPU beyond the caller, created on the first phase that has more
// than one shard; a one-shard phase runs inline and never touches it.
//
// Each shard body runs in the caller's context: under the caller's
// ActiveTensorBackend() (a replica's ScopedComputeBackend or a test's
// forced-scalar pin), with autograd off, and with stage scopes muted, so
// the caller alone times the phase.

#ifndef RPT_NN_COMPUTE_POOL_H_
#define RPT_NN_COMPUTE_POOL_H_

#include <cstdint>
#include <functional>

namespace rpt {

/// Shards for a batch of `rows`: one per 4 rows, capped at
/// OnlineCpuCount(), and at least one. Batches below 8 rows stay one shard.
int64_t ComputeShardCount(int64_t rows);

/// Runs body(s) for every s in [0, shards) as one fork-join phase on the
/// compute pool and blocks until all have finished. Must not be called
/// from inside a shard body.
void RunComputePhase(int64_t shards, const std::function<void(int64_t)>& body);

}  // namespace rpt

#endif  // RPT_NN_COMPUTE_POOL_H_
