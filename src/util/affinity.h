// Thread-to-CPU pinning for the serving layer.
//
// Replica shards pin their collector threads so each shard's forward passes
// keep their working set (weights are shared and read-only, activations are
// per-shard) warm in one core's private caches instead of migrating. Best
// effort: unsupported platforms and failed syscalls return false and the
// thread simply stays unpinned.

#ifndef RPT_UTIL_AFFINITY_H_
#define RPT_UTIL_AFFINITY_H_

namespace rpt {

/// Pins the calling thread to the (cpu mod OnlineCpuCount())-th CPU the
/// process may run on, so round-robin assignment never names a CPU outside
/// the process's mask. Returns true when the affinity mask was applied.
bool PinCurrentThreadToCpu(int cpu);

/// Logical CPUs this process may run on (>= 1): its affinity mask at
/// start-up (e.g. under `taskset` or a cpuset), else the online count.
int OnlineCpuCount();

/// Widens the calling thread's affinity back to the CPUs the process could
/// run on when it started (read before main()), undoing any pin it
/// inherited from the thread that created it. Returns true when applied.
bool UnpinCurrentThread();

}  // namespace rpt

#endif  // RPT_UTIL_AFFINITY_H_
