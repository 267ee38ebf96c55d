// Stage-timing hooks: how the model layer reports where time goes without
// depending on the observability layer.
//
// nn/ code brackets its hot entry points (encode, prefill, per-step decode)
// with ScopedStageTiming; when a hook is installed — src/obs's stage
// exporter routes timings into the metrics registry and the active trace —
// each scope emits (stage name, steady-clock begin, steady-clock end).
// When no hook is installed, a scope costs one relaxed atomic load and
// never reads the clock, so the library stays dependency-free and cheap
// for training and offline use.

#ifndef RPT_PROFILE_PERF_HOOKS_H_
#define RPT_PROFILE_PERF_HOOKS_H_

#include <chrono>
#include <functional>

namespace rpt {

using StageClock = std::chrono::steady_clock;

/// Receives one timed stage. Called from whichever thread ran the stage;
/// implementations must be thread-safe. `stage` is a string literal.
using StageTimingHook = std::function<void(
    const char* stage, StageClock::time_point begin,
    StageClock::time_point end)>;

/// Installs (or, with nullptr, clears) the process-wide hook.
void SetStageTimingHook(StageTimingHook hook);

/// One relaxed atomic load; the fast-path guard.
bool StageTimingHookInstalled();

/// True while a ScopedStageMute is open on the calling thread.
bool StageTimingMuted();

/// Invokes the installed hook, if any.
void EmitStageTiming(const char* stage, StageClock::time_point begin,
                     StageClock::time_point end);

/// RAII stage scope. Reads the clock only when a hook is installed at
/// construction time and the thread is not muted.
class ScopedStageTiming {
 public:
  explicit ScopedStageTiming(const char* stage) {
    if (StageTimingHookInstalled() && !StageTimingMuted()) {
      stage_ = stage;
      begin_ = StageClock::now();
    }
  }
  ~ScopedStageTiming() {
    if (stage_ != nullptr) EmitStageTiming(stage_, begin_, StageClock::now());
  }

  ScopedStageTiming(const ScopedStageTiming&) = delete;
  ScopedStageTiming& operator=(const ScopedStageTiming&) = delete;

 private:
  const char* stage_ = nullptr;
  StageClock::time_point begin_;
};

/// RAII: while in scope, stage scopes opened on the calling thread emit
/// nothing. A fork-join phase (nn/compute_pool.h) runs each shard body
/// under one, so the phase is timed once, by the thread that forked it, and
/// concurrent shards never emit overlapping spans. Nests.
class ScopedStageMute {
 public:
  ScopedStageMute();
  ~ScopedStageMute();

  ScopedStageMute(const ScopedStageMute&) = delete;
  ScopedStageMute& operator=(const ScopedStageMute&) = delete;

 private:
  bool prev_;
};

}  // namespace rpt

#endif  // RPT_PROFILE_PERF_HOOKS_H_
