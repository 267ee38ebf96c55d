#include "profile/perf_hooks.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <utility>

namespace rpt {

namespace {

std::atomic<bool> g_hook_installed{false};
std::mutex g_hook_mu;
// Shared so an emit racing a SetStageTimingHook keeps a live copy.
std::shared_ptr<const StageTimingHook> g_hook;
thread_local bool t_muted = false;

}  // namespace

void SetStageTimingHook(StageTimingHook hook) {
  std::lock_guard<std::mutex> lock(g_hook_mu);
  if (hook) {
    g_hook = std::make_shared<const StageTimingHook>(std::move(hook));
    g_hook_installed.store(true, std::memory_order_release);
  } else {
    g_hook_installed.store(false, std::memory_order_release);
    g_hook.reset();
  }
}

bool StageTimingHookInstalled() {
  return g_hook_installed.load(std::memory_order_acquire);
}

bool StageTimingMuted() { return t_muted; }

ScopedStageMute::ScopedStageMute() : prev_(t_muted) { t_muted = true; }

ScopedStageMute::~ScopedStageMute() { t_muted = prev_; }

void EmitStageTiming(const char* stage, StageClock::time_point begin,
                     StageClock::time_point end) {
  std::shared_ptr<const StageTimingHook> hook;
  {
    std::lock_guard<std::mutex> lock(g_hook_mu);
    hook = g_hook;
  }
  if (hook) (*hook)(stage, begin, end);
}

}  // namespace rpt
