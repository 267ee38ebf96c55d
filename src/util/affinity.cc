#include "util/affinity.h"

#include <algorithm>
#include <thread>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace rpt {

namespace {

#if defined(__linux__)
// Read by a static initializer, i.e. on the main thread before main()
// runs and before any thread can pin itself.
struct StartupMask {
  cpu_set_t set{};
  bool ok = sched_getaffinity(0, sizeof(set), &set) == 0;
};
const StartupMask g_startup_mask;
#endif

}  // namespace

int OnlineCpuCount() {
#if defined(__linux__)
  if (g_startup_mask.ok) return std::max(1, CPU_COUNT(&g_startup_mask.set));
#endif
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

bool PinCurrentThreadToCpu(int cpu) {
  if (cpu < 0) return false;
#if defined(__linux__)
  if (!g_startup_mask.ok) return false;
  int nth = cpu % OnlineCpuCount();
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &g_startup_mask.set) || nth-- > 0) continue;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(static_cast<size_t>(c), &set);
    return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
  }
  return false;
#else
  return false;
#endif
}

bool UnpinCurrentThread() {
#if defined(__linux__)
  return g_startup_mask.ok &&
         pthread_setaffinity_np(pthread_self(), sizeof(g_startup_mask.set),
                                &g_startup_mask.set) == 0;
#else
  return false;
#endif
}

}  // namespace rpt
