// Shared harness of the benches that write a `--json-out` metrics file
// (serve_throughput, bulk_prep): the failure counter, the flat
// name -> value metrics list and its JSON writer, the resident-set-size
// probe, and the `--json-out=PATH` flag.
//
// The JSON shape is the flat `{"name": number, ..., "failures": N}` object
// tools/check_bench.py compares against the committed BENCH_*.json
// baselines; `failures` is always the last row.

#ifndef RPT_BENCH_BENCH_UTIL_H_
#define RPT_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <unistd.h>
#endif

namespace rpt::bench {

/// Failed checks so far; the process exit status and the `failures` row.
inline int g_failures = 0;

/// Metrics in recording order, written by WriteJsonMetrics.
inline std::vector<std::pair<std::string, double>> g_metrics;

inline void RecordMetric(const std::string& name, double value) {
  g_metrics.emplace_back(name, value);
}

/// Prints an OK/FAIL line for one check and counts a failure.
inline void Check(bool ok, const char* what) {
  std::printf("%s: %s\n", ok ? "OK" : "FAIL", what);
  if (!ok) ++g_failures;
}

inline void WriteJsonMetrics(const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::printf("FAIL: cannot open json output '%s'\n", path);
    ++g_failures;
    return;
  }
  std::fprintf(f, "{\n");
  for (const auto& [name, value] : g_metrics) {
    std::fprintf(f, "  \"%s\": %.6g,\n", name.c_str(), value);
  }
  std::fprintf(f, "  \"failures\": %d\n}\n", g_failures);
  std::fclose(f);
  std::printf("\nmetrics: %zu entries written to %s\n", g_metrics.size() + 1,
              path);
}

/// Resident set size of this process, or 0 where /proc is unavailable.
inline size_t CurrentRssBytes() {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long total_pages = 0, resident_pages = 0;
  const int got = std::fscanf(f, "%lu %lu", &total_pages, &resident_pages);
  std::fclose(f);
  if (got != 2) return 0;
  return static_cast<size_t>(resident_pages) *
         static_cast<size_t>(::sysconf(_SC_PAGESIZE));
#else
  return 0;
#endif
}

/// The PATH of a `--json-out=PATH` argument; nullptr for any other one.
inline const char* JsonOutPath(const char* arg) {
  constexpr std::string_view kFlag = "--json-out=";
  return std::string_view(arg).starts_with(kFlag) ? arg + kFlag.size()
                                                  : nullptr;
}

}  // namespace rpt::bench

#endif  // RPT_BENCH_BENCH_UTIL_H_
