// e2e_bench --workload <clean-online|clean-bulk> --seed <n>
//           --seconds <s> --trace <0|1> --workdir <dir>
//
// Prints a human-readable report and, as the last stdout line, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"

namespace {

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload clean-online|clean-bulk "
               "--seed N --seconds S --trace 0|1 --workdir DIR\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      Usage(argv[0]);
    }
  }
  if (args.workdir.empty() || !(args.seconds > 0) ||
      !std::filesystem::is_directory(args.workdir)) {
    Usage(argv[0]);
  }

  e2e::Metrics metrics;
  e2e::Outcome outcome;
  if (args.workload == "clean-online") {
    outcome = e2e::RunCleanOnline(args, &metrics);
  } else if (args.workload == "clean-bulk") {
    outcome = e2e::RunCleanBulk(args, &metrics);
  } else {
    Usage(argv[0]);
  }
  metrics.PrintTable(args.workload + (args.trace ? " per-layer metrics"
                                                 : " end-to-end metrics"));
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              outcome.correct ? "true" : "false",
              static_cast<long long>(outcome.attempted),
              static_cast<long long>(outcome.failed), metrics.Json().c_str());
  return 0;
}
