// Bulk table-prep demo: stream a CSV table through a routed cleaner with
// durable checkpoint/resume.
//
// Generates a synthetic dirty table (or reuses the one from a previous
// run), then drives it through BulkPrepDriver: the streaming CSV reader
// keeps memory flat, the FD-guided masking plan picks which columns the
// cleaner re-predicts, at most a window of rows is in flight at once, and
// a checkpoint sidecar is atomically replaced every few thousand rows.
//
// Interrupt it (Ctrl-C, SIGKILL, power cut — anything) and run the same
// command again: the driver validates the checkpoint, truncates the torn
// output tail, seeks the input to the recorded row boundary, and finishes
// the table. The final output is byte-identical to an uninterrupted run.
//
//   ./build/examples/bulk_demo --synthetic --rows 200000
//   ^C mid-run, then rerun the same command to watch it resume.
//
// `--synthetic` serves a deterministic model stand-in (instant, no
// training) — this is also what the CI kill-and-resume smoke uses. Without
// it the demo trains a tiny real RPT-C cleaner on a sample of the table
// first, then serves that (slower, and the fun one to watch).
// `--fresh` deletes the work dir first; `--dir PATH` relocates it.

#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <sys/stat.h>
#include <vector>

#include "bulk/bulk_driver.h"
#include "rpt/cleaner.h"
#include "rpt/vocab_builder.h"
#include "serve/routed_server.h"
#include "serve/sessions.h"
#include "table/table.h"
#include "util/csv_stream.h"

namespace {

using rpt::CleanerSession;
using rpt::CsvReader;
using rpt::ModelSession;
using rpt::RoutedServer;
using rpt::RouteSpec;
using rpt::RptCleaner;
using rpt::Schema;
using rpt::ServerConfig;
using rpt::Table;
using rpt::Tuple;
using rpt::Value;

/// Deterministic cleaner stand-in for `--synthetic`: uppercases the masked
/// cell. Pure function of the payload, so a resumed run reproduces an
/// uninterrupted run byte for byte.
class UppercaseCellSession : public ModelSession {
 public:
  std::string name() const override { return "upper-cell"; }

  std::vector<std::string> RunBatch(
      const std::vector<std::string>& inputs) override {
    std::vector<std::string> out;
    out.reserve(inputs.size());
    for (const std::string& in : inputs) {
      const size_t pos = in.find('\x1f');
      const int64_t column =
          pos == std::string::npos ? 0 : std::stoll(in.substr(0, pos));
      int64_t field = 0;
      size_t start = pos + 1;
      std::string cell;
      while (start <= in.size()) {
        const size_t next = in.find('\x1f', start);
        const size_t end = next == std::string::npos ? in.size() : next;
        if (field == column) {
          cell = in.substr(start, end - start);
          break;
        }
        if (next == std::string::npos) break;
        start = next + 1;
        ++field;
      }
      for (char& c : cell) c = static_cast<char>(std::toupper(c));
      out.push_back(cell);
    }
    return out;
  }
};

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

void WriteSyntheticCsv(const std::string& path, int64_t rows) {
  static const char* kCities[] = {"austin", "boston", "chicago", "dallas"};
  std::ofstream out(path, std::ios::binary);
  out << "id,brand,city\n";
  for (int64_t i = 0; i < rows; ++i) {
    const int64_t brand = i % 4;
    out << i << ",brand" << brand << "," << kCities[brand] << "\n";
  }
}

/// Reads the first `sample_rows` data rows of the input for training the
/// tiny real cleaner (the bulk path itself never loads the whole file).
Table SampleTable(const std::string& path, int64_t sample_rows) {
  CsvReader reader;
  Table table;
  if (!reader.Open(path).ok()) return table;
  std::vector<std::string> row;
  bool done = false;
  if (!reader.Next(&row, &done).ok() || done) return table;
  table = Table{Schema(row)};
  for (int64_t i = 0; i < sample_rows; ++i) {
    if (!reader.Next(&row, &done).ok() || done) break;
    if (static_cast<int64_t>(row.size()) != table.NumColumns()) break;
    Tuple tuple;
    for (const std::string& f : row) tuple.push_back(Value::Parse(f));
    table.AddRow(std::move(tuple));
  }
  return table;
}

}  // namespace

int main(int argc, char** argv) {
  int64_t rows = 100000;
  std::string dir = "/tmp/rpt_bulk_demo";
  bool synthetic = false;
  bool fresh = false;
  uint64_t checkpoint_every = 4096;
  size_t in_flight = 128;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--synthetic") {
      synthetic = true;
    } else if (arg == "--fresh") {
      fresh = true;
    } else if (arg == "--rows" && i + 1 < argc) {
      rows = std::atoll(argv[++i]);
    } else if (arg == "--dir" && i + 1 < argc) {
      dir = argv[++i];
    } else if (arg == "--checkpoint-every" && i + 1 < argc) {
      checkpoint_every = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--in-flight" && i + 1 < argc) {
      in_flight = std::strtoull(argv[++i], nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--synthetic] [--fresh] [--rows N] [--dir "
                   "PATH] [--checkpoint-every N] [--in-flight N]\n",
                   argv[0]);
      return 2;
    }
  }
  if (fresh) {
    const std::string cmd = "rm -rf " + dir;
    (void)!std::system(cmd.c_str());
  }
  (void)::mkdir(dir.c_str(), 0755);
  const std::string input = dir + "/input.csv";
  const std::string output = dir + "/output.csv";
  const std::string checkpoint = dir + "/checkpoint";

  std::printf("RPT bulk table-prep demo\n");
  if (!FileExists(input)) {
    std::printf("generating %lld-row synthetic table at %s\n",
                static_cast<long long>(rows), input.c_str());
    WriteSyntheticCsv(input, rows);
  } else {
    std::printf("reusing existing input %s\n", input.c_str());
  }
  if (FileExists(checkpoint)) {
    std::printf("found checkpoint %s — resuming\n", checkpoint.c_str());
  }

  // Route "clean": deterministic stand-in, or a tiny real RPT-C cleaner
  // trained on a sample of the table.
  std::vector<std::shared_ptr<ModelSession>> sessions;
  std::unique_ptr<RptCleaner> cleaner;
  if (synthetic) {
    sessions.push_back(std::make_shared<UppercaseCellSession>());
    sessions.push_back(std::make_shared<UppercaseCellSession>());
  } else {
    std::printf("training a tiny RPT-C cleaner on a sample...\n");
    Table sample = SampleTable(input, 256);
    rpt::CleanerConfig config;
    config.d_model = 48;
    config.num_layers = 2;
    config.num_heads = 2;
    config.dropout = 0.0f;
    config.batch_size = 8;
    config.learning_rate = 3e-3f;
    config.seed = 7;
    cleaner = std::make_unique<RptCleaner>(
        config, rpt::BuildVocabFromTables({&sample}));
    cleaner->PretrainOnTables({&sample}, 200);
    sessions.push_back(
        std::make_shared<CleanerSession>(cleaner.get(), sample.schema()));
  }
  ServerConfig config;
  config.max_batch_size = 32;
  config.max_batch_delay = std::chrono::microseconds(500);
  config.min_batch_delay = config.max_batch_delay;  // fixed window
  std::vector<RouteSpec> routes;
  routes.emplace_back("clean", std::move(sessions), config);
  RoutedServer server(std::move(routes));

  rpt::bulk::BulkPrepOptions options;
  options.max_in_flight_rows = in_flight;
  options.checkpoint_every_rows = checkpoint_every;
  options.min_determinedness = 0.9;
  const auto t0 = std::chrono::steady_clock::now();
  options.progress = [&t0](uint64_t done) {
    const double s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    std::printf("  %llu rows written (%.0f rows/sec)\n",
                static_cast<unsigned long long>(done), done / s);
    std::fflush(stdout);
  };
  rpt::bulk::BulkPrepDriver driver(&server, options);
  auto report = driver.Run(input, output, checkpoint);
  if (!report.ok()) {
    std::fprintf(stderr, "bulk prep failed: %s\n",
                 report.status().message().c_str());
    return 1;
  }
  if (report->already_complete) {
    std::printf("nothing to do: checkpoint says the table is complete "
                "(%llu rows in %s)\n",
                static_cast<unsigned long long>(report->rows_written),
                output.c_str());
    return 0;
  }
  std::printf("\ndone: %llu rows in %s%s\n",
              static_cast<unsigned long long>(report->rows_written),
              output.c_str(), report->resumed ? " (resumed)" : "");
  std::printf("masked columns:");
  for (int64_t c : report->masked_columns) {
    std::printf(" %lld", static_cast<long long>(c));
  }
  std::printf("\ncells: %llu submitted, %llu changed, %llu failed, "
              "%llu cache hits\n",
              static_cast<unsigned long long>(report->cells_submitted),
              static_cast<unsigned long long>(report->cells_changed),
              static_cast<unsigned long long>(report->cells_failed),
              static_cast<unsigned long long>(report->cache_hits));
  return 0;
}
