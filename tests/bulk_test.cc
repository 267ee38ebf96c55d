// Tests for the bulk table-prep stack: the SubmitWindow flow-control gate,
// the checkpoint sidecar, and the BulkPrepDriver end to end — including
// kill-at-50% + resume byte-identity, which is the whole point of the
// checkpoint design.

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bulk/bulk_driver.h"
#include "bulk/checkpoint.h"
#include "serve/routed_server.h"
#include "serve/sessions.h"
#include "serve/submit_window.h"
#include "util/csv.h"
#include "util/csv_stream.h"
#include "util/hash.h"
#include "util/logging.h"

namespace rpt {
namespace {

constexpr char kUnitSep = '\x1f';

/// Deterministic cleaner stand-in speaking FormatCellQuery payloads:
/// uppercases the masked cell. Output depends only on the payload, never
/// on batch composition — the property the resume byte-identity tests
/// lean on.
class UppercaseCellSession : public ModelSession {
 public:
  std::string name() const override { return "upper-cell"; }

  std::vector<std::string> RunBatch(
      const std::vector<std::string>& inputs) override {
    std::vector<std::string> out;
    out.reserve(inputs.size());
    for (const std::string& in : inputs) {
      const size_t pos = in.find(kUnitSep);
      RPT_CHECK(pos != std::string::npos);
      const int64_t column = std::stoll(in.substr(0, pos));
      std::vector<std::string> fields;
      size_t start = pos + 1;
      for (;;) {
        const size_t next = in.find(kUnitSep, start);
        if (next == std::string::npos) {
          fields.push_back(in.substr(start));
          break;
        }
        fields.push_back(in.substr(start, next - start));
        start = next + 1;
      }
      std::string cell = fields[static_cast<size_t>(column)];
      for (char& c : cell) c = static_cast<char>(std::toupper(c));
      out.push_back(cell);
    }
    return out;
  }
};

std::unique_ptr<RoutedServer> MakeServer(int replicas = 2) {
  std::vector<std::shared_ptr<ModelSession>> sessions;
  for (int i = 0; i < replicas; ++i) {
    sessions.push_back(std::make_shared<UppercaseCellSession>());
  }
  ServerConfig config;
  config.max_batch_size = 8;
  config.max_batch_delay = std::chrono::microseconds(100);
  config.min_batch_delay = config.max_batch_delay;  // fixed window
  std::vector<RouteSpec> routes;
  routes.emplace_back("clean", std::move(sessions), config);
  return std::make_unique<RoutedServer>(std::move(routes));
}

/// A scratch directory wiped per test.
class BulkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/rpt_bulk_test_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    const std::string cmd = "rm -rf " + dir_;
    (void)!std::system(cmd.c_str());
  }

  std::string Path(const std::string& name) const { return dir_ + "/" + name; }

  void WriteFile(const std::string& path, const std::string& content) {
    std::ofstream out(path, std::ios::binary);
    out << content;
    ASSERT_TRUE(out.good());
  }

  static std::string Slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }

  /// A deterministic synthetic table: city repeats per (brand % 3), so
  /// brand -> city is a clean FD the profiler can find.
  static std::string SyntheticCsv(int rows) {
    static const char* kCities[] = {"austin", "boston", "chicago"};
    std::string csv = "id,brand,city\n";
    for (int i = 0; i < rows; ++i) {
      const int brand = i % 3;
      csv += std::to_string(i) + ",brand" + std::to_string(brand) + "," +
             kCities[brand] + "\n";
    }
    return csv;
  }

  std::string dir_;
};

// ---- SubmitWindow -----------------------------------------------------------

TEST(SubmitWindowTest, AcquireBlocksAtCapacityUntilRelease) {
  SubmitWindow window(2);
  window.Acquire();
  window.Acquire();
  EXPECT_EQ(window.outstanding(), 2u);
  EXPECT_FALSE(window.TryAcquire());
  std::atomic<bool> acquired{false};
  std::thread blocked([&] {
    window.Acquire();
    acquired.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(acquired.load());
  window.Release();
  blocked.join();
  EXPECT_TRUE(acquired.load());
  window.Release();
  window.Release();
  window.Drain();
  EXPECT_EQ(window.outstanding(), 0u);
}

TEST(SubmitWindowTest, HammerNeverExceedsCapacity) {
  constexpr size_t kCapacity = 4;
  SubmitWindow window(kCapacity);
  std::atomic<int> inside{0};
  std::atomic<int> peak{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        window.Acquire();
        const int now = inside.fetch_add(1) + 1;
        int prev = peak.load();
        while (now > prev && !peak.compare_exchange_weak(prev, now)) {
        }
        inside.fetch_sub(1);
        window.Release();
      }
    });
  }
  for (auto& w : workers) w.join();
  window.Drain();
  EXPECT_LE(peak.load(), static_cast<int>(kCapacity));
  EXPECT_EQ(window.outstanding(), 0u);
}

// ---- Checkpoint sidecar -----------------------------------------------------

TEST_F(BulkTest, CheckpointRoundTripsAtomically) {
  const std::string path = Path("ckpt");
  bulk::BulkCheckpoint cp;
  cp.input_offset = 12345;
  cp.rows_written = 678;
  cp.output_offset = 9012;
  cp.plan_fingerprint = 0xdeadbeefcafef00dull;
  cp.complete = false;
  ASSERT_TRUE(bulk::SaveBulkCheckpoint(path, cp).ok());
  auto back = bulk::LoadBulkCheckpoint(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->input_offset, cp.input_offset);
  EXPECT_EQ(back->rows_written, cp.rows_written);
  EXPECT_EQ(back->output_offset, cp.output_offset);
  EXPECT_EQ(back->plan_fingerprint, cp.plan_fingerprint);
  EXPECT_FALSE(back->complete);
  // Overwrite in place (the steady-state path) and read the new record.
  cp.rows_written = 679;
  cp.complete = true;
  ASSERT_TRUE(bulk::SaveBulkCheckpoint(path, cp).ok());
  back = bulk::LoadBulkCheckpoint(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->rows_written, 679u);
  EXPECT_TRUE(back->complete);
}

TEST_F(BulkTest, MissingAndCorruptCheckpointsAreDistinct) {
  EXPECT_EQ(bulk::LoadBulkCheckpoint(Path("absent")).status().code(),
            StatusCode::kNotFound);
  WriteFile(Path("garbage"), "not a checkpoint\n");
  EXPECT_EQ(bulk::LoadBulkCheckpoint(Path("garbage")).status().code(),
            StatusCode::kIoError);
  // A valid record with trailing junk is corruption, not "close enough".
  bulk::BulkCheckpoint cp;
  ASSERT_TRUE(bulk::SaveBulkCheckpoint(Path("trailing"), cp).ok());
  std::ofstream append(Path("trailing"), std::ios::app | std::ios::binary);
  append << "extra\n";
  append.close();
  EXPECT_EQ(bulk::LoadBulkCheckpoint(Path("trailing")).status().code(),
            StatusCode::kIoError);
}

TEST(BulkFingerprintTest, SensitiveToHeaderSepAndPlan) {
  const std::vector<std::string> header = {"a", "b"};
  const uint64_t base = bulk::BulkPlanFingerprint(header, ',', {1});
  EXPECT_NE(base, bulk::BulkPlanFingerprint({"a", "c"}, ',', {1}));
  EXPECT_NE(base, bulk::BulkPlanFingerprint(header, ';', {1}));
  EXPECT_NE(base, bulk::BulkPlanFingerprint(header, ',', {0}));
  // Field-boundary confusion ("ab","" vs "a","b") must not collide.
  EXPECT_NE(bulk::BulkPlanFingerprint({"ab", ""}, ',', {}),
            bulk::BulkPlanFingerprint({"a", "b"}, ',', {}));
  EXPECT_EQ(base, bulk::BulkPlanFingerprint(header, ',', {1}));
}

// ---- BulkPrepDriver ---------------------------------------------------------

TEST_F(BulkTest, PreparesATableEndToEnd) {
  WriteFile(Path("in.csv"), SyntheticCsv(50));
  auto server = MakeServer();
  bulk::BulkPrepOptions options;
  options.mask_columns = {2};
  options.max_in_flight_rows = 8;
  options.checkpoint_every_rows = 16;
  bulk::BulkPrepDriver driver(server.get(), options);
  auto report = driver.Run(Path("in.csv"), Path("out.csv"), Path("ckpt"));
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_EQ(report->rows_read, 50u);
  EXPECT_EQ(report->rows_written, 50u);
  EXPECT_EQ(report->cells_submitted, 50u);
  EXPECT_EQ(report->cells_failed, 0u);
  EXPECT_EQ(report->cells_changed, 50u);  // every city uppercased
  EXPECT_FALSE(report->resumed);

  auto rows = ReadCsvFile(Path("out.csv"));
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 51u);
  EXPECT_EQ((*rows)[0], (std::vector<std::string>{"id", "brand", "city"}));
  EXPECT_EQ((*rows)[1], (std::vector<std::string>{"0", "brand0", "AUSTIN"}));
  EXPECT_EQ((*rows)[50], (std::vector<std::string>{"49", "brand1", "BOSTON"}));

  // The checkpoint is marked complete; rerunning is a no-op.
  auto again = driver.Run(Path("in.csv"), Path("out.csv"), Path("ckpt"));
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->already_complete);
  EXPECT_EQ(again->rows_read, 0u);
  EXPECT_EQ(again->rows_written, 50u);
}

TEST_F(BulkTest, ProfiledMaskingPlanPicksTheDeterminedColumn) {
  // No explicit mask: the driver profiles a sample. city is a function of
  // brand (and vice versa through NMI symmetry); id is unique per row and
  // also maxes NMI, so restrict the check to "city was masked and
  // uppercased" rather than the exact set.
  WriteFile(Path("in.csv"), SyntheticCsv(40));
  auto server = MakeServer();
  bulk::BulkPrepOptions options;
  options.profile_sample_rows = 20;
  options.min_determinedness = 0.9;
  bulk::BulkPrepDriver driver(server.get(), options);
  auto report = driver.Run(Path("in.csv"), Path("out.csv"), Path("ckpt"));
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_NE(std::find(report->masked_columns.begin(),
                      report->masked_columns.end(), 2),
            report->masked_columns.end());
  auto rows = ReadCsvFile(Path("out.csv"));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ((*rows)[1][2], "AUSTIN");
}

TEST_F(BulkTest, KillAtHalfwayThenResumeIsByteIdentical) {
  const std::string csv = SyntheticCsv(400);
  WriteFile(Path("in.csv"), csv);
  auto server = MakeServer();

  // Reference: one uninterrupted run.
  bulk::BulkPrepOptions options;
  options.mask_columns = {2};
  options.max_in_flight_rows = 16;
  options.checkpoint_every_rows = 32;
  {
    bulk::BulkPrepDriver driver(server.get(), options);
    auto ref = driver.Run(Path("in.csv"), Path("ref.csv"), Path("ref_ckpt"));
    ASSERT_TRUE(ref.ok()) << ref.status().message();
  }
  const std::string reference = Slurp(Path("ref.csv"));
  ASSERT_FALSE(reference.empty());

  // Crash at 50%: the driver scribbles a torn row past the durable mark
  // and bails without checkpointing, like a real SIGKILL mid-write.
  options.abort_after_rows = 200;
  {
    bulk::BulkPrepDriver driver(server.get(), options);
    auto crashed =
        driver.Run(Path("in.csv"), Path("out.csv"), Path("ckpt"));
    ASSERT_FALSE(crashed.ok());
    EXPECT_EQ(crashed.status().code(), StatusCode::kUnavailable);
  }
  // The interrupted output must differ (torn tail, missing rows).
  EXPECT_NE(Slurp(Path("out.csv")), reference);

  // Resume: same arguments, no abort hook.
  options.abort_after_rows = 0;
  {
    bulk::BulkPrepDriver driver(server.get(), options);
    auto resumed =
        driver.Run(Path("in.csv"), Path("out.csv"), Path("ckpt"));
    ASSERT_TRUE(resumed.ok()) << resumed.status().message();
    EXPECT_TRUE(resumed->resumed);
    EXPECT_EQ(resumed->rows_written, 400u);
    EXPECT_LT(resumed->rows_read, 400u);  // did not redo finished work
  }
  EXPECT_EQ(Slurp(Path("out.csv")), reference);
}

TEST_F(BulkTest, ResumeRefusesAMismatchedPlan) {
  WriteFile(Path("in.csv"), SyntheticCsv(100));
  auto server = MakeServer();
  bulk::BulkPrepOptions options;
  options.mask_columns = {2};
  options.abort_after_rows = 40;
  options.checkpoint_every_rows = 10;
  {
    bulk::BulkPrepDriver driver(server.get(), options);
    ASSERT_FALSE(
        driver.Run(Path("in.csv"), Path("out.csv"), Path("ckpt")).ok());
  }
  // Same files, different masking plan: the checkpoint no longer matches.
  options.abort_after_rows = 0;
  options.mask_columns = {1};
  bulk::BulkPrepDriver driver(server.get(), options);
  auto status = driver.Run(Path("in.csv"), Path("out.csv"), Path("ckpt"));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(BulkTest, CorruptCheckpointAbortsTheRun) {
  WriteFile(Path("in.csv"), SyntheticCsv(10));
  WriteFile(Path("ckpt"), "RPTBULK v1\nnonsense\n");
  auto server = MakeServer();
  bulk::BulkPrepOptions options;
  options.mask_columns = {2};
  bulk::BulkPrepDriver driver(server.get(), options);
  auto status = driver.Run(Path("in.csv"), Path("out.csv"), Path("ckpt"));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.status().code(), StatusCode::kIoError);
}

TEST_F(BulkTest, ArityMismatchNamesTheRow) {
  WriteFile(Path("in.csv"), "a,b\n1,2\n3\n5,6\n");
  auto server = MakeServer();
  bulk::BulkPrepOptions options;
  options.mask_columns = {0};
  bulk::BulkPrepDriver driver(server.get(), options);
  auto status = driver.Run(Path("in.csv"), Path("out.csv"), Path("ckpt"));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.status().code(), StatusCode::kInvalidArgument);
  // Row 3 counting the header as row 1 — matches the file's line number.
  EXPECT_NE(status.status().message().find("row 3"), std::string::npos)
      << status.status().message();
}

TEST_F(BulkTest, EmptyMaskPlanCopiesThrough) {
  const std::string csv = "a,b\n\"q,1\",2\n3,\"he said \"\"hi\"\"\"\n";
  WriteFile(Path("in.csv"), csv);
  auto server = MakeServer();
  bulk::BulkPrepOptions options;
  options.profile_sample_rows = 0;  // no explicit mask, no profiling
  bulk::BulkPrepDriver driver(server.get(), options);
  auto report = driver.Run(Path("in.csv"), Path("out.csv"), Path("ckpt"));
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_EQ(report->cells_submitted, 0u);
  // Canonical re-serialization preserves content (quoting style included,
  // since the writer re-quotes what needs it).
  EXPECT_EQ(Slurp(Path("out.csv")), csv);
}

TEST_F(BulkTest, MillionRowTableStreamsAndRoundTrips) {
  // Satellite: a >1M-row synthetic table round-trips through the streaming
  // reader. Kept off the serve path so it is pure reader throughput;
  // sanitizer builds shrink the row count to stay inside test budgets.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  constexpr int kRows = 120'000;
#else
  constexpr int kRows = 1'100'000;
#endif
  const std::string path = Path("big.csv");
  {
    std::ofstream out(path, std::ios::binary);
    out << "id,payload,tag\n";
    for (int i = 0; i < kRows; ++i) {
      out << i << ",\"value,with,commas " << (i % 977) << "\",t" << (i % 13)
          << "\n";
    }
    ASSERT_TRUE(out.good());
  }
  CsvReader::Options options;
  options.buffer_bytes = 64 * 1024;
  CsvReader reader;
  ASSERT_TRUE(reader.Open(path, options).ok());
  std::vector<std::string> row;
  bool done = false;
  ASSERT_TRUE(reader.Next(&row, &done).ok());
  ASSERT_FALSE(done);
  uint64_t rows = 0;
  uint64_t checksum = 0;
  for (;;) {
    ASSERT_TRUE(reader.Next(&row, &done).ok());
    if (done) break;
    ASSERT_EQ(row.size(), 3u);
    checksum ^= Fnv1a64(row[1]) + rows;
    ++rows;
  }
  EXPECT_EQ(rows, static_cast<uint64_t>(kRows));
  // Spot-check content survived the chunking intact.
  EXPECT_EQ(checksum != 0, true);
  ASSERT_TRUE(reader.SeekTo(15, 1).ok());  // "id,payload,tag\n" is 15 bytes
  ASSERT_TRUE(reader.Next(&row, &done).ok());
  EXPECT_EQ(row[0], "0");
  EXPECT_EQ(row[1], "value,with,commas 0");
}

}  // namespace
}  // namespace rpt
