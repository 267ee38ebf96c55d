// clean-bulk: BulkPrepDriver streams a generated dirty CSV of unique rows
// through the clean route in process. Each pass starts a fresh RoutedServer
// on the same bound replica, so every pass begins with an empty cache.

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "bench.h"
#include "bulk/bulk_driver.h"
#include "corrupt/dirt.h"
#include "eval/metrics.h"
#include "serve/sessions.h"
#include "util/csv_stream.h"
#include "util/hash.h"
#include "util/rng.h"

namespace e2e {

namespace {

// Rows per table pass, and the cells re-predicted in each row
// (manufacturer and price). 512 rows x 2 cells keep the in-flight window
// filling max_batch_size batches.
constexpr int64_t kBulkRows = 512;
const std::vector<int64_t> kMaskColumns = {1, 2};

std::unique_ptr<rpt::RoutedServer> StartServer(
    std::shared_ptr<rpt::ModelSession> session) {
  std::vector<rpt::RouteSpec> routes;
  routes.emplace_back("clean",
                      std::vector<std::shared_ptr<rpt::ModelSession>>{session},
                      RouteConfig());
  return std::make_unique<rpt::RoutedServer>(std::move(routes));
}

std::vector<std::vector<std::string>> ReadCsv(const std::string& path) {
  rpt::CsvReader reader;
  std::vector<std::vector<std::string>> rows;
  if (!reader.Open(path).ok()) return rows;
  std::vector<std::string> row;
  bool done = false;
  while (reader.Next(&row, &done).ok() && !done) rows.push_back(row);
  return rows;
}

struct PassResult {
  double seconds = 0;
  rpt::bulk::BulkPrepReport report;
  rpt::RoutedStatsSnapshot stats;
  bool ok = false;
};

}  // namespace

Outcome RunCleanBulk(const Args& args, Metrics* metrics) {
  struct World {
    CleanData data;
    CleanerModels models;
    std::unique_ptr<rpt::RoutedServer> server;
  };
  std::vector<SetupTimes> reps;
  auto world = SetUpRepeated(args, &reps, [&](SetupTimes* t) {
    auto w = std::make_unique<World>();
    Clock::time_point t0 = Clock::now();
    w->data = GenerateCleanData(args.seed);
    t->datagen_s = SecondsSince(t0);
    w->models = BuildCleaner(w->data, args.workdir, t);
    t0 = Clock::now();
    w->server = StartServer(std::make_shared<rpt::CleanerSession>(
        w->models.served.get(), w->data.heldout.schema()));
    t->server_start_s = SecondsSince(t0);
    return w;
  });
  world->server.reset();  // each pass below starts its own server
  const CleanData& data = world->data;
  const CleanerModels& models = world->models;
  const rpt::Schema& schema = data.heldout.schema();

  // ---- The dirty table: held-out rows with the masked cells corrupted.
  rpt::Rng rng(args.seed * 7919 + 3);
  std::vector<int64_t> order(static_cast<size_t>(data.heldout.NumRows()));
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int64_t>(i);
  rng.Shuffle(&order);
  if (order.size() > static_cast<size_t>(kBulkRows)) order.resize(kBulkRows);
  rpt::Table dirty{schema};
  std::vector<std::vector<std::string>> truth;
  for (int64_t r : order) {
    rpt::Tuple row = data.heldout.row(r);
    truth.push_back({});
    for (const auto& v : row) truth.back().push_back(v.text());
    row[1] = rpt::Value::String(rpt::InjectTypo(row[1].text(), &rng));
    row[2] = rpt::Value::Null();
    dirty.AddRow(std::move(row));
  }
  const std::string input = args.workdir + "/dirty.csv";
  {
    std::FILE* f = std::fopen(input.c_str(), "w");
    const std::string csv = dirty.ToCsv();
    if (f == nullptr || std::fwrite(csv.data(), 1, csv.size(), f) != csv.size()) {
      std::fprintf(stderr, "e2e_bench: cannot write %s\n", input.c_str());
      std::exit(1);
    }
    std::fclose(f);
  }

  // ---- References: the checker replica on exactly the fields
  // BulkPrepDriver reads back from the CSV. Every written cell must equal
  // its reference; their clean_exact on this table is printed for the
  // seed, answer_quality is CleanQuality on the fixed held-out rendering.
  const auto input_rows = ReadCsv(input);  // header + data rows
  std::vector<std::vector<std::string>> reference(input_rows.size());
  std::vector<std::string> payloads;
  std::vector<int64_t> token_counts;
  std::unordered_map<uint64_t, std::vector<int32_t>> ids;
  double steps = 0, exact = 0;
  std::vector<rpt::CellQuery> queries;
  for (size_t r = 1; r < input_rows.size(); ++r) {
    rpt::Tuple tuple;
    for (const auto& f : input_rows[r]) tuple.push_back(rpt::Value::Parse(f));
    for (int64_t c : kMaskColumns) {
      rpt::CellQuery q{tuple, c};
      reference[r].push_back(models.checker->PredictBatch(schema, {q})[0]);
      exact += rpt::NormalizedExactMatch(
          reference[r].back(), truth[r - 1][static_cast<size_t>(c)]);
      payloads.push_back(rpt::CleanerSession::FormatCellQuery(tuple, c));
      const auto enc =
          models.checker->serializer().SerializeWithMask(schema, tuple, c);
      ids[rpt::Fnv1a64(payloads.back())] = enc.ids;
      token_counts.push_back(enc.size());
      steps += static_cast<double>(std::min<int64_t>(
          static_cast<int64_t>(models.checker->serializer()
                                   .EncodeValue(rpt::Value::Parse(
                                       reference[r].back()))
                                   .size()) + 1,
          models.checker->config().max_target_len));
      queries.push_back(std::move(q));
    }
  }
  const double cells = std::max<double>(1, static_cast<double>(payloads.size()));
  PrintFingerprint("clean-bulk", payloads, token_counts, 0, steps / cells);
  const double table_exact = exact / cells;

  // Checks one pass's output: every input row written, masked cells equal
  // to the reference, every other cell unchanged.
  int64_t mismatched = 0;
  auto check_output = [&](const std::string& path) {
    const auto out = ReadCsv(path);
    if (out.size() != input_rows.size()) {
      ++mismatched;  // a missing or extra row is a wrong output
      return false;
    }
    bool ok = true;
    for (size_t r = 1; r < out.size(); ++r) {
      for (size_t c = 0; c < out[r].size(); ++c) {
        const auto it = std::find(kMaskColumns.begin(), kMaskColumns.end(),
                                  static_cast<int64_t>(c));
        const std::string& want =
            it == kMaskColumns.end()
                ? input_rows[r][c]
                : reference[r][static_cast<size_t>(it - kMaskColumns.begin())];
        if (out[r][c] != want) {
          ++mismatched;
          ok = false;
        }
      }
    }
    return ok;
  };

  auto run_pass = [&](std::shared_ptr<rpt::ModelSession> session, int index) {
    PassResult pass;
    auto srv = StartServer(std::move(session));
    rpt::bulk::BulkPrepOptions options;
    options.mask_columns = kMaskColumns;
    rpt::bulk::BulkPrepDriver driver(srv.get(), options);
    const std::string out = args.workdir + "/out" + std::to_string(index);
    const std::string ckpt = out + ".ckpt";
    const Clock::time_point t0 = Clock::now();
    auto report = driver.Run(input, out, ckpt);
    pass.seconds = SecondsSince(t0);
    pass.stats = srv->Stats();
    srv->Shutdown();
    pass.ok = report.ok() && report->rows_written + 1 == input_rows.size() &&
              check_output(out);
    if (report.ok()) pass.report = *report;
    std::filesystem::remove(out);
    std::filesystem::remove(ckpt);
    return pass;
  };

  // Passes until the phase has run `seconds` (at least two).
  struct Phase {
    std::vector<PassResult> passes;
    double seconds = 0;
    int64_t rows = 0, attempted = 0, failed = 0;
    std::vector<double> pass_ms, p50, p99;
    // Users wait on the whole table: its latency is the median pass time,
    // and throughput is the rows a pass wrote correctly over that time.
    double table_ms() const { return Median(pass_ms); }
    double rows_per_s() const {
      return 1000.0 * static_cast<double>(rows) /
             static_cast<double>(passes.size()) / table_ms();
    }
  };
  int pass_index = 0;
  auto run_phase = [&](double seconds,
                       const std::function<std::shared_ptr<rpt::ModelSession>()>&
                           make_session) {
    Phase phase;
    while (phase.passes.size() < 2 || phase.seconds < seconds) {
      PassResult pass = run_pass(make_session(), pass_index++);
      phase.seconds += pass.seconds;
      const int64_t rows = static_cast<int64_t>(input_rows.size()) - 1;
      phase.attempted += rows;
      if (pass.ok && pass.report.cells_failed == 0) {
        phase.rows += rows;
      } else {
        phase.failed += rows;
      }
      phase.pass_ms.push_back(1000 * pass.seconds);
      phase.p50.push_back(pass.stats.total.p50_ms);
      phase.p99.push_back(pass.stats.total.p99_ms);
      phase.passes.push_back(std::move(pass));
    }
    std::printf(
        "phase passes=%zu rows attempted=%lld ok=%lld failed=%lld "
        "mismatched_cells=%lld | error_rate=%.6f\n",
        phase.passes.size(), static_cast<long long>(phase.attempted),
        static_cast<long long>(phase.rows), static_cast<long long>(phase.failed),
        static_cast<long long>(mismatched),
        phase.attempted > 0 ? static_cast<double>(phase.failed) /
                                  static_cast<double>(phase.attempted)
                            : 0.0);
    std::printf("  pass ms:");
    for (double ms : phase.pass_ms) std::printf(" %.1f", ms);
    std::printf("\n");
    return phase;
  };

  const double phase_s = args.trace ? args.seconds / 2 : args.seconds;
  Phase plain = run_phase(phase_s, [&] {
    return std::make_shared<rpt::CleanerSession>(models.served.get(), schema);
  });
  const double clean_exact = CleanQuality(*models.checker, data);
  std::printf("clean_exact=%.4f on the fixed held-out cells, %.4f over this "
              "table's %zu masked cells\n",
              clean_exact, table_exact, payloads.size());
  Outcome outcome;
  outcome.attempted = plain.attempted;
  outcome.failed = plain.failed;
  outcome.correct = mismatched == 0;
  const double plain_rps = plain.rows_per_s();
  if (!args.trace) {
    metrics->Set("setup_s", SetupSeconds(reps), "s");
    metrics->Set("throughput_rps", plain_rps, "1/s");
    metrics->Set("latency_p50_ms", plain.table_ms(), "ms");
    metrics->Set("success_rate",
                 1.0 - static_cast<double>(plain.failed) /
                           static_cast<double>(plain.attempted),
                 "frac");
    metrics->Set("answer_quality", clean_exact, "frac");
    metrics->Set("peak_rss_mb", PeakRssMb(), "MB");
    return outcome;
  }

  // ---- Traced phase.
  TraceLog log;
  Phase traced;
  {
    ScopedStageTrace hook(&log);
    traced = run_phase(phase_s, [&] {
      return std::make_shared<TracedSession>(
          std::make_shared<rpt::CleanerSession>(models.served.get(), schema),
          &log);
    });
  }
  outcome.attempted += traced.attempted;
  outcome.failed += traced.failed;
  outcome.correct = mismatched == 0;
  log.Attribute();
  outcome.correct = StagesAttributed(log) && outcome.correct;

  // CsvReader alone over the workload file, as many times as the passes.
  double csv_s = 0;
  uint64_t csv_bytes = std::filesystem::file_size(input);
  {
    const Clock::time_point t0 = Clock::now();
    for (size_t p = 0; p < traced.passes.size(); ++p) ReadCsv(input);
    csv_s = SecondsSince(t0);
  }
  const double wall_ms = 1000 * traced.seconds;
  double validate = 0, prep = 0, encode = 0, prefill = 0, decode = 0,
         busy = 0;
  for (const auto& b : log.batches()) {
    const double exec = MsBetween(b.begin, b.end);
    busy += exec + b.validate_ms;
    validate += b.validate_ms;
    encode += b.encode_ms;
    prefill += b.prefill_ms;
    decode += b.decode_ms;
    prep += exec - b.encode_ms - b.prefill_ms - b.decode_ms;
  }
  // The collector is the blocking path of a throughput-bound table: while
  // it is not validating or running a batch it waits on BulkPrepDriver's
  // thread (CSV parse, submit, reorder, write, checkpoint).
  const double idle = wall_ms - busy;
  outcome.correct = CheckBudget("clean-bulk", wall_ms,
                                {{"session_validate", validate},
                                 {"session_prep", prep},
                                 {"nn_encode", encode},
                                 {"nn_prefill", prefill},
                                 {"nn_decode", decode},
                                 {"bulk_csv", 1000 * csv_s},
                                 {"bulk_driver", idle - 1000 * csv_s}},
                                metrics) &&
                    outcome.correct;
  ReportSetup(reps, metrics);
  metrics->Set("latency.p99_ms", Pct(plain.pass_ms, 99), "ms");
  metrics->Set("net.overhead_ms_p50", 0, "ms");
  metrics->Set("net.bytes_per_op", 0, "B");
  rpt::RoutedStatsSnapshot last = traced.passes.back().stats;
  {
    // BulkPrepDriver consumes the per-cell responses itself, so queue wait is
    // the server's per-cell latency percentile minus the median batch time.
    std::vector<double> exec_ms;
    for (const auto& b : log.batches()) exec_ms.push_back(MsBetween(b.begin, b.end));
    metrics->Set("serve.queue_wait_ms_p50",
                 std::max(0.0, Median(traced.p50) - Median(exec_ms)), "ms");
    metrics->Set("serve.queue_wait_ms_p99",
                 std::max(0.0, Median(traced.p99) - Median(exec_ms)), "ms");
  }
  metrics->Set("serve.batch_rows_mean", last.total.mean_batch_size, "rows");
  metrics->Set("serve.cache_hit_rate", last.total.cache_hit_rate, "frac");
  uint64_t coalesced = 0, rejected = 0, cells_failed = 0;
  for (const auto& p : traced.passes) {
    coalesced += p.stats.total.coalesced;
    rejected += p.stats.total.rejected;
    cells_failed += p.report.cells_failed;
  }
  metrics->Set("serve.coalesced", static_cast<double>(coalesced), "count");
  metrics->Set("serve.rejected", static_cast<double>(rejected), "count");
  const auto& cfg = models.served->config();
  ModelShape shape{cfg.d_model, cfg.num_heads, cfg.ffn_dim,
                   models.served->vocab().size(), cfg.num_layers,
                   cfg.num_layers, cfg.max_target_len};
  KernelShape formed;
  ModelLayerReport(
      &log, wall_ms, shape, ids,
      [&](const std::string& out) {
        return static_cast<int64_t>(models.served->serializer()
                                        .EncodeValue(rpt::Value::Parse(out))
                                        .size());
      },
      metrics, &formed);
  const double traced_rps = traced.rows_per_s();
  metrics->Set("obs.trace_overhead_frac",
               traced_rps > 0 ? plain_rps / traced_rps - 1 : 0, "frac");
  metrics->Set("bulk.csv_mb_s",
               csv_s > 0 ? static_cast<double>(csv_bytes) *
                               static_cast<double>(traced.passes.size()) /
                               csv_s / 1e6
                         : 0,
               "MB/s");
  metrics->Set("bulk.driver_self_frac", 1.0 - (busy + 1000 * csv_s) / wall_ms,
               "frac");
  metrics->Set("bulk.cells_failed", static_cast<double>(cells_failed),
               "count");
  metrics->Set("loadgen.lag_p99_ms", 0, "ms");
  metrics->Set("loadgen.capacity_rps", 0, "1/s");
  metrics->Set("loadgen.sent", static_cast<double>(traced.attempted), "count");
  metrics->Set("loadgen.ok", static_cast<double>(traced.rows), "count");
  metrics->Set("loadgen.failed", static_cast<double>(traced.failed), "count");
  const MatchProbe probe = BuildMatchProbe();
  MeasureModelRows(models.checker.get(), &schema, &queries,
                   probe.matcher.get(), &probe.bench, &probe.bench.pairs,
                   metrics);
  MeasureKernelRows(formed, metrics);
  return outcome;
}

}  // namespace e2e
