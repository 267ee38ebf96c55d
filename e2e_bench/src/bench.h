// Shared declarations of the real-model end-to-end benchmark.
//
// One process runs one workload: it generates seeded inputs from src/synth,
// trains the route's RPT model, freezes it through WeightStore (save, map,
// bind), serves it behind RoutedServer (and HttpServer where the workload
// uses HTTP), drives the workload, checks every answer against an
// in-process reference, and prints one JSON result line. See README.md.

#ifndef E2E_BENCH_BENCH_H_
#define E2E_BENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "nn/weight_store.h"
#include "rpt/cleaner.h"
#include "rpt/matcher.h"
#include "serve/model_session.h"
#include "serve/routed_server.h"
#include "synth/benchmarks.h"
#include "table/table.h"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double SecondsSince(Clock::time_point a) {
  return std::chrono::duration<double>(Clock::now() - a).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;
};

// ---- Statistics -----------------------------------------------------------

/// Linear-interpolation percentile of `v` (q in [0, 100]); 0 when empty.
double Pct(std::vector<double> v, double q);
double Median(std::vector<double> v);
/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();

// ---- Result line ----------------------------------------------------------

/// Named metrics in print order.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Prints `name value unit` rows for humans.
  void PrintTable(const std::string& title) const;
  /// {"name": {"value": v, "unit": u}, ...}
  std::string Json() const;

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> values_;
};

// ---- Tracing (bench-owned; nothing inside src/ is changed) -----------------

/// In-memory span log of one traced phase: the decorator's Validate and
/// RunBatch spans (with the batch's payload hashes and outputs) and the nn
/// stage spans delivered through SetStageTimingHook.
class TraceLog {
 public:
  struct Span {
    Clock::time_point begin, end;
  };
  struct Batch {
    Clock::time_point begin, end;
    std::vector<uint64_t> payload_hashes;
    std::vector<std::string> outputs;
    // Filled by Attribute(): stage time inside this RunBatch, and the
    // Validate time spent forming it.
    double encode_ms = 0, prefill_ms = 0, decode_ms = 0, validate_ms = 0;
  };

  void AddValidate(Clock::time_point b, Clock::time_point e);
  void AddBatch(Batch batch);
  void AddStage(const char* stage, Clock::time_point b, Clock::time_point e);

  /// Assigns stage spans to the RunBatch span that contains them and
  /// Validate spans to the batch formed right after them. Call once, after
  /// the traced phase has drained.
  void Attribute();

  std::vector<Batch>& batches() { return batches_; }
  const std::vector<Span>& validates() const { return validates_; }
  /// Stage spans that fell outside every RunBatch (should be none).
  int64_t orphan_stages() const { return orphan_stages_; }

 private:
  std::mutex mu_;
  std::vector<Span> validates_;
  std::vector<Batch> batches_;
  std::vector<std::pair<int, Span>> stages_;  // 0 encode, 1 prefill, 2 decode
  int64_t orphan_stages_ = 0;
};

/// ModelSession decorator: times Validate and RunBatch of the wrapped
/// session into a TraceLog. Installed only in traced phases.
class TracedSession : public rpt::ModelSession {
 public:
  TracedSession(std::shared_ptr<rpt::ModelSession> inner, TraceLog* log)
      : inner_(std::move(inner)), log_(log) {}
  std::string name() const override { return inner_->name(); }
  rpt::Status Validate(const std::string& input) const override;
  std::vector<std::string> RunBatch(
      const std::vector<std::string>& inputs) override;

 private:
  std::shared_ptr<rpt::ModelSession> inner_;
  TraceLog* log_;
};

/// Installs a stage hook feeding `log` for the scope's lifetime.
class ScopedStageTrace {
 public:
  explicit ScopedStageTrace(TraceLog* log);
  ~ScopedStageTrace();
  ScopedStageTrace(const ScopedStageTrace&) = delete;
  ScopedStageTrace& operator=(const ScopedStageTrace&) = delete;
};

/// One row of the per-layer time budget.
struct BudgetRow {
  std::string layer;
  double ms = 0;
};

/// Prints the share table, sets the budget.* metrics and returns whether
/// the budget holds: no row is negative and the rows add back up to the
/// wall time within kBudgetTolerance. Each budget has one leftover row
/// (queue wait, net or bulk driver time is a difference of two measured
/// times), so the rows sum to the wall by construction whenever no row is
/// negative; the check therefore tests that the measured differences are
/// consistent, i.e. that no layer was counted twice or against the wrong
/// clock.
bool CheckBudget(const std::string& workload, double wall_ms,
                 const std::vector<BudgetRow>& rows, Metrics* metrics);

/// Whether every nn stage span of an attributed TraceLog fell inside a
/// RunBatch; prints the count of those that did not.
bool StagesAttributed(const TraceLog& log);

/// The tolerance the budget must meet: |Σ rows / wall − 1| ≤ 5%.
inline constexpr double kBudgetTolerance = 0.05;

// ---- Models and set-up -----------------------------------------------------

/// Time spent in each set-up phase, seconds.
struct SetupTimes {
  double datagen_s = 0, train_s = 0, weights_s = 0, server_start_s = 0;
  double total() const {
    return datagen_s + train_s + weights_s + server_start_s;
  }
};

/// Cleaning data: the fixed training catalogs, a fixed rendering of the
/// held-out products (`catalog`: the vocabulary covers it, and
/// answer_quality is measured on it) and the seeded held-out rendering the
/// traffic is drawn from (`heldout`, ground truth).
struct CleanData {
  rpt::Table train, catalog, heldout;
};
CleanData GenerateCleanData(uint64_t seed);
rpt::CleanerConfig CleanerModelConfig();
/// Fixed optimizer-step budget of the cleaner at set-up.
inline constexpr int64_t kCleanerTrainSteps = 150;

/// The matcher's direct-call rows (traced clean-bulk runs): a fixed
/// Walmart-Amazon-shaped benchmark and an RPT-E matcher over its vocabulary
/// with freshly initialised weights. No workload serves the matcher, and
/// its forward pass costs the same whatever the weight values, so the rows
/// time ScorePairsBatch without training it.
struct MatchProbe {
  rpt::ErBenchmark bench;
  std::unique_ptr<rpt::RptMatcher> matcher;
};
MatchProbe BuildMatchProbe();

/// The trained cleaner frozen to `<workdir>/cleaner.rptw`, mapped back, and
/// bound into `served` (the replica the server runs) and `checker` (a second
/// replica on the same blob that computes reference answers in process).
struct CleanerModels {
  std::shared_ptr<const rpt::WeightStore> store;
  std::unique_ptr<rpt::RptCleaner> served, checker;
};

/// Trains and binds; `times` receives train_s and weights_s.
CleanerModels BuildCleaner(const CleanData& data, const std::string& workdir,
                           SetupTimes* times);

/// Route configuration shared by every workload (default kStrict exactness).
rpt::ServerConfig RouteConfig();

/// Untraced runs set up this many times; setup_s is the median and the
/// last repetition is the one served. Traced runs set up once.
inline constexpr int kSetupRepeats = 3;

/// Runs `set_up` (which fills the SetupTimes it is given and returns a
/// unique_ptr to everything it built) kSetupRepeats times, or once when
/// tracing. The previous repetition is torn down before the next starts, so
/// every repetition starts from the same state. Returns the last one and
/// appends each repetition's times to `reps`.
template <typename SetUp>
auto SetUpRepeated(const Args& args, std::vector<SetupTimes>* reps,
                   SetUp set_up) {
  decltype(set_up(nullptr)) world;
  const int repeats = args.trace ? 1 : kSetupRepeats;
  for (int rep = 0; rep < repeats; ++rep) {
    world.reset();
    SetupTimes times;
    world = set_up(&times);
    reps->push_back(times);
  }
  std::printf("set-up s:");
  for (const auto& t : *reps) std::printf(" %.4f", t.total());
  std::printf("\n");
  return world;
}

/// Median of the repetitions' set-up totals.
double SetupSeconds(const std::vector<SetupTimes>& reps);

/// setup.* per-layer rows: the median of each phase over the repetitions.
void ReportSetup(const std::vector<SetupTimes>& reps, Metrics* metrics);

/// A tuple as a session parses it back out of its payload: every field
/// re-parsed from its text, so numeric-looking strings become numbers.
/// References are computed on this form.
rpt::Tuple AsServed(const rpt::Tuple& tuple);

/// answer_quality of the clean workloads: the share of a fixed sample of
/// masked cells of `data.catalog` (the seed-independent held-out
/// rendering) whose repair by `checker` equals the ground truth under
/// NormalizedExactMatch. It does not depend on the workload seed, so it
/// moves only when the trained model or the nn code changes.
double CleanQuality(const rpt::RptCleaner& checker, const CleanData& data);

// ---- Workloads -------------------------------------------------------------

/// Runs one workload end to end; fills `metrics` and the attempted/failed
/// counts and returns whether every checked answer was correct.
struct Outcome {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
};
Outcome RunCleanOnline(const Args& args, Metrics* metrics);
Outcome RunCleanBulk(const Args& args, Metrics* metrics);

/// Direct-call layer rows (traced runs): PredictBatch / ScorePairsBatch at
/// batch 1, 8 and 32 (either model may be null: its rows read 0).
void MeasureModelRows(const rpt::RptCleaner* cleaner,
                      const rpt::Schema* clean_schema,
                      const std::vector<rpt::CellQuery>* clean_queries,
                      const rpt::RptMatcher* matcher,
                      const rpt::ErBenchmark* match_bench,
                      const std::vector<rpt::LabeledPair>* match_pairs,
                      Metrics* metrics);

/// Kernel rows at the shapes a workload formed: `rows` sequences of padded
/// length `len` through a d_model/ffn/vocab-sized model.
struct KernelShape {
  int64_t rows = 1, len = 1, d_model = 64, heads = 4, ffn = 128, vocab = 1;
};
void MeasureKernelRows(const KernelShape& shape, Metrics* metrics);

/// Sizes of the served model, for FLOP counts and kernel shapes.
struct ModelShape {
  int64_t d_model = 64, heads = 4, ffn = 128, vocab = 1;
  int64_t encoder_layers = 2, decoder_layers = 0, max_target_len = 0;
};

/// Model-layer metrics of a traced phase (stage sums and shares, session
/// prep and validate, decode steps per row, padding, FLOP rates,
/// serve.model_busy_frac). `ids` maps payload hashes to encoder token ids;
/// `output_tokens` counts the decoder tokens of one served output. Returns
/// the median batch shape in `formed`. Call after log->Attribute().
void ModelLayerReport(
    TraceLog* log, double wall_ms, const ModelShape& model,
    const std::unordered_map<uint64_t, std::vector<int32_t>>& ids,
    const std::function<int64_t(const std::string&)>& output_tokens,
    Metrics* metrics, KernelShape* formed);

/// Fingerprint of generated traffic, printed so two runs can be compared.
void PrintFingerprint(const std::string& workload,
                      const std::vector<std::string>& payloads,
                      const std::vector<int64_t>& token_counts,
                      double repeat_share, double decode_steps_per_row);

}  // namespace e2e

#endif  // E2E_BENCH_BENCH_H_
