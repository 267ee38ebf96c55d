// Statistics, the result line, and the bench-owned trace recorder.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "bench.h"
#include "profile/perf_hooks.h"
#include "util/hash.h"

namespace e2e {

double Pct(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Pct(std::move(v), 50); }

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// ---- Metrics ----------------------------------------------------------------

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  if (values_.find(name) == values_.end()) order_.push_back(name);
  values_[name] = {std::isfinite(value) ? value : 0.0, unit};
}

void Metrics::PrintTable(const std::string& title) const {
  std::printf("\n== %s ==\n", title.c_str());
  for (const auto& name : order_) {
    const auto& [value, unit] = values_.at(name);
    std::printf("  %-28s %14.6g %s\n", name.c_str(), value, unit.c_str());
  }
}

std::string Metrics::Json() const {
  std::string out = "{";
  char buf[96];
  for (size_t i = 0; i < order_.size(); ++i) {
    const auto& [value, unit] = values_.at(order_[i]);
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out += (i ? ", \"" : "\"") + order_[i] + "\": {\"value\": " + buf +
           ", \"unit\": \"" + unit + "\"}";
  }
  return out + "}";
}

// ---- Trace recorder -----------------------------------------------------------

void TraceLog::AddValidate(Clock::time_point b, Clock::time_point e) {
  std::lock_guard<std::mutex> lock(mu_);
  validates_.push_back({b, e});
}

void TraceLog::AddBatch(Batch batch) {
  std::lock_guard<std::mutex> lock(mu_);
  batches_.push_back(std::move(batch));
}

void TraceLog::AddStage(const char* stage, Clock::time_point b,
                        Clock::time_point e) {
  int kind = -1;
  if (std::strcmp(stage, "nn.encode") == 0) kind = 0;
  if (std::strcmp(stage, "nn.prefill") == 0) kind = 1;
  if (std::strcmp(stage, "nn.decode_step") == 0) kind = 2;
  if (kind < 0) return;  // enclosing scopes (generate, session.*) nest these
  std::lock_guard<std::mutex> lock(mu_);
  stages_.push_back({kind, {b, e}});
}

void TraceLog::Attribute() {
  std::lock_guard<std::mutex> lock(mu_);
  auto by_begin = [](const auto& x, const auto& y) { return x.begin < y.begin; };
  std::sort(batches_.begin(), batches_.end(), by_begin);
  std::sort(validates_.begin(), validates_.end(), by_begin);
  std::sort(stages_.begin(), stages_.end(), [](const auto& x, const auto& y) {
    return x.second.begin < y.second.begin;
  });
  size_t s = 0, v = 0;
  for (Batch& batch : batches_) {
    // Validate runs on the collector while the batch forms, i.e. after the
    // previous RunBatch and before this one.
    while (v < validates_.size() && validates_[v].end <= batch.begin) {
      batch.validate_ms += MsBetween(validates_[v].begin, validates_[v].end);
      ++v;
    }
    while (s < stages_.size() && stages_[s].second.begin < batch.begin) {
      ++orphan_stages_;
      ++s;
    }
    while (s < stages_.size() && stages_[s].second.end <= batch.end) {
      const double ms = MsBetween(stages_[s].second.begin,
                                  stages_[s].second.end);
      switch (stages_[s].first) {
        case 0: batch.encode_ms += ms; break;
        case 1: batch.prefill_ms += ms; break;
        default: batch.decode_ms += ms; break;
      }
      ++s;
    }
  }
  orphan_stages_ += static_cast<int64_t>(stages_.size() - s);
}

rpt::Status TracedSession::Validate(const std::string& input) const {
  const Clock::time_point b = Clock::now();
  rpt::Status status = inner_->Validate(input);
  log_->AddValidate(b, Clock::now());
  return status;
}

std::vector<std::string> TracedSession::RunBatch(
    const std::vector<std::string>& inputs) {
  TraceLog::Batch batch;
  batch.begin = Clock::now();
  std::vector<std::string> out = inner_->RunBatch(inputs);
  batch.end = Clock::now();
  batch.payload_hashes.reserve(inputs.size());
  for (const auto& in : inputs) batch.payload_hashes.push_back(rpt::Fnv1a64(in));
  batch.outputs = out;
  log_->AddBatch(std::move(batch));
  return out;
}

ScopedStageTrace::ScopedStageTrace(TraceLog* log) {
  rpt::SetStageTimingHook(
      [log](const char* stage, rpt::StageClock::time_point b,
            rpt::StageClock::time_point e) { log->AddStage(stage, b, e); });
}

ScopedStageTrace::~ScopedStageTrace() { rpt::SetStageTimingHook(nullptr); }

// ---- Reports ------------------------------------------------------------------

bool CheckBudget(const std::string& workload, double wall_ms,
                 const std::vector<BudgetRow>& rows, Metrics* metrics) {
  std::printf("\n== per-layer time budget: %s (wall %.1f ms) ==\n",
              workload.c_str(), wall_ms);
  // Every workload reports the same rows; layers it does not use read 0.
  static const char* const kLayers[] = {
      "loadgen_lag",  "conn_wait",        "net",          "serve_queue",
      "serve_cache",  "session_validate", "session_prep", "nn_encode",
      "nn_prefill",   "nn_decode",        "bulk_csv",     "bulk_driver"};
  for (const char* layer : kLayers) {
    metrics->Set(std::string("budget.") + layer + "_frac", 0, "frac");
  }
  double sum = 0;
  bool ok = wall_ms > 0;
  for (const auto& row : rows) {
    const double share = wall_ms > 0 ? row.ms / wall_ms : 0;
    sum += row.ms;
    std::printf("  %-24s %12.2f ms %7.2f%%%s\n", row.layer.c_str(), row.ms,
                100 * share, row.ms < 0 ? "  NEGATIVE" : "");
    ok = ok && row.ms >= 0;
    metrics->Set("budget." + row.layer + "_frac", share, "frac");
  }
  const double sum_frac = wall_ms > 0 ? sum / wall_ms : 0;
  ok = ok && std::fabs(sum_frac - 1) <= kBudgetTolerance;
  std::printf("  %-24s %12.2f ms %7.2f%%  (no negative row, tolerance "
              "+-%.0f%%: %s)\n",
              "sum", sum, 100 * sum_frac, 100 * kBudgetTolerance,
              ok ? "ok" : "FAIL");
  metrics->Set("budget.sum_frac", sum_frac, "frac");
  return ok;
}

bool StagesAttributed(const TraceLog& log) {
  if (log.orphan_stages() == 0) return true;
  std::printf("%lld nn stage spans fell outside every RunBatch\n",
              static_cast<long long>(log.orphan_stages()));
  return false;
}

double SetupSeconds(const std::vector<SetupTimes>& reps) {
  std::vector<double> totals;
  for (const auto& t : reps) totals.push_back(t.total());
  return Median(totals);
}

void ReportSetup(const std::vector<SetupTimes>& reps, Metrics* metrics) {
  std::vector<double> datagen, train, weights, start;
  for (const auto& t : reps) {
    datagen.push_back(t.datagen_s);
    train.push_back(t.train_s);
    weights.push_back(1000 * t.weights_s);
    start.push_back(1000 * t.server_start_s);
  }
  metrics->Set("setup.datagen_s", Median(datagen), "s");
  metrics->Set("setup.train_s", Median(train), "s");
  metrics->Set("setup.weights_ms", Median(weights), "ms");
  metrics->Set("setup.server_start_ms", Median(start), "ms");
}

void PrintFingerprint(const std::string& workload,
                      const std::vector<std::string>& payloads,
                      const std::vector<int64_t>& token_counts,
                      double repeat_share, double decode_steps_per_row) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const auto& p : payloads) hash = rpt::Fnv1a64(p) ^ (hash * 1099511628211ull);
  double mean_tokens = 0;
  int64_t max_tokens = 0;
  for (int64_t t : token_counts) {
    mean_tokens += static_cast<double>(t);
    max_tokens = std::max(max_tokens, t);
  }
  if (!token_counts.empty()) {
    mean_tokens /= static_cast<double>(token_counts.size());
  }
  std::printf(
      "fingerprint %s: payload_hash=%016llx count=%zu mean_tokens=%.2f "
      "max_tokens=%lld repeat_share=%.4f decode_steps_per_row=%.4f\n",
      workload.c_str(), static_cast<unsigned long long>(hash),
      payloads.size(), mean_tokens, static_cast<long long>(max_tokens),
      repeat_share, decode_steps_per_row);
}

}  // namespace e2e
