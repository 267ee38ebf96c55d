#include "serve/shard.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "eval/metrics.h"
#include "eval/report.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/affinity.h"
#include "util/hash.h"
#include "util/logging.h"

namespace rpt {

namespace {

double ElapsedMs(std::chrono::steady_clock::time_point from,
                 std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Appends one span to the global tracer (which drops it when disabled).
/// `link_trace`/`link_span` carry an optional follows-from link to a span
/// in another request's trace (coalesced duplicates link to the
/// representative execution they rode).
void RecordSpan(const char* name, uint64_t trace_id, uint64_t span_id,
                uint64_t parent_id, std::chrono::steady_clock::time_point begin,
                std::chrono::steady_clock::time_point end,
                uint64_t link_trace = 0, uint64_t link_span = 0) {
  obs::GlobalTracer().Record({trace_id, span_id, parent_id, name, begin, end,
                              obs::CurrentThreadId(), link_trace, link_span});
}

AdaptiveConfig ControllerConfig(const ServerConfig& config) {
  RPT_CHECK(config.min_batch_delay <= config.max_batch_delay)
      << "min_batch_delay must not exceed max_batch_delay";
  AdaptiveConfig adaptive;
  adaptive.max_batch_size = config.max_batch_size;
  adaptive.min_delay = config.min_batch_delay;
  adaptive.max_delay = config.max_batch_delay;
  adaptive.target_queue_wait_ms = config.target_queue_wait_ms;
  return adaptive;
}

}  // namespace

// Metrics-registry handles for one shard, resolved once at construction so
// the Submit/CompleteBatch hot paths touch only atomics. The registry
// counters mirror the ServerStatsSnapshot fields, with one monotonicity
// change: a coalesced duplicate increments `cache_hits` without ever
// decrementing a miss — the registry exposes `cache_lookups` instead of
// misses, so every series stays a proper Prometheus counter.
struct ServeShard::Obs {
  obs::Counter* submitted;
  obs::Counter* completed;
  obs::Counter* rejected_queue_full;
  obs::Counter* rejected_shutdown;
  obs::Counter* expired;
  obs::Counter* invalid;
  obs::Counter* cache_lookups;
  obs::Counter* cache_hits;
  obs::Counter* coalesced;
  obs::Counter* inflight_coalesced;
  obs::Counter* batches;
  obs::Gauge* queue_depth;
  obs::Gauge* arrival_rate;
  obs::Gauge* effective_delay_us;
  obs::Counter* adapt_adjust;
  obs::Histogram* queue_wait_ms;
  obs::Histogram* batch_rows;
  obs::Histogram* execute_ms;
  obs::Histogram* latency_ms;
  obs::Histogram* arrival_interval_ms;

  explicit Obs(const ServerConfig& config) {
    obs::MetricsRegistry& reg = obs::GlobalMetrics();
    const obs::Labels label = {{"server", config.name}};
    submitted = reg.GetCounter("rpt_serve_submitted_total", label,
                               "Requests submitted to the shard");
    completed = reg.GetCounter("rpt_serve_completed_total", label,
                               "Requests completed through the model path");
    rejected_queue_full =
        reg.GetCounter("rpt_serve_rejected_total",
                       {{"server", config.name}, {"reason", "queue_full"}},
                       "Requests rejected at submit time");
    rejected_shutdown =
        reg.GetCounter("rpt_serve_rejected_total",
                       {{"server", config.name}, {"reason", "shutdown"}},
                       "Requests rejected at submit time");
    expired = reg.GetCounter("rpt_serve_expired_total", label,
                             "Requests whose deadline passed while queued");
    invalid = reg.GetCounter("rpt_serve_invalid_total", label,
                             "Requests rejected by session Validate");
    cache_lookups =
        reg.GetCounter("rpt_serve_cache_lookups_total", label,
                       "Response-cache lookup outcomes (hits + misses)");
    cache_hits = reg.GetCounter(
        "rpt_serve_cache_hits_total", label,
        "Submit-time LRU hits plus in-flight coalesced duplicates");
    coalesced = reg.GetCounter("rpt_serve_coalesced_total", label,
                               "Duplicates folded into one execution");
    inflight_coalesced = reg.GetCounter(
        "rpt_serve_inflight_coalesced_total", label,
        "Requests attached to an execution already queued or running");
    batches = reg.GetCounter("rpt_serve_batches_total", label,
                             "Model forward passes executed");
    queue_depth = reg.GetGauge("rpt_serve_queue_depth", label,
                               "Requests waiting in the shard queue");
    arrival_rate =
        reg.GetGauge("rpt_serve_arrival_rate_rps", label,
                     "EWMA request arrival rate in requests per second, "
                     "decayed by idle time");
    effective_delay_us = reg.GetGauge(
        "rpt_serve_effective_delay_us", label,
        "Straggler window the collector is currently applying, in "
        "microseconds");
    adapt_adjust =
        reg.GetCounter("rpt_serve_adapt_adjust_total", label,
                       "Adaptive-batching decisions that changed the "
                       "effective delay");
    queue_wait_ms = reg.GetHistogram(
        "rpt_serve_queue_wait_ms", label, obs::DefaultLatencyBucketsMs(),
        "Time from enqueue to micro-batch pickup in milliseconds");
    // One family, one bucket layout: the registry (correctly) aborts on a
    // per-shard layout, so batch-row buckets span every plausible
    // max_batch_size rather than following this shard's config.
    batch_rows = reg.GetHistogram(
        "rpt_serve_batch_rows", label, obs::PowerOfTwoBuckets(512),
        "Unique rows per executed forward pass");
    execute_ms = reg.GetHistogram(
        "rpt_serve_execute_ms", label, obs::DefaultLatencyBucketsMs(),
        "Model execution time per forward pass in milliseconds");
    latency_ms = reg.GetHistogram(
        "rpt_serve_latency_ms", label, obs::DefaultLatencyBucketsMs(),
        "Submit-to-completion latency in milliseconds (all served paths)");
    arrival_interval_ms = reg.GetHistogram(
        "rpt_serve_arrival_interval_ms", label,
        obs::DefaultLatencyBucketsMs(),
        "Gap between consecutive submits in milliseconds");
  }

  /// Per-submit accounting: arrival interval histogram and the arrival-rate
  /// gauge, refreshed with the estimator's *decayed* value so a quiet shard
  /// stops reporting its last burst's rate. The queue-depth gauge is
  /// deliberately not stamped here — cache hits and rejections never
  /// enqueue, so depth is recorded only after a successful push (and by the
  /// collector on pickup), keeping the gauge equal to queue_depth().
  void OnSubmit(double interval_ms, double decayed_rate) {
    if constexpr (!obs::kObsEnabled) return;
    submitted->Increment();
    if (interval_ms > 0) arrival_interval_ms->Observe(interval_ms);
    arrival_rate->Set(decayed_rate);
  }
};

std::future<ServeResponse> ReadyServeResponse(ServeResponse response) {
  std::promise<ServeResponse> promise;
  promise.set_value(std::move(response));
  return promise.get_future();
}

std::string ServerStatsSnapshot::Render(const std::string& name) const {
  std::ostringstream out;
  out << "==== " << name << " serving stats ====\n";
  ReportTable counters({"metric", "value"});
  counters.AddRow({"submitted", std::to_string(submitted)});
  counters.AddRow({"completed", std::to_string(completed)});
  counters.AddRow({"rejected (queue full)", std::to_string(rejected)});
  counters.AddRow({"rejected (shutdown)", std::to_string(shutdown_rejected)});
  counters.AddRow({"expired (deadline)", std::to_string(expired)});
  counters.AddRow({"invalid (rejected by session)", std::to_string(invalid)});
  counters.AddRow({"cache hits", std::to_string(cache_hits)});
  counters.AddRow({"cache hit rate", Fixed(cache_hit_rate, 3)});
  counters.AddRow({"coalesced (dupes folded)", std::to_string(coalesced)});
  counters.AddRow({"coalesced in-flight (cross-batch)",
                   std::to_string(inflight_coalesced)});
  counters.AddRow({"forward passes", std::to_string(batches)});
  counters.AddRow({"mean batch size", Fixed(mean_batch_size, 2)});
  if (adapt_adjustments > 0) {
    counters.AddRow(
        {"adaptive delay adjustments", std::to_string(adapt_adjustments)});
  }
  counters.AddRow({"queue depth", std::to_string(queue_depth)});
  counters.AddRow({"latency p50 (ms)", Fixed(p50_ms, 3)});
  counters.AddRow({"latency p95 (ms)", Fixed(p95_ms, 3)});
  counters.AddRow({"latency p99 (ms)", Fixed(p99_ms, 3)});
  counters.AddRow({"latency max (ms)", Fixed(max_ms, 3)});
  out << counters.Render();
  if (!batch_size_histogram.empty()) {
    ReportTable hist({"batch size", "passes"});
    for (const auto& [size, count] : batch_size_histogram) {
      hist.AddRow({std::to_string(size), std::to_string(count)});
    }
    out << hist.Render();
  }
  return out.str();
}

ServerStatsSnapshot AggregateStats(
    const std::vector<ServerStatsSnapshot>& parts,
    const std::vector<double>& latencies_ms) {
  ServerStatsSnapshot total;
  for (const ServerStatsSnapshot& p : parts) {
    total.submitted += p.submitted;
    total.completed += p.completed;
    total.rejected += p.rejected;
    total.shutdown_rejected += p.shutdown_rejected;
    total.expired += p.expired;
    total.invalid += p.invalid;
    total.cache_hits += p.cache_hits;
    total.cache_misses += p.cache_misses;
    total.coalesced += p.coalesced;
    total.inflight_coalesced += p.inflight_coalesced;
    total.batches += p.batches;
    total.adapt_adjustments += p.adapt_adjustments;
    total.queue_depth += p.queue_depth;
    for (const auto& [size, count] : p.batch_size_histogram) {
      total.batch_size_histogram[size] += count;
    }
  }
  const uint64_t lookups = total.cache_hits + total.cache_misses;
  if (lookups > 0) {
    total.cache_hit_rate = static_cast<double>(total.cache_hits) /
                           static_cast<double>(lookups);
  }
  uint64_t pass_rows = 0;
  for (const auto& [size, count] : total.batch_size_histogram) {
    pass_rows += size * count;
  }
  if (total.batches > 0) {
    total.mean_batch_size =
        static_cast<double>(pass_rows) / static_cast<double>(total.batches);
  }
  if (!latencies_ms.empty()) {
    total.p50_ms = Percentile(latencies_ms, 50);
    total.p95_ms = Percentile(latencies_ms, 95);
    total.p99_ms = Percentile(latencies_ms, 99);
    total.max_ms = *std::max_element(latencies_ms.begin(), latencies_ms.end());
  }
  return total;
}

ServeShard::ServeShard(std::shared_ptr<ModelSession> session,
                       ServerConfig config)
    : session_(std::move(session)),
      config_(std::move(config)),
      clock_(config_.clock != nullptr ? config_.clock.get() : SystemClock()),
      queue_(config_.queue_capacity),
      cache_(config_.cache_capacity),
      controller_(ControllerConfig(config_), clock_, &arrivals_),
      // Reservoir sampling seeded from the shard name: bounded memory with
      // run-reproducible sampling decisions.
      latencies_ms_(LatencyReservoir::kDefaultCapacity,
                    Fnv1a64(config_.name)),
      obs_(std::make_unique<Obs>(config_)) {
  RPT_CHECK(session_ != nullptr);
  RPT_CHECK_GE(config_.max_batch_size, 1u);
  obs_->effective_delay_us->Set(
      static_cast<double>(config_.max_batch_delay.count()));
  collector_ = std::thread([this] { CollectorLoop(); });
}

ServeShard::~ServeShard() { Shutdown(); }

std::future<ServeResponse> ServeShard::Submit(
    std::string input, std::chrono::milliseconds timeout) {
  // Shared-ptr because ServeCallback (std::function) requires a copyable
  // callable; the promise itself is move-only.
  auto promise = std::make_shared<std::promise<ServeResponse>>();
  std::future<ServeResponse> future = promise->get_future();
  SubmitAsync(
      std::move(input),
      [promise](ServeResponse r) { promise->set_value(std::move(r)); },
      timeout);
  return future;
}

void ServeShard::SubmitAsync(std::string input, ServeCallback done,
                             std::chrono::milliseconds timeout) {
  RPT_CHECK(done != nullptr) << "SubmitAsync needs a completion callback";
  const auto submitted_at = std::chrono::steady_clock::now();
  submitted_.fetch_add(1, std::memory_order_relaxed);
  // Arrival accounting uses the decision clock so the controller and the
  // exported rate gauge see one consistent arrival process.
  const auto arrival_at = clock_->Now();
  const double interval_ms = arrivals_.OnArrival(arrival_at);
  obs_->OnSubmit(interval_ms, arrivals_.RateAt(arrival_at));

  // Trace stamp: inherit the caller's trace (RoutedServer::Submit opens
  // one), or start a fresh one for direct shard submissions. The root
  // "serve.submit" span id is reserved now and recorded by whichever path
  // completes the request.
  obs::Tracer& tracer = obs::GlobalTracer();
  const bool tracing = tracer.enabled();
  uint64_t trace_id = 0;
  uint64_t root_span = 0;
  if (tracing) {
    trace_id = obs::CurrentTraceContext().trace_id;
    if (trace_id == 0) trace_id = tracer.NewTraceId();
    root_span = tracer.NewSpanId();
  }

  if (!accepting_.load(std::memory_order_acquire)) {
    shutdown_rejected_.fetch_add(1, std::memory_order_relaxed);
    obs_->rejected_shutdown->Increment();
    ServeResponse r;
    r.status = Status::Unavailable("server is shut down, not accepting work");
    if (tracing) {
      RecordSpan("serve.submit", trace_id, root_span, 0, submitted_at,
                 std::chrono::steady_clock::now());
    }
    done(std::move(r));
    return;
  }
  if (config_.cache_capacity > 0) {
    auto hit = cache_.Get(input);
    const auto looked_up = std::chrono::steady_clock::now();
    if (tracing) {
      RecordSpan("serve.cache_lookup", trace_id, tracer.NewSpanId(), root_span,
                 submitted_at, looked_up);
    }
    if (hit) {
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      obs_->cache_lookups->Increment();
      obs_->cache_hits->Increment();
      ServeResponse r;
      r.output = std::move(*hit);
      r.cache_hit = true;
      r.latency_ms = ElapsedMs(submitted_at, looked_up);
      obs_->latency_ms->Observe(r.latency_ms);
      if (tracing) {
        RecordSpan("serve.submit", trace_id, root_span, 0, submitted_at,
                   looked_up);
      }
      done(std::move(r));
      return;
    }
  }

  Pending p;
  p.input = std::move(input);
  p.done = std::move(done);
  p.enqueued = submitted_at;
  // milliseconds::max() means "no deadline"; adding it to now() would
  // overflow the steady_clock representation.
  p.has_deadline = timeout != std::chrono::milliseconds::max();
  if (p.has_deadline) p.deadline = p.enqueued + timeout;
  p.trace_id = tracing ? trace_id : 0;
  p.root_span = root_span;

  PushResult pushed;
  {
    // The map insert and the queue push are one atomic step under
    // inflight_mu_ (lock order: inflight before the queue's internal
    // mutex, never the reverse), so an entry in the map always has a live
    // representative behind it and a failed push never leaks an entry a
    // joiner could attach to.
    std::unique_lock<std::mutex> lock(inflight_mu_);
    const auto [it, inserted] = inflight_.try_emplace(p.input);
    if (!inserted) {
      // Coalesce: attach to the execution already queued or running.
      // Joiners inherit the in-flight result and never extend (or apply)
      // a deadline of their own.
      Joiner joiner;
      joiner.done = std::move(p.done);
      joiner.submitted = submitted_at;
      joiner.trace_id = p.trace_id;
      joiner.root_span = p.root_span;
      it->second.push_back(std::move(joiner));
      lock.unlock();
      inflight_coalesced_.fetch_add(1, std::memory_order_relaxed);
      obs_->inflight_coalesced->Increment();
      if (config_.cache_capacity > 0) {
        // One lookup outcome per admitted request: the joiner's miss is
        // converted into a hit when the execution it rode completes.
        cache_misses_.fetch_add(1, std::memory_order_relaxed);
        obs_->cache_lookups->Increment();
      }
      return;
    }
    pushed = queue_.TryPush(std::move(p));
    if (pushed != PushResult::kOk) inflight_.erase(it);
  }
  if (pushed != PushResult::kOk) {
    // The queue distinguishes full from closed: a Shutdown() racing this
    // Submit between the accepting_ check above and the push must surface
    // as a shutdown rejection, not be miscounted as backpressure. A failed
    // TryPush never moved `p`, so its callback is still ours to complete.
    ServeResponse r;
    if (pushed == PushResult::kClosed) {
      shutdown_rejected_.fetch_add(1, std::memory_order_relaxed);
      obs_->rejected_shutdown->Increment();
      r.status =
          Status::Unavailable("server is shut down, not accepting work");
    } else {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      obs_->rejected_queue_full->Increment();
      r.status = Status::Unavailable("request queue is full");
    }
    if (tracing) {
      RecordSpan("serve.submit", trace_id, root_span, 0, submitted_at,
                 std::chrono::steady_clock::now());
    }
    p.done(std::move(r));
    return;
  }
  // The gauge is stamped only on the enqueue path (and by the collector on
  // pickup), so it tracks queue_depth() instead of pre-push depths and
  // never-enqueued cache hits or rejections.
  obs_->queue_depth->Set(static_cast<double>(queue_.size()));
  // Counted only after the push succeeds: a rejected request never produces
  // a model execution, so it is not a lookup outcome and must not inflate
  // the hit-rate denominator under backpressure.
  if (config_.cache_capacity > 0) {
    cache_misses_.fetch_add(1, std::memory_order_relaxed);
    obs_->cache_lookups->Increment();
  }
}

void ServeShard::CollectorLoop() {
  if (config_.cpu_affinity >= 0 &&
      !PinCurrentThreadToCpu(config_.cpu_affinity)) {
    RPT_LOG(Warning) << "shard " << config_.name
                     << ": could not pin collector to cpu "
                     << config_.cpu_affinity;
  }
  // Every forward pass this thread runs dispatches under the shard's
  // configured backend; other threads are unaffected.
  ScopedComputeBackend backend_scope(config_.compute_backend);
  std::vector<Pending> batch;
  // Mirrors of the controller's decision state, collector-local so the
  // registry counter only moves when the effective window actually changed.
  uint64_t adjustments_seen = 0;
  for (;;) {
    batch.clear();
    // The window is decided once the first request of the batch is in hand
    // (not before blocking), so the decision sees the arrival rate and
    // queue depth of the batch actually forming. The callback runs under
    // the queue lock and touches only the controller + atomics.
    const bool alive = queue_.PopBatchWith(
        &batch, config_.max_batch_size, [&](size_t pending) {
          const std::chrono::microseconds delay =
              controller_.DecideDelay(pending);
          obs_->effective_delay_us->Set(static_cast<double>(delay.count()));
          const uint64_t adjustments = controller_.adjustments();
          if (adjustments != adjustments_seen) {
            obs_->adapt_adjust->Increment(adjustments - adjustments_seen);
            adjustments_seen = adjustments;
          }
          return delay;
        });
    if (!alive) {
      return;  // closed and drained
    }
    CompleteBatch(&batch);
  }
}

void ServeShard::CompleteBatch(std::vector<Pending>* batch) {
  const auto now = std::chrono::steady_clock::now();
  obs::Tracer& tracer = obs::GlobalTracer();
  const bool tracing = tracer.enabled();
  obs_->queue_depth->Set(static_cast<double>(queue_.size()));
  std::vector<Pending*> live;
  live.reserve(batch->size());
  uint64_t newly_expired = 0;
  uint64_t newly_invalid = 0;
  double max_queue_wait_ms = 0;
  for (Pending& p : *batch) {
    // Every popped request waited enqueue -> pickup, whatever its fate.
    const double wait_ms = ElapsedMs(p.enqueued, now);
    max_queue_wait_ms = std::max(max_queue_wait_ms, wait_ms);
    obs_->queue_wait_ms->Observe(wait_ms);
    if (tracing && p.trace_id != 0) {
      RecordSpan("serve.queue_wait", p.trace_id, tracer.NewSpanId(),
                 p.root_span, p.enqueued, now);
    }
    if (p.has_deadline && p.deadline < now) {
      // Joiners share the representative's fate: its deadline governed the
      // execution they attached to, so they inherit the expiry rather than
      // re-enqueuing a pass the representative was not allowed to wait for.
      std::vector<Joiner> joiners = TakeJoiners(p.input);
      ServeResponse r;
      r.status = Status::DeadlineExceeded(
          "deadline passed while the request was queued");
      r.latency_ms = ElapsedMs(p.enqueued, now);
      newly_expired += 1 + joiners.size();
      obs_->expired->Increment(1 + joiners.size());
      CompleteJoiners(std::move(joiners), r, now, 0, 0);
      p.done(std::move(r));
      if (tracing && p.trace_id != 0) {
        RecordSpan("serve.submit", p.trace_id, p.root_span, 0, p.enqueued,
                   now);
      }
      continue;
    }
    // Session-level validation runs here, on the single scheduler thread,
    // so a malformed or over-long payload fails its own request instead of
    // tripping a model-side check that would abort the process.
    if (Status valid = session_->Validate(p.input); !valid.ok()) {
      // Joiners submitted these exact bytes, so the validation verdict
      // applies to them as well.
      std::vector<Joiner> joiners = TakeJoiners(p.input);
      ServeResponse r;
      r.status = std::move(valid);
      r.latency_ms = ElapsedMs(p.enqueued, now);
      newly_invalid += 1 + joiners.size();
      obs_->invalid->Increment(1 + joiners.size());
      CompleteJoiners(std::move(joiners), r, now, 0, 0);
      p.done(std::move(r));
      if (tracing && p.trace_id != 0) {
        RecordSpan("serve.submit", p.trace_id, p.root_span, 0, p.enqueued,
                   now);
      }
      continue;
    }
    live.push_back(&p);
  }
  // Close the loop: the observed high queue wait is the signal the budget
  // clamp reacts to on the next decision.
  controller_.OnBatchComplete(max_queue_wait_ms, live.size());

  if (!live.empty()) {
    // Every live request carries a distinct payload: a duplicate submitted
    // while its twin was queued attached to the twin's in-flight entry
    // instead of enqueuing, so the batch's payloads go to the model as is.
    std::vector<std::string> inputs;
    inputs.reserve(live.size());
    for (Pending* p : live) inputs.push_back(std::move(p->input));

    // The collector runs the pass under the first live request's execute-
    // span context, so model-layer stage spans (encode, prefill, decode
    // steps — profile/perf_hooks.h via obs/stage_exporter.h) nest inside
    // one representative request's trace.
    uint64_t rep_exec_span = 0;
    if (tracing && live[0]->trace_id != 0) {
      rep_exec_span = tracer.NewSpanId();
    }
    const auto run_begin = std::chrono::steady_clock::now();
    std::vector<std::string> outputs;
    {
      obs::ScopedTraceContext rep_context(
          {rep_exec_span != 0 ? live[0]->trace_id : 0, rep_exec_span});
      outputs = session_->RunBatch(inputs);
    }
    RPT_CHECK_EQ(outputs.size(), inputs.size())
        << "session returned a mismatched batch";
    const auto done = std::chrono::steady_clock::now();
    const auto rows = static_cast<int64_t>(inputs.size());
    obs_->execute_ms->Observe(ElapsedMs(run_begin, done));
    obs_->batch_rows->Observe(static_cast<double>(rows));
    obs_->batches->Increment();
    // The cache is populated *before* each in-flight entry is resolved: a
    // concurrent submit either attaches to the entry (and is completed
    // below) or, once the entry is gone, finds the response already cached
    // — no window re-runs the pass.
    for (size_t i = 0; i < inputs.size(); ++i) {
      cache_.Put(inputs[i], outputs[i]);
    }
    std::vector<std::vector<Joiner>> joiners(inputs.size());
    size_t joiner_count = 0;
    for (size_t i = 0; i < inputs.size(); ++i) {
      joiners[i] = TakeJoiners(inputs[i]);
      joiner_count += joiners[i].size();
    }
    obs_->completed->Increment(live.size() + joiner_count);
    std::vector<double> lats;
    lats.reserve(live.size() + joiner_count);
    for (size_t i = 0; i < live.size(); ++i) {
      Pending& p = *live[i];
      ServeResponse r;
      r.output = outputs[i];
      r.latency_ms = ElapsedMs(p.enqueued, done);
      r.batch_size = rows;
      lats.push_back(r.latency_ms);
      obs_->latency_ms->Observe(r.latency_ms);
      uint64_t exec_span = 0;
      if (tracing && p.trace_id != 0) {
        // Per-request view of the shared batch: formation (validation),
        // execution, and the submit->completion root.
        RecordSpan("serve.batch", p.trace_id, tracer.NewSpanId(), p.root_span,
                   now, run_begin);
        exec_span = (i == 0 && rep_exec_span != 0) ? rep_exec_span
                                                   : tracer.NewSpanId();
        RecordSpan("serve.execute", p.trace_id, exec_span, p.root_span,
                   run_begin, done);
        RecordSpan("serve.submit", p.trace_id, p.root_span, 0, p.enqueued,
                   done);
      }
      p.done(std::move(r));
      // In-flight joiners get a copy of this row's output and a follows-
      // from link to the execution span it came from (recorded in this
      // request's trace, possibly batches after the joiner arrived).
      if (!joiners[i].empty()) {
        ServeResponse base;
        base.output = outputs[i];
        base.batch_size = rows;
        base.cache_hit = true;
        CompleteJoiners(std::move(joiners[i]), base, done, p.trace_id,
                        exec_span, &lats);
      }
    }
    if (joiner_count > 0 && config_.cache_capacity > 0) {
      // A joiner's submit-time miss becomes a hit on the execution it
      // rode, keeping hits + misses == one lookup outcome per admitted
      // request. The registry's cache_hits counter gets the same credit;
      // its lookup was already counted at submit time.
      cache_hits_.fetch_add(joiner_count, std::memory_order_relaxed);
      cache_misses_.fetch_sub(joiner_count, std::memory_order_relaxed);
      obs_->cache_hits->Increment(joiner_count);
    }
    obs_->coalesced->Increment(joiner_count);
    std::lock_guard<std::mutex> lock(stats_mu_);
    completed_ += live.size() + joiner_count;
    expired_ += newly_expired;
    invalid_ += newly_invalid;
    coalesced_ += joiner_count;
    ++batches_;
    ++batch_hist_[inputs.size()];
    for (const double lat : lats) latencies_ms_.Add(lat);
  } else if (newly_expired > 0 || newly_invalid > 0) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    expired_ += newly_expired;
    invalid_ += newly_invalid;
  }
}

std::vector<ServeShard::Joiner> ServeShard::TakeJoiners(
    const std::string& input) {
  std::lock_guard<std::mutex> lock(inflight_mu_);
  const auto it = inflight_.find(input);
  if (it == inflight_.end()) return {};
  std::vector<Joiner> joiners = std::move(it->second);
  inflight_.erase(it);
  return joiners;
}

void ServeShard::CompleteJoiners(std::vector<Joiner> joiners,
                                 const ServeResponse& base,
                                 std::chrono::steady_clock::time_point done_at,
                                 uint64_t exec_trace, uint64_t exec_span,
                                 std::vector<double>* lats_out) {
  if (joiners.empty()) return;
  obs::Tracer& tracer = obs::GlobalTracer();
  const bool tracing = tracer.enabled();
  for (Joiner& joiner : joiners) {
    ServeResponse r = base;
    r.latency_ms = ElapsedMs(joiner.submitted, done_at);
    if (lats_out != nullptr) lats_out->push_back(r.latency_ms);
    obs_->latency_ms->Observe(r.latency_ms);
    if (tracing && joiner.trace_id != 0) {
      // Cross-batch follows-from: the joiner's own trace shows the window
      // it spent attached, with an arrow to the execution (in the
      // representative's trace) that actually produced its bytes.
      if (exec_span != 0) {
        RecordSpan("serve.execute", joiner.trace_id, tracer.NewSpanId(),
                   joiner.root_span, joiner.submitted, done_at, exec_trace,
                   exec_span);
      }
      RecordSpan("serve.submit", joiner.trace_id, joiner.root_span, 0,
                 joiner.submitted, done_at);
    }
    joiner.done(std::move(r));
  }
}

void ServeShard::Shutdown() {
  std::call_once(shutdown_once_, [this] {
    accepting_.store(false, std::memory_order_release);
    queue_.Close();  // collector drains the remainder, then exits
    if (collector_.joinable()) collector_.join();
  });
}

ServerStatsSnapshot ServeShard::Stats() const {
  ServerStatsSnapshot s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.shutdown_rejected = shutdown_rejected_.load(std::memory_order_relaxed);
  s.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  s.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  s.inflight_coalesced = inflight_coalesced_.load(std::memory_order_relaxed);
  s.queue_depth = queue_.size();
  const uint64_t lookups = s.cache_hits + s.cache_misses;
  if (lookups > 0) {
    s.cache_hit_rate =
        static_cast<double>(s.cache_hits) / static_cast<double>(lookups);
  }
  s.adapt_adjustments = controller_.adjustments();
  std::vector<double> lats;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    s.completed = completed_;
    s.expired = expired_;
    s.invalid = invalid_;
    s.coalesced = coalesced_;
    s.batches = batches_;
    s.batch_size_histogram = batch_hist_;
    lats = latencies_ms_.samples();
  }
  uint64_t pass_rows = 0;
  for (const auto& [size, count] : s.batch_size_histogram) {
    pass_rows += size * count;
  }
  if (s.batches > 0) {
    s.mean_batch_size =
        static_cast<double>(pass_rows) / static_cast<double>(s.batches);
  }
  if (!lats.empty()) {
    s.p50_ms = Percentile(lats, 50);
    s.p95_ms = Percentile(lats, 95);
    s.p99_ms = Percentile(lats, 99);
    s.max_ms = *std::max_element(lats.begin(), lats.end());
  }
  return s;
}

std::vector<double> ServeShard::RawLatencies() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return latencies_ms_.samples();
}

}  // namespace rpt
