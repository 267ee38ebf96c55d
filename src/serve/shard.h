// ServeShard: the queue/collector/cache/stats core of the serving layer.
//
// One shard owns one ModelSession, one bounded request queue, one collector
// thread that drains the queue into dynamic micro-batches, one LRU response
// cache, and one set of counters. It is the serving unit: single-session
// callers use a shard directly, and RoutedServer (serve/routed_server.h)
// fans requests out over named pools of shards.
//
// Scheduling semantics: micro-batches gather up to `max_batch_size`
// requests; a full queue rejects at Submit with kUnavailable; a request
// whose deadline passes while queued completes with kDeadlineExceeded;
// payloads the session's Validate rejects complete with that status;
// Shutdown() stops intake, drains everything accepted, and joins the
// collector.
//
// How long a batch waits for stragglers is decided per batch by the
// shard's AdaptiveBatchController (serve/adaptive.h), on the collector
// thread, once the batch's first request is in hand: from the decayed EWMA
// arrival rate and the recent observed queue wait, within
// [min_batch_delay, max_batch_delay] and the `target_queue_wait_ms` budget.
// A lone request at low load waits only `min_batch_delay`; a full batch
// closes at once. `min_batch_delay == max_batch_delay` is an exact fixed
// window of that length. Outputs are unaffected — the window only moves
// *when* a batch closes, never what the model computes.
//
// Dedup is byte-exact. Two requests are "the same" only when their payloads
// are identical bytes, so every served response is the model's answer for
// the exact payload submitted. A session payload's field order carries
// meaning (the cleaner's column index, which attribute holds which value),
// so no normalization of it is ever safe to key on. Two layers absorb
// repeats:
//
//  * The LRU response cache (`cache_capacity`) answers a payload the model
//    has already run, at submit time.
//  * In-flight coalescing: a request whose payload matches one already
//    queued *or executing* attaches an extra completion callback to the
//    pending entry instead of enqueuing a second forward pass. Joiners
//    share the fate of the in-flight execution: they inherit its result
//    (or its deadline/validation failure) and never extend its deadline —
//    a late joiner's own timeout is not consulted once attached. Joiners
//    count as `inflight_coalesced` and `coalesced`, convert their
//    submit-time miss into a hit, and carry a follows-from trace link to
//    the execution they rode. Because an in-flight entry lives from push
//    until its batch completes, no micro-batch ever holds one payload
//    twice.
//
// Accounting rules the counters obey:
//  * a cache miss is counted only once the request is actually enqueued —
//    a queue-full rejection is not a lookup outcome, so backpressure cannot
//    deflate the hit rate;
//  * post-shutdown submissions are `shutdown_rejected`, distinct from the
//    queue-full `rejected`;
//  * cache-hit responses carry the submit→return latency, so client-side
//    latency accounting is consistent across hit and miss paths;
//  * each admitted request contributes exactly one lookup outcome (when the
//    cache is enabled): a joiner's submit-time miss becomes a hit when the
//    execution it rode completes.

#ifndef RPT_SERVE_SHARD_H_
#define RPT_SERVE_SHARD_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "nn/backend.h"
#include "serve/adaptive.h"
#include "serve/lru_cache.h"
#include "serve/model_session.h"
#include "serve/reservoir.h"
#include "util/bounded_queue.h"
#include "util/status.h"

namespace rpt {

struct ServerConfig {
  /// Largest micro-batch handed to the session in one forward pass.
  size_t max_batch_size = 8;
  /// Upper bound of the straggler window the collector holds a batch open
  /// for after its first request arrives.
  std::chrono::microseconds max_batch_delay{2000};
  /// Pending-request bound; Submit rejects with kUnavailable beyond it.
  size_t queue_capacity = 256;
  /// LRU response-cache entries keyed on the payload; 0 disables caching.
  size_t cache_capacity = 1024;
  /// Value of the `server` label on this shard's metrics registry series
  /// (obs/metrics.h). RoutedServer names its shards "<route>#<index>".
  std::string name = "serve";
  /// Lower bound of the straggler window (still lets a same-instant burst
  /// coalesce into one pass); a hard floor. Set it equal to
  /// `max_batch_delay` for a fixed window.
  std::chrono::microseconds min_batch_delay{100};
  /// Queue-wait budget in milliseconds; the controller keeps the p95-ish
  /// observed wait inside it (never below `min_batch_delay`).
  double target_queue_wait_ms = 5.0;
  /// Time source for batching decisions; null means SystemClock().
  /// Tests inject a fake Clock (serve/adaptive.h) to drive the controller
  /// deterministically.
  std::shared_ptr<const Clock> clock;
  /// Compute backend this shard's collector runs forward passes under
  /// (nn/backend.h). kAuto inherits the process-wide dispatch policy;
  /// cpu-scalar / cpu-simd pin kernel dispatch for the collector thread
  /// only. cpu-int8 additionally requires the session's model to be bound
  /// to a WeightStore with that backend (the quantized weights live there).
  ComputeBackend compute_backend = ComputeBackend::kAuto;
  /// Pin the collector thread to this logical CPU (util/affinity.h);
  /// -1 leaves it unpinned. RoutedServer can assign these round-robin
  /// (RouteSpec::pin_collectors).
  int cpu_affinity = -1;
};

/// Outcome of one request.
struct ServeResponse {
  Status status;          // Ok, Unavailable (rejected), DeadlineExceeded
  std::string output;     // session output; empty unless status.ok()
  double latency_ms = 0;  // submit -> completion, as seen by the server
  bool cache_hit = false;  // served from the LRU, or coalesced in flight
  int64_t batch_size = 0;  // rows of the forward pass this rode in (0 if
                           // it never reached the model)
};

/// A point-in-time view of one shard's counters.
struct ServerStatsSnapshot {
  uint64_t submitted = 0;
  uint64_t completed = 0;  // completed Ok through the model path
                           // (coalesced duplicates included)
  uint64_t rejected = 0;   // queue-full backpressure
  uint64_t shutdown_rejected = 0;  // submitted after Shutdown()
  uint64_t expired = 0;            // deadline passed while queued
  uint64_t invalid = 0;    // failed session Validate (kInvalidArgument)
  uint64_t cache_hits = 0;  // submit-time LRU hits + in-flight joiners
  uint64_t cache_misses = 0;
  uint64_t coalesced = 0;  // duplicates folded into one execution
  uint64_t inflight_coalesced = 0;  // requests attached to an execution
                                    // already queued or running
  uint64_t batches = 0;       // forward passes executed
  uint64_t adapt_adjustments = 0;  // straggler-window changes (0 when
                                   // min_batch_delay == max_batch_delay)
  size_t queue_depth = 0;  // at snapshot time
  double mean_batch_size = 0;  // forward-pass rows / forward passes
  /// forward-pass rows -> number of passes with exactly that many rows.
  std::map<size_t, uint64_t> batch_size_histogram;
  /// Model-path latencies (cache hits and rejections excluded).
  double p50_ms = 0, p95_ms = 0, p99_ms = 0, max_ms = 0;
  double cache_hit_rate = 0;  // hits / (hits + misses), 0 when no lookups

  /// Renders the snapshot as aligned eval/report tables ("<name> serving
  /// stats" banner, counters table, batch-size histogram).
  std::string Render(const std::string& name) const;
};

/// Sums counters and histograms across shard snapshots and recomputes the
/// derived fields. Percentiles cannot be summed, so the caller passes the
/// shards' merged latency reservoir samples (ServeShard::RawLatencies).
ServerStatsSnapshot AggregateStats(
    const std::vector<ServerStatsSnapshot>& parts,
    const std::vector<double>& latencies_ms);

/// An already-completed future, for responses decided at submit time.
std::future<ServeResponse> ReadyServeResponse(ServeResponse response);

/// Completion continuation of one asynchronously submitted request.
///
/// Threading contract: responses decided at submit time — cache hits,
/// queue-full backpressure, post-shutdown rejections (and, at the routed
/// level, unknown routes) — invoke the callback *inline on the submitting
/// thread, before SubmitAsync returns*, with the same latency and counter
/// accounting as the synchronous path. Responses that reach the model
/// (including deadline expiries and Validate failures discovered at batch
/// formation) invoke it on the shard's collector thread. Either way the
/// callback runs exactly once and must not block: the collector thread is
/// the micro-batching scheduler, so a blocking callback stalls every other
/// request on the shard. Event-loop callers bridge back to their own thread
/// (net/http_server.h posts through an eventfd wakeup).
using ServeCallback = std::function<void(ServeResponse)>;

class ServeShard {
 public:
  ServeShard(std::shared_ptr<ModelSession> session, ServerConfig config = {});
  ~ServeShard();  // implicit Shutdown()

  ServeShard(const ServeShard&) = delete;
  ServeShard& operator=(const ServeShard&) = delete;

  /// Enqueues one request. The future always completes: with the model
  /// output, a cached response, kUnavailable (queue full / shut down), or
  /// kDeadlineExceeded (`timeout` elapsed before execution; the default is
  /// effectively unbounded). Implemented as SubmitAsync completing a
  /// promise, so both APIs share one accounting path.
  std::future<ServeResponse> Submit(
      std::string input,
      std::chrono::milliseconds timeout = std::chrono::milliseconds::max());

  /// Continuation-passing Submit: `done` receives the response instead of a
  /// future (see ServeCallback for the threading contract). This is the
  /// primitive the HTTP front-end's event loop needs — it must never block
  /// on an inference future.
  void SubmitAsync(
      std::string input, ServeCallback done,
      std::chrono::milliseconds timeout = std::chrono::milliseconds::max());

  /// Stops intake, drains every queued request through the model, joins
  /// the collector. Idempotent.
  void Shutdown();

  ServerStatsSnapshot Stats() const;

  /// Copy of the model-path latency reservoir sample (at most
  /// LatencyReservoir::kDefaultCapacity entries however long the shard has
  /// lived), for cross-shard percentile aggregation.
  std::vector<double> RawLatencies() const;

  /// The controller's current straggler window (`max_batch_delay` until
  /// the first batch is decided).
  std::chrono::microseconds effective_batch_delay() const {
    return controller_.effective_delay();
  }

  /// Requests currently queued (excludes the batch in flight). The routed
  /// front-end reads this for saturation/least-loaded decisions.
  size_t queue_depth() const { return queue_.size(); }

  const ServerConfig& config() const { return config_; }
  const std::shared_ptr<ModelSession>& session() const { return session_; }

 private:
  struct Pending {
    std::string input;  // also the dedup key: dedup is byte-exact
    ServeCallback done;  // invoked exactly once with the response
    std::chrono::steady_clock::time_point enqueued;
    std::chrono::steady_clock::time_point deadline;
    bool has_deadline = false;
    // Trace stamp (obs/trace.h): zero while the tracer is disabled. The
    // root "serve.submit" span is recorded by whichever thread completes
    // the request, so it covers submit -> completion.
    uint64_t trace_id = 0;
    uint64_t root_span = 0;
  };

  /// A request attached to an in-flight execution: no queue slot, no
  /// deadline of its own — it completes when the execution it joined does.
  struct Joiner {
    ServeCallback done;
    std::chrono::steady_clock::time_point submitted;
    uint64_t trace_id = 0;
    uint64_t root_span = 0;
  };

  // Metrics-registry handles + trace plumbing, resolved once at
  // construction (shard.cc); kept behind a pointer so the header does not
  // pull in the obs layer.
  struct Obs;

  void CollectorLoop();
  void CompleteBatch(std::vector<Pending>* batch);
  /// Removes `input`'s in-flight entry and returns its joiners (empty when
  /// nobody attached).
  std::vector<Joiner> TakeJoiners(const std::string& input);
  /// Completes `joiners` with copies of a decided response (status or
  /// output shared with the representative), stamping per-joiner latency
  /// and a follows-from trace link to the execution span they rode (when
  /// `exec_span` is non-zero). Latencies are appended to `lats_out` when
  /// given (the model-path reservoir; failure paths pass null).
  void CompleteJoiners(std::vector<Joiner> joiners, const ServeResponse& base,
                       std::chrono::steady_clock::time_point done_at,
                       uint64_t exec_trace, uint64_t exec_span,
                       std::vector<double>* lats_out = nullptr);

  std::shared_ptr<ModelSession> session_;
  ServerConfig config_;
  const Clock* clock_;  // config_.clock or SystemClock(); never null
  BoundedQueue<Pending> queue_;
  // Keyed by the exact payload.
  LruCache<std::string, std::string> cache_;
  // In-flight coalescing: payload -> callbacks of the requests that
  // attached to the pending execution. An entry exists exactly while a
  // representative Pending with that payload is queued or executing. Lock
  // order: inflight_mu_ may be held while touching the queue (TryPush),
  // never the reverse.
  std::mutex inflight_mu_;
  std::unordered_map<std::string, std::vector<Joiner>> inflight_;
  // Arrival estimator feeds the rpt_serve_arrival_rate_rps gauge (decayed
  // on read) and the controller's delay decisions.
  ArrivalRateEstimator arrivals_;
  AdaptiveBatchController controller_;
  std::thread collector_;
  std::atomic<bool> accepting_{true};
  std::once_flag shutdown_once_;

  // Counters touched by client threads are atomic; the batch histogram and
  // latency reservoir are collector-written under stats_mu_.
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> shutdown_rejected_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> cache_misses_{0};
  std::atomic<uint64_t> inflight_coalesced_{0};
  mutable std::mutex stats_mu_;
  uint64_t completed_ = 0;
  uint64_t expired_ = 0;
  uint64_t invalid_ = 0;
  uint64_t coalesced_ = 0;
  uint64_t batches_ = 0;
  std::map<size_t, uint64_t> batch_hist_;
  LatencyReservoir latencies_ms_;
  std::unique_ptr<Obs> obs_;
};

}  // namespace rpt

#endif  // RPT_SERVE_SHARD_H_
