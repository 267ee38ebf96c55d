// InferenceServer: concurrent model serving with dynamic micro-batching.
//
// Many client threads Submit() opaque request payloads; a collector thread
// drains the bounded request queue into micro-batches — up to
// `max_batch_size` requests — and executes each batch with a single
// ModelSession forward pass, completing per-request futures. This is the
// classic throughput/latency trade of transformer serving (cf. cuBERT's
// max_batch_size sessions): batching amortizes the per-pass cost. How long
// a batch waits for stragglers is decided per batch from the observed
// arrival rate (serve/adaptive.h): a lone request at low load waits only
// `min_batch_delay`, no batch waits past `max_batch_delay`, and
// `min_batch_delay == max_batch_delay` is a fixed window.
//
// The queue/collector/cache/stats machinery lives in ServeShard
// (serve/shard.h); InferenceServer is exactly one shard behind the original
// single-session API. RoutedServer (serve/routed_server.h) scales the same
// core across named routes and replica pools.
//
// Backpressure: when the queue is full, Submit completes immediately with
// StatusCode::kUnavailable instead of blocking the client. Per-request
// deadlines: a request whose deadline passes while queued completes with
// kDeadlineExceeded and never reaches the model. Payload validation: a
// request the session's Validate rejects completes with that status
// (typically kInvalidArgument) instead of aborting the batch — one
// malformed request must not take down the server. An LRU cache keyed on the
// payload short-circuits repeated requests (dirty data repeats a lot), and
// identical payloads inside one micro-batch share a single model execution.
// Shutdown() stops intake, drains everything already queued, and joins the
// collector; the destructor calls it implicitly.

#ifndef RPT_SERVE_SERVER_H_
#define RPT_SERVE_SERVER_H_

#include <chrono>
#include <future>
#include <memory>
#include <string>

#include "serve/model_session.h"
#include "serve/shard.h"

namespace rpt {

class InferenceServer {
 public:
  InferenceServer(std::shared_ptr<ModelSession> session,
                  ServerConfig config = {})
      : shard_(std::move(session), config) {}

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Enqueues one request. The future always completes: with the model
  /// output, a cached response, kUnavailable (queue full / shut down), or
  /// kDeadlineExceeded (`timeout` elapsed before execution; the default is
  /// effectively unbounded).
  std::future<ServeResponse> Submit(
      std::string input,
      std::chrono::milliseconds timeout = std::chrono::milliseconds::max()) {
    return shard_.Submit(std::move(input), timeout);
  }

  /// Submit + wait, for synchronous callers.
  ServeResponse SubmitWait(
      std::string input,
      std::chrono::milliseconds timeout = std::chrono::milliseconds::max()) {
    return Submit(std::move(input), timeout).get();
  }

  /// Continuation-passing Submit: `done` receives the response instead of a
  /// future (see ServeCallback in serve/shard.h for the threading contract:
  /// cache hits and rejections complete inline, model-path responses on the
  /// collector thread).
  void SubmitAsync(
      std::string input, ServeCallback done,
      std::chrono::milliseconds timeout = std::chrono::milliseconds::max()) {
    shard_.SubmitAsync(std::move(input), std::move(done), timeout);
  }

  /// Stops intake, drains every queued request through the model, joins
  /// the collector. Idempotent (also run by the destructor).
  void Shutdown() { shard_.Shutdown(); }

  ServerStatsSnapshot Stats() const { return shard_.Stats(); }

  /// Renders Stats() through eval/report and prints to stdout.
  void PrintStats() const;

  /// Prometheus text exposition of the process-wide metrics registry
  /// (includes this server's series under server=config().name).
  std::string MetricsText() const;

  const ServerConfig& config() const { return shard_.config(); }

 private:
  ServeShard shard_;
};

}  // namespace rpt

#endif  // RPT_SERVE_SERVER_H_
