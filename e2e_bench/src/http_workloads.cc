// The HTTP workload clean-online: open-loop single-line POST /v1/clean.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <unordered_map>

#include "bench.h"
#include "http_client.h"
#include "eval/metrics.h"
#include "net/http_server.h"
#include "net/json.h"
#include "net/service.h"
#include "serve/sessions.h"
#include "util/hash.h"
#include "util/rng.h"

namespace e2e {

namespace {

// clean-online traffic: Poisson arrivals at a fixed rate over at most four
// keep-alive connections, payloads drawn Zipfian from a fixed pool. The
// traced run measures the route's uncached closed-loop capacity over four
// connections as loadgen.capacity_rps (510-750 req/s on a shared 4-vCPU
// host). The rate is about a third of it: at half, queueing amplified the
// host's speed drift into a run-to-run spread of the median latency wider
// than its bound allows.
constexpr double kOnlineRate = 200;  // requests per second
constexpr int kConnections = 4;
// With 4096 distinct queries and exponent 0.5, about 51% of the requests
// of a 25 s run repeat an earlier payload (printed as repeat_share) and
// 35-37% are answered from the response cache (printed after the phase),
// so the median request still reaches the model.
constexpr size_t kPoolSize = 4096;
constexpr double kZipfExponent = 0.5;
// Length of the traced run's closed-loop capacity phase.
constexpr double kCapacitySeconds = 2;

/// A RoutedServer with one route behind the HTTP front-end.
struct HttpFront {
  std::unique_ptr<rpt::RoutedServer> server;
  std::unique_ptr<rpt::net::RptHttpService> service;
  std::unique_ptr<rpt::net::HttpServer> http;

  void Stop() {
    if (http) http->Stop();
    if (server) server->Shutdown();
  }
};

HttpFront StartFront(const std::string& route,
                     std::shared_ptr<rpt::ModelSession> session,
                     const rpt::ServerConfig& config = RouteConfig()) {
  HttpFront front;
  std::vector<rpt::RouteSpec> routes;
  routes.emplace_back(route,
                      std::vector<std::shared_ptr<rpt::ModelSession>>{session},
                      config);
  front.server = std::make_unique<rpt::RoutedServer>(std::move(routes));
  front.service = std::make_unique<rpt::net::RptHttpService>(front.server.get());
  front.http = std::make_unique<rpt::net::HttpServer>();
  front.service->Register(front.http.get());
  const rpt::Status started = front.http->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "e2e_bench: http start: %s\n",
                 started.ToString().c_str());
    std::exit(1);
  }
  return front;
}

std::string NdjsonLine(const std::string& payload) {
  return "{\"input\":" + rpt::net::JsonString(payload) + "}\n";
}

/// One response line as the client saw it.
struct Line {
  bool ok = false;  // a success line (no in-band error)
  std::string output;
  double server_ms = 0;
  int64_t batch_size = 0;
};

std::vector<Line> ParseLines(const std::string& body) {
  std::vector<Line> lines;
  size_t begin = 0;
  while (begin < body.size()) {
    size_t end = body.find('\n', begin);
    if (end == std::string::npos) end = body.size();
    std::map<std::string, std::string> fields;
    std::string error;
    Line line;
    if (rpt::net::JsonParseFlatObject(
            std::string_view(body).substr(begin, end - begin), &fields,
            &error) &&
        fields.count("error") == 0 && fields.count("output") == 1) {
      line.ok = true;
      line.output = fields["output"];
      line.server_ms = std::strtod(fields["latency_ms"].c_str(), nullptr);
      line.batch_size = std::strtoll(fields["batch_size"].c_str(), nullptr, 10);
    }
    lines.push_back(std::move(line));
    begin = end + 1;
  }
  return lines;
}

/// Finds, for a payload hash, the traced batch it rode: the latest RunBatch
/// holding that payload that ended before the client saw the answer.
class BatchFinder {
 public:
  explicit BatchFinder(const std::vector<TraceLog::Batch>& batches)
      : batches_(batches) {
    for (size_t i = 0; i < batches.size(); ++i) {
      for (uint64_t h : batches[i].payload_hashes) by_hash_[h].push_back(i);
    }
  }
  const TraceLog::Batch* Find(uint64_t hash, Clock::time_point done) const {
    auto it = by_hash_.find(hash);
    if (it == by_hash_.end()) return nullptr;
    const TraceLog::Batch* best = nullptr;
    for (size_t i : it->second) {
      if (batches_[i].end <= done) best = &batches_[i];
    }
    return best;
  }

 private:
  const std::vector<TraceLog::Batch>& batches_;
  std::unordered_map<uint64_t, std::vector<size_t>> by_hash_;
};

/// The outcome of one HTTP phase after checking every line.
struct PhaseStats {
  int64_t attempted = 0, failed = 0, mismatched = 0;
  int64_t requests_ok = 0, requests_failed = 0;
  std::vector<double> latency_ms;  // per completed-ok request
  double wall_s = 0;
  std::vector<double> lag_ms;
};

/// Checks each exchange: HTTP 200, every line a success, every output equal
/// to `expected(request, line)`. Latency is timed from the due time.
PhaseStats CheckPhase(
    const std::vector<Exchange>& ex,
    const std::vector<std::vector<std::string>>& payloads_of,
    const std::function<bool(int64_t id, size_t line, const std::string&)>&
        expected,
    std::vector<std::vector<Line>>* parsed) {
  PhaseStats st;
  Clock::time_point first = Clock::time_point::max(), last = first.min();
  parsed->assign(ex.size(), {});
  for (size_t i = 0; i < ex.size(); ++i) {
    const Exchange& e = ex[i];
    const auto& payloads = payloads_of[i];
    st.attempted += static_cast<int64_t>(payloads.size());
    if (e.due.time_since_epoch().count() == 0) {  // never sent
      st.failed += static_cast<int64_t>(payloads.size());
      ++st.requests_failed;
      continue;
    }
    first = std::min(first, e.due);
    st.lag_ms.push_back(MsBetween(e.due, e.sent));
    bool all_ok = e.completed && e.code == 200;
    if (e.completed) {
      (*parsed)[i] = ParseLines(e.body);
      last = std::max(last, e.done);
    }
    const auto& lines = (*parsed)[i];
    all_ok = all_ok && lines.size() == payloads.size();
    int64_t bad = 0;
    for (size_t l = 0; l < payloads.size(); ++l) {
      bool ok = all_ok && lines[l].ok;
      if (ok && !expected(e.id, l, lines[l].output)) {
        ok = false;
        ++st.mismatched;
      }
      bad += ok ? 0 : 1;
    }
    st.failed += bad;
    if (bad == 0 && all_ok) {
      ++st.requests_ok;
      st.latency_ms.push_back(MsBetween(e.due, e.done));
    } else {
      ++st.requests_failed;
    }
  }
  st.wall_s = last > first ? std::chrono::duration<double>(last - first).count()
                           : 0;
  return st;
}

void PrintPhase(const char* phase, const PhaseStats& st) {
  std::printf(
      "phase %-9s requests sent=%zu ok=%lld failed=%lld | ops attempted=%lld "
      "failed=%lld mismatched=%lld | error_rate=%.6f\n",
      phase, st.latency_ms.size() + static_cast<size_t>(st.requests_failed),
      static_cast<long long>(st.requests_ok),
      static_cast<long long>(st.requests_failed),
      static_cast<long long>(st.attempted), static_cast<long long>(st.failed),
      static_cast<long long>(st.mismatched),
      st.attempted > 0 ? static_cast<double>(st.failed) /
                             static_cast<double>(st.attempted)
                       : 0.0);
  std::printf(
      "  latency ms over %zu requests: p50 %.3f p90 %.3f p95 %.3f p99 %.3f "
      "p99.9 %.3f max %.3f | generator lag p99 %.3f max %.3f\n",
      st.latency_ms.size(), Pct(st.latency_ms, 50), Pct(st.latency_ms, 90),
      Pct(st.latency_ms, 95), Pct(st.latency_ms, 99),
      Pct(st.latency_ms, 99.9), Pct(st.latency_ms, 100), Pct(st.lag_ms, 99),
      Pct(st.lag_ms, 100));
}

void SetEndToEnd(const PhaseStats& st, double ops_ok, double quality,
                 double setup_s, Metrics* m) {
  m->Set("setup_s", setup_s, "s");
  m->Set("throughput_rps", st.wall_s > 0 ? ops_ok / st.wall_s : 0, "1/s");
  m->Set("latency_p50_ms", Pct(st.latency_ms, 50), "ms");
  m->Set("success_rate",
         st.attempted > 0 ? 1.0 - static_cast<double>(st.failed) /
                                      static_cast<double>(st.attempted)
                          : 0,
         "frac");
  m->Set("answer_quality", quality, "frac");
  m->Set("peak_rss_mb", PeakRssMb(), "MB");
}

/// Splits each ok request's latency (due → client done) along its blocking
/// path: load-generator lag, waiting behind the previous response on the
/// keep-alive connection, network/HTTP, serve queue (or cache), batch
/// validate, session prep, encode, prefill, decode. For a multi-line body
/// the path follows the line the server answered last. Returns whether the
/// budget holds (CheckBudget) and every computed line was found in the
/// trace.
bool HttpBudget(const std::string& workload, const std::vector<Exchange>& ex,
                const std::vector<std::vector<Line>>& parsed,
                const std::vector<std::vector<uint64_t>>& hashes_of,
                const PhaseStats& st, TraceLog* log, Metrics* m) {
  BatchFinder finder(log->batches());
  double lag = 0, conn = 0, net = 0, queue = 0, cache = 0, validate = 0,
         prep = 0, encode = 0, prefill = 0, decode = 0, wall = 0;
  std::vector<double> net_ms, queue_ms;
  double bytes = 0, ops = 0;
  int64_t unmatched = 0;
  for (size_t i = 0; i < ex.size(); ++i) {
    const Exchange& e = ex[i];
    const auto& lines = parsed[i];
    if (!e.completed || lines.empty() ||
        lines.size() != hashes_of[i].size()) {
      continue;
    }
    bool all_ok = true;
    size_t crit = 0;
    for (size_t l = 0; l < lines.size(); ++l) {
      all_ok = all_ok && lines[l].ok;
      if (lines[l].server_ms > lines[crit].server_ms) crit = l;
      if (lines[l].batch_size > 0) {
        const TraceLog::Batch* b = finder.Find(hashes_of[i][l], e.done);
        if (b != nullptr) {
          queue_ms.push_back(lines[l].server_ms - MsBetween(b->begin, b->end));
        }
      }
    }
    if (!all_ok) continue;
    bytes += static_cast<double>(e.bytes_out + e.bytes_in);
    ops += static_cast<double>(lines.size());
    wall += MsBetween(e.due, e.done);
    lag += MsBetween(e.due, e.sent);
    conn += MsBetween(e.sent, e.conn_free);
    const double server = lines[crit].server_ms;
    const double n = MsBetween(e.conn_free, e.done) - server;
    net += n;
    net_ms.push_back(n);
    const TraceLog::Batch* b =
        lines[crit].batch_size > 0 ? finder.Find(hashes_of[i][crit], e.done)
                                   : nullptr;
    if (b == nullptr) {
      if (lines[crit].batch_size > 0) ++unmatched;
      cache += server;
      continue;
    }
    const double exec = MsBetween(b->begin, b->end);
    queue += server - exec - b->validate_ms;
    validate += b->validate_ms;
    encode += b->encode_ms;
    prefill += b->prefill_ms;
    decode += b->decode_ms;
    prep += exec - b->encode_ms - b->prefill_ms - b->decode_ms;
  }
  std::vector<BudgetRow> rows = {{"loadgen_lag", lag},
                                 {"conn_wait", conn},
                                 {"net", net},
                                 {"serve_queue", queue},
                                 {"serve_cache", cache},
                                 {"session_validate", validate},
                                 {"session_prep", prep},
                                 {"nn_encode", encode},
                                 {"nn_prefill", prefill},
                                 {"nn_decode", decode}};
  const bool ok = CheckBudget(workload, wall, rows, m);
  std::printf("  lines whose batch was not found in the trace: %lld\n",
              static_cast<long long>(unmatched));
  m->Set("net.overhead_ms_p50", Pct(net_ms, 50), "ms");
  m->Set("net.bytes_per_op", ops > 0 ? bytes / ops : 0, "B");
  m->Set("serve.queue_wait_ms_p50", Pct(queue_ms, 50), "ms");
  m->Set("serve.queue_wait_ms_p99", Pct(queue_ms, 99), "ms");
  m->Set("loadgen.lag_p99_ms", Pct(st.lag_ms, 99), "ms");
  m->Set("loadgen.sent",
         static_cast<double>(st.requests_ok + st.requests_failed), "count");
  m->Set("loadgen.ok", static_cast<double>(st.requests_ok), "count");
  m->Set("loadgen.failed", static_cast<double>(st.requests_failed), "count");
  return ok && unmatched == 0;
}

void SetServeStats(const rpt::RoutedStatsSnapshot& s, Metrics* m) {
  m->Set("serve.batch_rows_mean", s.total.mean_batch_size, "rows");
  m->Set("serve.cache_hit_rate", s.total.cache_hit_rate, "frac");
  m->Set("serve.coalesced", static_cast<double>(s.total.coalesced), "count");
  m->Set("serve.rejected", static_cast<double>(s.total.rejected), "count");
}

/// Layer rows that belong to other workloads read 0 here.
void SetAbsentBulkRows(Metrics* m) {
  m->Set("bulk.csv_mb_s", 0, "MB/s");
  m->Set("bulk.driver_self_frac", 0, "frac");
  m->Set("bulk.cells_failed", 0, "count");
}

}  // namespace

// ============================================================================
// clean-online
// ============================================================================

Outcome RunCleanOnline(const Args& args, Metrics* metrics) {
  // Members are destroyed in reverse: the front stops before the models go.
  struct World {
    CleanData data;
    CleanerModels models;
    HttpFront front;
  };
  std::vector<SetupTimes> reps;
  auto world = SetUpRepeated(args, &reps, [&](SetupTimes* t) {
    auto w = std::make_unique<World>();
    Clock::time_point t0 = Clock::now();
    w->data = GenerateCleanData(args.seed);
    t->datagen_s = SecondsSince(t0);
    w->models = BuildCleaner(w->data, args.workdir, t);
    t0 = Clock::now();
    w->front = StartFront("clean", std::make_shared<rpt::CleanerSession>(
                                       w->models.served.get(),
                                       w->data.heldout.schema()));
    t->server_start_s = SecondsSince(t0);
    return w;
  });
  const CleanData& data = world->data;
  const CleanerModels& models = world->models;
  HttpFront& front = world->front;
  const rpt::Schema& schema = data.heldout.schema();

  // ---- Traffic: pool of distinct masked-cell queries (every held-out tuple
  // with each of its cells masked), in seeded order.
  rpt::Rng rng(args.seed * 7919 + 1);
  std::vector<std::pair<int64_t, int64_t>> cells;
  for (int64_t r = 0; r < data.heldout.NumRows(); ++r) {
    for (int64_t c = 0; c < schema.size(); ++c) cells.push_back({r, c});
  }
  rng.Shuffle(&cells);
  std::vector<std::string> pool;
  std::vector<std::string> truth;
  std::vector<rpt::CellQuery> queries;
  std::set<std::string> distinct_payloads;
  for (const auto& [r, c] : cells) {
    if (pool.size() == kPoolSize) break;
    rpt::CellQuery q{AsServed(data.heldout.row(r)), c};
    const std::string masked_truth = q.tuple[static_cast<size_t>(c)].text();
    q.tuple[static_cast<size_t>(c)] = rpt::Value::Null();
    std::string payload = rpt::CleanerSession::FormatCellQuery(q.tuple, c);
    if (!distinct_payloads.insert(payload).second) continue;
    truth.push_back(masked_truth);
    pool.push_back(std::move(payload));
    queries.push_back(std::move(q));
  }
  std::vector<double> cdf(pool.size());
  double acc = 0;
  for (size_t k = 0; k < pool.size(); ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
    cdf[k] = acc;
  }
  std::vector<size_t> picks;
  std::vector<double> due;
  // Poisson arrivals conditioned on their count: rate x seconds arrival
  // times drawn uniformly and sorted, so every seed offers the same load.
  const size_t arrivals = static_cast<size_t>(kOnlineRate * args.seconds);
  for (size_t i = 0; i < arrivals; ++i) {
    due.push_back(rng.UniformDouble() * args.seconds);
    const double u = rng.UniformDouble() * acc;
    picks.push_back(static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin()));
  }
  std::sort(due.begin(), due.end());

  // ---- References from the checker replica (same blob), one query at a
  // time, for every query the run sends. Every served answer must equal its
  // reference; their clean_exact is printed for the seed, answer_quality is
  // CleanQuality on the fixed held-out rendering.
  std::vector<std::string> reference(pool.size());
  std::vector<bool> used(pool.size(), false);
  for (size_t p : picks) used[p] = true;
  std::vector<int64_t> token_counts;
  std::unordered_map<uint64_t, std::vector<int32_t>> ids;
  double steps = 0, distinct = 0, exact = 0;
  for (size_t k = 0; k < pool.size(); ++k) {
    if (!used[k]) continue;
    reference[k] = models.checker->PredictBatch(schema, {queries[k]})[0];
    exact += rpt::NormalizedExactMatch(reference[k], truth[k]);
    const auto enc = models.checker->serializer().SerializeWithMask(
        schema, queries[k].tuple, queries[k].column);
    ids[rpt::Fnv1a64(pool[k])] = enc.ids;
    token_counts.push_back(enc.size());
    steps += static_cast<double>(std::min<int64_t>(
        static_cast<int64_t>(models.checker->serializer()
                                 .EncodeValue(rpt::Value::Parse(reference[k]))
                                 .size()) + 1,
        models.checker->config().max_target_len));
    ++distinct;
  }
  std::vector<std::string> sent_payloads;
  for (size_t p : picks) sent_payloads.push_back(pool[p]);
  PrintFingerprint("clean-online", sent_payloads, token_counts,
                   1.0 - distinct / static_cast<double>(picks.size()),
                   steps / std::max(1.0, distinct));
  std::printf("clean-online: pool of %zu distinct queries, %zu requests at "
              "%.0f/s\n",
              pool.size(), picks.size(), kOnlineRate);

  auto run_phase = [&](HttpFront& f, size_t n, std::vector<Exchange>* ex,
                       std::vector<std::vector<Line>>* parsed) {
    std::vector<std::string> requests;
    for (size_t i = 0; i < n; ++i) {
      requests.push_back(HttpPost("/v1/clean", NdjsonLine(pool[picks[i]])));
    }
    HttpLoad load(f.http->port(), kConnections);
    *ex = load.OpenLoop(
        requests, std::vector<double>(due.begin(), due.begin() + n), 10.0);
    std::vector<std::vector<std::string>> payloads_of(n);
    for (size_t i = 0; i < n; ++i) payloads_of[i] = {pool[picks[i]]};
    return CheckPhase(*ex, payloads_of,
                      [&](int64_t id, size_t, const std::string& out) {
                        return out == reference[picks[static_cast<size_t>(id)]];
                      },
                      parsed);
  };
  const double clean_exact = CleanQuality(*models.checker, data);
  std::printf("clean_exact=%.4f on the fixed held-out cells, %.4f over this "
              "run's %zu distinct masked cells\n",
              clean_exact, exact / std::max(1.0, distinct),
              static_cast<size_t>(distinct));

  const size_t n_untraced = args.trace ? due.size() / 2 : due.size();
  std::vector<Exchange> ex;
  std::vector<std::vector<Line>> parsed;
  PhaseStats plain = run_phase(front, n_untraced, &ex, &parsed);
  PrintPhase("untraced", plain);
  {
    const rpt::RoutedStatsSnapshot stats = front.server->Stats();
    std::printf("  cache hit rate %.4f, mean batch rows %.3f\n",
                stats.total.cache_hit_rate, stats.total.mean_batch_size);
  }
  front.Stop();

  Outcome outcome;
  outcome.attempted = plain.attempted;
  outcome.failed = plain.failed;
  outcome.correct = plain.mismatched == 0;
  if (!args.trace) {
    SetEndToEnd(plain, static_cast<double>(plain.attempted - plain.failed),
                clean_exact, SetupSeconds(reps), metrics);
    return outcome;
  }

  // ---- Traced phase: same traffic prefix through the decorator + hooks.
  TraceLog log;
  HttpFront traced = StartFront(
      "clean", std::make_shared<TracedSession>(
                   std::make_shared<rpt::CleanerSession>(models.served.get(),
                                                         schema),
                   &log));
  PhaseStats st;
  {
    ScopedStageTrace hook(&log);
    st = run_phase(traced, n_untraced, &ex, &parsed);
  }
  traced.Stop();
  PrintPhase("traced", st);
  outcome.attempted += st.attempted;
  outcome.failed += st.failed;
  outcome.correct = outcome.correct && st.mismatched == 0;
  log.Attribute();
  outcome.correct = StagesAttributed(log) && outcome.correct;

  // ---- Capacity: the same request sequence, repeated, closed-loop over
  // the same connections on a fresh untraced server with the response
  // cache off, so every request reaches the model. The offered rate is
  // chosen against this figure.
  rpt::ServerConfig uncached = RouteConfig();
  uncached.cache_capacity = 0;
  HttpFront probe = StartFront("clean",
                               std::make_shared<rpt::CleanerSession>(
                                   models.served.get(), schema),
                               uncached);
  std::vector<Exchange> probe_ex;
  {
    HttpLoad load(probe.http->port(), kConnections);
    probe_ex = load.ClosedLoop(
        [&](int64_t n) {
          return HttpPost("/v1/clean",
                          NdjsonLine(pool[picks[static_cast<size_t>(n) %
                                                picks.size()]]));
        },
        kCapacitySeconds);
  }
  probe.Stop();
  std::vector<std::vector<std::string>> probe_payloads;
  for (const auto& e : probe_ex) {
    probe_payloads.push_back(
        {pool[picks[static_cast<size_t>(e.id) % picks.size()]]});
  }
  std::vector<std::vector<Line>> probe_parsed;
  const PhaseStats cap = CheckPhase(
      probe_ex, probe_payloads,
      [&](int64_t id, size_t, const std::string& out) {
        return out == reference[picks[static_cast<size_t>(id) % picks.size()]];
      },
      &probe_parsed);
  PrintPhase("capacity", cap);
  outcome.attempted += cap.attempted;
  outcome.failed += cap.failed;
  outcome.correct = outcome.correct && cap.mismatched == 0;
  const double capacity =
      cap.wall_s > 0 ? static_cast<double>(cap.requests_ok) / cap.wall_s : 0;
  std::printf("closed-loop uncached capacity %.1f req/s on %d connections; "
              "the offered %.0f req/s is %.2f of it\n",
              capacity, kConnections, kOnlineRate,
              capacity > 0 ? kOnlineRate / capacity : 0.0);
  metrics->Set("loadgen.capacity_rps", capacity, "1/s");

  std::vector<std::vector<uint64_t>> hashes_of(n_untraced);
  for (size_t i = 0; i < n_untraced; ++i) {
    hashes_of[i] = {rpt::Fnv1a64(pool[picks[i]])};
  }
  ReportSetup(reps, metrics);
  metrics->Set("latency.p99_ms", Pct(plain.latency_ms, 99), "ms");
  outcome.correct = HttpBudget("clean-online", ex, parsed, hashes_of, st,
                               &log, metrics) &&
                    outcome.correct;
  SetServeStats(traced.server->Stats(), metrics);
  const auto& cfg = models.served->config();
  ModelShape shape{cfg.d_model, cfg.num_heads, cfg.ffn_dim,
                   models.served->vocab().size(), cfg.num_layers,
                   cfg.num_layers, cfg.max_target_len};
  KernelShape formed;
  ModelLayerReport(
      &log, st.wall_s * 1000, shape, ids,
      [&](const std::string& out) {
        return static_cast<int64_t>(models.served->serializer()
                                        .EncodeValue(rpt::Value::Parse(out))
                                        .size());
      },
      metrics, &formed);
  // Open loop: the offered rate fixes throughput, so the tracing cost shows
  // in latency.
  const double p50_plain = Pct(plain.latency_ms, 50);
  metrics->Set("obs.trace_overhead_frac",
               p50_plain > 0 ? Pct(st.latency_ms, 50) / p50_plain - 1 : 0,
               "frac");
  SetAbsentBulkRows(metrics);
  MeasureModelRows(models.checker.get(), &schema, &queries, nullptr, nullptr,
                   nullptr, metrics);
  MeasureKernelRows(formed, metrics);
  return outcome;
}

}  // namespace e2e
