// Tests for the serving layer's byte-exact dedup (serve/shard.h): in-flight
// coalescing of identical payloads, and the guarantee that a payload
// differing in any byte never shares another payload's answer. The
// concurrency tests double as the tsan target for the inflight_mu_ / queue
// / collector interleavings.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/sessions.h"
#include "serve/shard.h"

namespace rpt {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;

constexpr char kUnitSep = '\x1f';

/// Echo session whose forward passes block until Open() — pins requests
/// in-flight deterministically so submits can race the pinned execution.
class GateSession : public ModelSession {
 public:
  std::string name() const override { return "gate"; }

  std::vector<std::string> RunBatch(
      const std::vector<std::string>& inputs) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return open_; });
    }
    calls_.fetch_add(1);
    items_.fetch_add(static_cast<int64_t>(inputs.size()));
    std::vector<std::string> out;
    out.reserve(inputs.size());
    for (const auto& s : inputs) out.push_back("echo:" + s);
    return out;
  }

  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

  int64_t calls() const { return calls_.load(); }
  int64_t items() const { return items_.load(); }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
  std::atomic<int64_t> calls_{0};
  std::atomic<int64_t> items_{0};
};

std::string Fields(std::vector<std::string> fields) {
  std::string out;
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out.push_back(kUnitSep);
    out += fields[i];
  }
  return out;
}

// ---- In-flight coalescing ---------------------------------------------------

TEST(InflightCoalescingTest, JoinerRidesThePinnedExecution) {
  auto session = std::make_shared<GateSession>();
  ServerConfig config;
  config.max_batch_size = 1;
  config.queue_capacity = 16;
  config.cache_capacity = 8;
  ServeShard server(session, config);

  // First submit is popped by the collector and wedges on the gate; the
  // entry for its key stays in the in-flight map the whole time.
  std::future<ServeResponse> rep = server.Submit("payload");
  std::this_thread::sleep_for(milliseconds(20));
  // Same payload while the first is *executing*: must attach, not enqueue.
  std::future<ServeResponse> joiner = server.Submit("payload");
  session->Open();

  const ServeResponse r1 = rep.get();
  const ServeResponse r2 = joiner.get();
  server.Shutdown();

  ASSERT_TRUE(r1.status.ok()) << r1.status.ToString();
  ASSERT_TRUE(r2.status.ok()) << r2.status.ToString();
  EXPECT_EQ(r1.output, "echo:payload");
  EXPECT_EQ(r2.output, r1.output);  // bit-identical
  EXPECT_EQ(session->calls(), 1);   // exactly one forward pass
  EXPECT_EQ(session->items(), 1);

  const ServerStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.inflight_coalesced, 1u);
  EXPECT_EQ(stats.coalesced, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);    // the joiner's converted miss
  EXPECT_EQ(stats.cache_misses, 1u);  // the representative
}

TEST(InflightCoalescingTest, JoinerInheritsDeadlineExpiry) {
  auto session = std::make_shared<GateSession>();
  ServerConfig config;
  config.max_batch_size = 1;
  config.queue_capacity = 16;
  config.cache_capacity = 0;
  ServeShard server(session, config);

  // Wedge the collector, then enqueue a doomed representative and attach a
  // joiner with *no* deadline of its own: it must still expire with the
  // representative instead of extending its life.
  std::future<ServeResponse> wedge = server.Submit("wedge");
  std::this_thread::sleep_for(milliseconds(20));
  std::future<ServeResponse> rep = server.Submit("doomed", milliseconds(1));
  std::future<ServeResponse> joiner = server.Submit("doomed");
  std::this_thread::sleep_for(milliseconds(50));
  session->Open();

  EXPECT_TRUE(wedge.get().status.ok());
  EXPECT_EQ(rep.get().status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(joiner.get().status.code(), StatusCode::kDeadlineExceeded);
  server.Shutdown();
  EXPECT_EQ(server.Stats().expired, 2u);
  EXPECT_EQ(session->calls(), 1);  // only the wedge ran
}

TEST(InflightCoalescingTest, RaceHammerOneForwardPassPerKey) {
  // The tsan target: many threads race the same payload against the
  // collector's batch completion. However the attach/push/complete
  // interleavings land, every caller completes with the same bytes and the
  // model runs each unique payload at most... exactly once here, because
  // the gate holds every representative until all submits are in.
  auto session = std::make_shared<GateSession>();
  ServerConfig config;
  config.max_batch_size = 4;
  config.queue_capacity = 256;
  config.cache_capacity = 0;  // no LRU: dedup must come from coalescing
  ServeShard server(session, config);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 16;
  constexpr int kKeys = 3;
  std::vector<std::thread> clients;
  std::mutex results_mu;
  std::vector<std::pair<int, ServeResponse>> results;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const int k = (t + i) % kKeys;
        ServeResponse r = server.Submit("key" + std::to_string(k)).get();
        std::lock_guard<std::mutex> lock(results_mu);
        results.emplace_back(k, std::move(r));
      }
    });
  }
  // Give the clients a moment to pile onto the in-flight entries, then
  // open the gate and let the collector drain everything.
  std::this_thread::sleep_for(milliseconds(50));
  session->Open();
  for (auto& c : clients) c.join();
  server.Shutdown();

  ASSERT_EQ(results.size(), static_cast<size_t>(kThreads * kPerThread));
  for (const auto& [k, r] : results) {
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(r.output, "echo:key" + std::to_string(k));
  }
  const ServerStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.submitted, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(stats.completed + stats.expired,
            static_cast<uint64_t>(kThreads * kPerThread));
  // Each wave of submits folds onto at most kKeys representatives; the
  // model must have seen far fewer items than requests.
  EXPECT_LT(session->items(), kThreads * kPerThread);
  EXPECT_GT(stats.coalesced, 0u);
}

TEST(InflightCoalescingTest, RacesShutdownWithoutLosingCallbacks) {
  // Submits race Shutdown(): every callback must fire exactly once, as a
  // completion or a rejection — never dropped. Run a few rounds to vary
  // the interleaving (tsan checks the locking either way).
  for (int round = 0; round < 3; ++round) {
    auto session = std::make_shared<SyntheticSession>(microseconds(50),
                                                      microseconds(5));
    ServerConfig config;
    config.max_batch_size = 4;
    config.queue_capacity = 64;
    config.cache_capacity = 4;
    auto server = std::make_unique<ServeShard>(session, config);

    constexpr int kThreads = 6;
    constexpr int kPerThread = 10;
    std::atomic<int> callbacks{0};
    std::vector<std::thread> clients;
    for (int t = 0; t < kThreads; ++t) {
      clients.emplace_back([&] {
        for (int i = 0; i < kPerThread; ++i) {
          server->SubmitAsync("hot-key",
                              [&](ServeResponse) { callbacks.fetch_add(1); });
        }
      });
    }
    std::this_thread::sleep_for(microseconds(200));
    server->Shutdown();
    for (auto& c : clients) c.join();
    server.reset();
    EXPECT_EQ(callbacks.load(), kThreads * kPerThread);
  }
}

// ---- Byte-exact keying ------------------------------------------------------

TEST(ServeDedupTest, StrictServesNoVariantFromCache) {
  auto session = std::make_shared<SyntheticSession>(microseconds(100),
                                                    microseconds(10));
  ServerConfig config;
  config.max_batch_size = 4;
  config.cache_capacity = 64;
  ServeShard server(session, config);

  ASSERT_TRUE(server.Submit(Fields({"Apple", "Cupertino"})).get().status.ok());
  ServeResponse variant =
      server.Submit(Fields({" cupertino ", "APPLE"})).get();
  ASSERT_TRUE(variant.status.ok());
  EXPECT_FALSE(variant.cache_hit);  // different bytes -> model ran again
  server.Shutdown();
  EXPECT_EQ(session->calls(), 2);
}

}  // namespace
}  // namespace rpt
