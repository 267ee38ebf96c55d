// HTTP front-end load: drives an in-process rpt::net::HttpServer (fronting
// a RoutedServer with device-bound synthetic sessions) from many concurrent
// keep-alive connections and reports requests/sec plus client-observed
// p50/p99 latency per connection count.
//
// The client is open-loop per connection: each connection writes its next
// request as soon as the previous response has been read off the socket
// (closed-loop within a connection, open across connections), which is the
// shape real scrapers and batch ETL clients present. Every response is
// checked for HTTP 200 and a well-formed NDJSON line; any connect failure,
// short read, or non-200 counts as a drop.
//
// `--smoke` (or `--quick`) is the CI gate: 64 concurrent keep-alive
// connections, a few requests each, asserting zero drops and exact
// response counts. The full run sweeps 1..128 connections and prints a
// scaling table.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "eval/report.h"
#include "net/http_server.h"
#include "net/json.h"
#include "net/service.h"
#include "serve/routed_server.h"
#include "serve/sessions.h"

namespace {

using rpt::ModelSession;
using rpt::ReportTable;
using rpt::RouteSpec;
using rpt::RoutedServer;
using rpt::ServerConfig;
using rpt::SyntheticSession;
using rpt::SyntheticWait;
using rpt::net::HttpServer;
using rpt::net::HttpServerOptions;
using rpt::net::RptHttpService;
using std::chrono::microseconds;
using std::chrono::steady_clock;

int g_failures = 0;

double SecondsSince(steady_clock::time_point start) {
  return std::chrono::duration<double>(steady_clock::now() - start).count();
}

/// One blocking keep-alive connection. Minimal by design: the server side
/// is what's under test, the client just needs to be correct.
class LoadConnection {
 public:
  explicit LoadConnection(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    struct timeval tv{30, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~LoadConnection() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool ok() const { return fd_ >= 0; }

  /// POSTs one single-line body and reads the full response. Returns true
  /// iff the response is a well-framed HTTP 200. Single-line requests come
  /// back Content-Length-framed, so chunked decoding is not needed here.
  bool RoundTrip(const std::string& route, const std::string& payload) {
    const std::string body = "{\"input\":" + rpt::net::JsonString(payload) + "}";
    const std::string request =
        "POST /v1/" + route + " HTTP/1.1\r\nHost: bench\r\nContent-Length: " +
        std::to_string(body.size()) + "\r\n\r\n" + body;
    size_t off = 0;
    while (off < request.size()) {
      const ssize_t n = ::send(fd_, request.data() + off,
                               request.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    // Read headers, then exactly Content-Length body bytes.
    while (buf_.find("\r\n\r\n") == std::string::npos) {
      if (!Fill()) return false;
    }
    const size_t head_end = buf_.find("\r\n\r\n") + 4;
    const std::string head = buf_.substr(0, head_end);
    if (head.rfind("HTTP/1.1 200", 0) != 0) return false;
    size_t content_length = 0;
    {
      // Case-insensitive scan would be overkill: the server always emits
      // the canonical "Content-Length:" spelling.
      const size_t cl = head.find("Content-Length: ");
      if (cl == std::string::npos) return false;
      content_length = std::strtoul(head.c_str() + cl + 16, nullptr, 10);
    }
    while (buf_.size() < head_end + content_length) {
      if (!Fill()) return false;
    }
    const std::string line = buf_.substr(head_end, content_length);
    buf_.erase(0, head_end + content_length);
    // A response line must be parseable NDJSON carrying an "output" field.
    std::map<std::string, std::string> fields;
    std::string error;
    return !line.empty() && line.back() == '\n' &&
           rpt::net::JsonParseFlatObject(line.substr(0, line.size() - 1),
                                         &fields, &error) &&
           fields.count("output") > 0;
  }

 private:
  bool Fill() {
    char tmp[8192];
    const ssize_t n = ::recv(fd_, tmp, sizeof(tmp), 0);
    if (n <= 0) return false;
    buf_.append(tmp, static_cast<size_t>(n));
    return true;
  }

  int fd_ = -1;
  std::string buf_;
};

struct LoadResult {
  double rps = 0, p50_ms = 0, p99_ms = 0;
  uint64_t completed = 0, drops = 0;
};

/// Runs `connections` keep-alive clients, `requests_each` requests per
/// connection, against the server on `port`. Payloads are unique per
/// (connection, request) so throughput measures the epoll + serve path,
/// not cache luck.
LoadResult RunLoad(uint16_t port, int connections, int requests_each) {
  std::vector<std::thread> threads;
  std::vector<std::vector<double>> lat_ms(
      static_cast<size_t>(connections));
  std::atomic<uint64_t> completed{0}, drops{0};
  const auto start = steady_clock::now();
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      LoadConnection conn(port);
      if (!conn.ok()) {
        drops.fetch_add(static_cast<uint64_t>(requests_each));
        return;
      }
      lat_ms[static_cast<size_t>(c)].reserve(
          static_cast<size_t>(requests_each));
      for (int i = 0; i < requests_each; ++i) {
        const std::string payload =
            "load_c" + std::to_string(c) + "_r" + std::to_string(i);
        const auto t0 = steady_clock::now();
        if (conn.RoundTrip("clean", payload)) {
          lat_ms[static_cast<size_t>(c)].push_back(SecondsSince(t0) * 1e3);
          completed.fetch_add(1);
        } else {
          drops.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const double elapsed = SecondsSince(start);

  LoadResult result;
  result.completed = completed.load();
  result.drops = drops.load();
  result.rps = static_cast<double>(result.completed) / elapsed;
  std::vector<double> all;
  for (const auto& v : lat_ms) all.insert(all.end(), v.begin(), v.end());
  if (!all.empty()) {
    std::sort(all.begin(), all.end());
    result.p50_ms = all[all.size() / 2];
    result.p99_ms = all[std::min(all.size() - 1, all.size() * 99 / 100)];
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0 ||
        std::strcmp(argv[i], "--quick") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke|--quick]\n", argv[0]);
      return 2;
    }
  }

  // One "clean" route, two device-bound replicas: passes overlap across
  // shards, so concurrency on the wire translates into concurrency in the
  // model, the way a real deployment behaves.
  std::vector<std::shared_ptr<ModelSession>> replicas;
  for (int s = 0; s < 2; ++s) {
    replicas.push_back(std::make_shared<SyntheticSession>(
        microseconds(300), microseconds(30), SyntheticWait::kSleep));
  }
  ServerConfig config;
  config.max_batch_size = 16;
  config.max_batch_delay = microseconds(1000);
  config.min_batch_delay = config.max_batch_delay;  // fixed window
  config.queue_capacity = 4096;
  config.cache_capacity = 0;  // unique payloads anyway; measure the model path
  RoutedServer routed({{"clean", std::move(replicas), config}});
  RptHttpService service(&routed);
  HttpServerOptions options;
  options.port = 0;  // ephemeral
  HttpServer http(options);
  service.Register(&http);
  if (!http.Start().ok()) {
    std::fprintf(stderr, "FAIL: http server did not start\n");
    return 1;
  }
  const uint16_t port = http.port();

  if (smoke) {
    // CI gate: 64 concurrent keep-alive connections, zero drops, exact
    // completion count.
    constexpr int kConns = 64, kEach = 8;
    const LoadResult r = RunLoad(port, kConns, kEach);
    std::printf("smoke: %d conns x %d reqs -> %llu completed, %llu drops, "
                "%.0f req/s, p50 %.2fms p99 %.2fms\n",
                kConns, kEach,
                static_cast<unsigned long long>(r.completed),
                static_cast<unsigned long long>(r.drops), r.rps, r.p50_ms,
                r.p99_ms);
    if (r.drops != 0 ||
        r.completed != static_cast<uint64_t>(kConns) * kEach) {
      std::printf("FAIL: smoke run dropped requests\n");
      ++g_failures;
    } else {
      std::printf("OK: %d keep-alive connections sustained with zero "
                  "drops\n", kConns);
    }
  } else {
    rpt::PrintBanner("http front-end: connection scaling");
    std::printf("one epoll loop, 2 device-bound shards "
                "(300us/pass + 30us/item), unique payloads\n\n");
    ReportTable table(
        {"connections", "req/s", "p50 ms", "p99 ms", "drops"});
    for (const int conns : {1, 8, 32, 64, 128}) {
      const int each = std::max(512 / conns, 16);
      const LoadResult r = RunLoad(port, conns, each);
      table.AddRow({std::to_string(conns), rpt::Fixed(r.rps, 0),
                    rpt::Fixed(r.p50_ms, 2), rpt::Fixed(r.p99_ms, 2),
                    std::to_string(r.drops)});
      if (r.drops != 0) {
        std::printf("FAIL: %d-connection run dropped %llu requests\n", conns,
                    static_cast<unsigned long long>(r.drops));
        ++g_failures;
      }
    }
    table.Print();
  }

  http.Stop();
  routed.Shutdown();
  return g_failures == 0 ? 0 : 1;
}
