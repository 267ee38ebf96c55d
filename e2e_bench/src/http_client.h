// Load generator: HTTP/1.1 keep-alive client connections driven from one
// thread with poll(). Open loop sends each request at its due time
// (pipelined onto the connection with the fewest outstanding requests);
// closed loop sends a connection's next request when its previous
// response completes.

#ifndef E2E_BENCH_HTTP_CLIENT_H_
#define E2E_BENCH_HTTP_CLIENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"

namespace e2e {

struct Exchange {
  int64_t id = 0;  // index into the request list (open) or send order
  int connection = 0;
  Clock::time_point due, sent, done;
  // When the previous response on this connection arrived, if later than
  // `sent`: the request waited behind it (head-of-line on keep-alive).
  Clock::time_point conn_free;
  bool completed = false;
  int code = 0;
  std::string body;  // de-chunked response body
  size_t bytes_out = 0, bytes_in = 0;
};

/// Builds a POST request with a Content-Length body.
std::string HttpPost(const std::string& path, const std::string& body);

class HttpLoad {
 public:
  HttpLoad(uint16_t port, int connections);
  ~HttpLoad();
  HttpLoad(const HttpLoad&) = delete;
  HttpLoad& operator=(const HttpLoad&) = delete;

  /// Sends requests[i] at start + due_s[i]. Waits at most `grace_s` after
  /// the last due time for stragglers; unanswered requests stay
  /// !completed.
  std::vector<Exchange> OpenLoop(const std::vector<std::string>& requests,
                                 const std::vector<double>& due_s,
                                 double grace_s);

  /// Each connection sends request_for(n) (n = global send order) as soon
  /// as its previous response completes, until `seconds` have elapsed;
  /// then drains.
  std::vector<Exchange> ClosedLoop(
      const std::function<std::string(int64_t)>& request_for,
      double seconds);

 private:
  struct Conn;
  std::vector<std::unique_ptr<Conn>> conns_;
};

}  // namespace e2e

#endif  // E2E_BENCH_HTTP_CLIENT_H_
