#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <deque>

namespace e2e {

struct HttpLoad::Conn {
  Conn() = default;
  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  int fd = -1;
  std::string in;
  std::deque<int64_t> outstanding;  // exchange indices, in send order
};

namespace {

// Parses one complete response at the front of `buf` (Content-Length or
// chunked framing). Returns false until the whole response is buffered.
bool TryParseResponse(const std::string& buf, int* code, std::string* body,
                      size_t* consumed) {
  const size_t head_end = buf.find("\r\n\r\n");
  if (head_end == std::string::npos) return false;
  if (buf.size() < 12) return false;
  *code = std::atoi(buf.c_str() + 9);
  std::string head = buf.substr(0, head_end);
  for (char& c : head) c = static_cast<char>(std::tolower(c));
  size_t pos = head_end + 4;
  body->clear();
  if (head.find("transfer-encoding: chunked") != std::string::npos) {
    for (;;) {
      const size_t line_end = buf.find("\r\n", pos);
      if (line_end == std::string::npos) return false;
      const size_t size = std::strtoul(buf.c_str() + pos, nullptr, 16);
      pos = line_end + 2;
      if (size == 0) {
        if (buf.size() < pos + 2) return false;
        *consumed = pos + 2;
        return true;
      }
      if (buf.size() < pos + size + 2) return false;
      body->append(buf, pos, size);
      pos += size + 2;
    }
  }
  const size_t cl = head.find("content-length:");
  const size_t len =
      cl == std::string::npos ? 0 : std::strtoul(head.c_str() + cl + 15,
                                                 nullptr, 10);
  if (buf.size() < pos + len) return false;
  body->assign(buf, pos, len);
  *consumed = pos + len;
  return true;
}

bool SendAll(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

std::string HttpPost(const std::string& path, const std::string& body) {
  return "POST " + path +
         " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n"
         "Content-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

HttpLoad::HttpLoad(uint16_t port, int connections) {
  for (int i = 0; i < connections; ++i) {
    conns_.push_back(std::make_unique<Conn>());
    Conn* conn = conns_.back().get();
    conn->fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (conn->fd < 0 ||
        ::connect(conn->fd, reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      std::fprintf(stderr, "e2e_bench: cannot connect to port %u\n", port);
      std::exit(1);
    }
    const int one = 1;
    ::setsockopt(conn->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
}

HttpLoad::~HttpLoad() = default;

namespace {

// Shared poll/parse step: reads what is available on every connection and
// completes parsed responses. `on_done(conn_index)` runs after each one.
template <typename Conns, typename OnDone>
bool PumpResponses(Conns& conns, std::vector<Exchange>* ex,
                   std::chrono::nanoseconds timeout, OnDone on_done) {
  std::vector<pollfd> fds(conns.size());
  for (size_t c = 0; c < conns.size(); ++c) {
    fds[c] = {conns[c]->fd, POLLIN, 0};
  }
  timespec ts{};
  const auto ns = std::max<int64_t>(0, timeout.count());
  ts.tv_sec = ns / 1000000000;
  ts.tv_nsec = ns % 1000000000;
  if (::ppoll(fds.data(), fds.size(), &ts, nullptr) < 0 && errno != EINTR) {
    return false;
  }
  char buf[65536];
  for (size_t c = 0; c < conns.size(); ++c) {
    if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    auto& conn = *conns[c];
    const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n == 0 || (n < 0 && errno != EAGAIN && errno != EINTR)) {
      return false;  // the server closed a keep-alive connection
    }
    if (n < 0) continue;
    conn.in.append(buf, static_cast<size_t>(n));
    int code = 0;
    std::string body;
    size_t consumed = 0;
    while (!conn.outstanding.empty() &&
           TryParseResponse(conn.in, &code, &body, &consumed)) {
      const Clock::time_point now = Clock::now();
      Exchange& e = (*ex)[static_cast<size_t>(conn.outstanding.front())];
      conn.outstanding.pop_front();
      e.completed = true;
      e.done = now;
      e.code = code;
      e.body = std::move(body);
      e.bytes_in = consumed;
      conn.in.erase(0, consumed);
      if (!conn.outstanding.empty()) {
        Exchange& next = (*ex)[static_cast<size_t>(conn.outstanding.front())];
        next.conn_free = std::max(next.sent, now);
      }
      on_done(c);
    }
  }
  return true;
}

}  // namespace

std::vector<Exchange> HttpLoad::OpenLoop(
    const std::vector<std::string>& requests, const std::vector<double>& due_s,
    double grace_s) {
  std::vector<Exchange> ex(requests.size());
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(5);
  auto at = [start](double s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(s));
  };
  const Clock::time_point give_up =
      at((due_s.empty() ? 0 : due_s.back()) + grace_s);
  size_t next = 0, done = 0;
  while (done < requests.size()) {
    Clock::time_point now = Clock::now();
    if (now > give_up) break;
    while (next < requests.size() && at(due_s[next]) <= now) {
      size_t best = 0;
      for (size_t c = 1; c < conns_.size(); ++c) {
        if (conns_[c]->outstanding.size() <
            conns_[best]->outstanding.size()) {
          best = c;
        }
      }
      Exchange& e = ex[next];
      e.id = static_cast<int64_t>(next);
      e.connection = static_cast<int>(best);
      e.due = at(due_s[next]);
      e.sent = Clock::now();
      e.conn_free = e.sent;
      e.bytes_out = requests[next].size();
      conns_[best]->outstanding.push_back(static_cast<int64_t>(next));
      if (!SendAll(conns_[best]->fd, requests[next])) return ex;
      ++next;
      now = Clock::now();
    }
    const auto wait = next < requests.size()
                          ? at(due_s[next]) - Clock::now()
                          : std::chrono::nanoseconds(
                                std::chrono::milliseconds(20));
    if (!PumpResponses(conns_, &ex, wait, [&done](size_t) { ++done; })) {
      break;
    }
  }
  return ex;
}

std::vector<Exchange> HttpLoad::ClosedLoop(
    const std::function<std::string(int64_t)>& request_for, double seconds) {
  std::vector<Exchange> ex;
  ex.reserve(1 << 16);
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  const Clock::time_point give_up = stop + std::chrono::seconds(30);
  bool ok = true;
  auto send_on = [&](size_t c) {
    const int64_t n = static_cast<int64_t>(ex.size());
    const std::string request = request_for(n);
    Exchange e;
    e.id = n;
    e.connection = static_cast<int>(c);
    e.due = e.sent = e.conn_free = Clock::now();
    e.bytes_out = request.size();
    ex.push_back(std::move(e));
    conns_[c]->outstanding.push_back(n);
    ok = ok && SendAll(conns_[c]->fd, request);
  };
  for (size_t c = 0; c < conns_.size(); ++c) send_on(c);
  for (;;) {
    size_t in_flight = 0;
    for (const auto& conn : conns_) in_flight += conn->outstanding.size();
    if (!ok || in_flight == 0 || Clock::now() > give_up) break;
    ok = PumpResponses(conns_, &ex, std::chrono::milliseconds(20),
                       [&](size_t c) {
                         if (Clock::now() < stop) send_on(c);
                       });
  }
  return ex;
}

}  // namespace e2e
