// Open-loop load generator: one process, one poll loop, a few connections.
//
// Each request is sent when it is due, whatever the state of earlier ones,
// and is timed from its due time — not from when it was actually written —
// so a stall in the server (or in this loop) is charged to every request it
// delays instead of being hidden (coordinated omission). The loop also
// records when each request was actually written, so the caller can report
// how late the generator itself ran.
//
// Requests go round-robin over the connections. rts_serve answers each
// connection in its submission order, so every response line is matched to
// the oldest unanswered request of its connection.
//
// The server does not disable Nagle's algorithm, so a small response waits
// until the client has acknowledged the previous one. A client that delays
// its ACKs until its next request (Linux's default once a connection looks
// interactive) would make every response wait for the next send, and the
// latency would read as the request gap. The generator therefore ACKs each
// read at once (TCP_QUICKACK, which the kernel clears again after use), so
// the latency it reports is the server's.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <deque>
#include <iostream>

#include "common.hpp"
#include "util/error.hpp"

namespace perfbench {

namespace {

/// How long to wait for outstanding responses after the last send.
constexpr std::int64_t kDrainTimeoutNs = 60'000'000'000;

struct Conn {
  int fd = -1;
  std::string out;           ///< bytes not yet written
  std::size_t out_off = 0;   ///< written prefix of `out`
  std::string in;            ///< partial response line
  std::deque<std::size_t> pending;  ///< unanswered request indexes, in order
  bool open = true;
};

int connect_loopback(std::uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  RTS_REQUIRE(fd >= 0, "socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 &&
      errno != EINPROGRESS) {
    close(fd);
    RTS_REQUIRE(false, "connect() to 127.0.0.1 failed");
  }
  pollfd pfd{fd, POLLOUT, 0};
  RTS_REQUIRE(poll(&pfd, 1, 5000) == 1, "connect() timed out");
  int err = 0;
  socklen_t len = sizeof(err);
  getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
  RTS_REQUIRE(err == 0, "connect() to 127.0.0.1 refused");
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  setsockopt(fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
  return fd;
}

/// Acknowledge everything read so far now, not with the next request.
void quick_ack(int fd) {
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
}

}  // namespace

int run_load(const rts::Options& opts) {
  const std::vector<ScheduledRequest> schedule = read_schedule(require(opts, "schedule"));
  const auto port = static_cast<std::uint16_t>(std::stoi(
      read_lines(require(opts, "port-file")).at(0)));
  const auto conn_count = static_cast<std::size_t>(opts.get_int("conns", 4));
  RTS_REQUIRE(conn_count >= 1, "--conns must be at least 1");
  std::signal(SIGPIPE, SIG_IGN);
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);  // ns-precision poll timeouts

  std::vector<Conn> conns(conn_count);
  for (Conn& c : conns) c.fd = connect_loopback(port);

  const std::size_t n = schedule.size();
  std::vector<std::int64_t> sent(n, -1);
  std::vector<std::int64_t> received_at(n, -1);
  std::vector<std::string> responses(n);
  std::vector<pollfd> pfds(conn_count);
  std::size_t next = 0;
  std::size_t answered = 0;
  const std::int64_t t0 = now_ns() + 20'000'000;  // connections settle first
  std::int64_t drain_deadline = -1;

  const auto close_conn = [](Conn& c) {
    if (!c.open) return;
    c.open = false;
    close(c.fd);
    c.pending.clear();  // their requests stay unanswered: counted as lost
  };

  while (answered < n) {
    std::int64_t t = now_ns() - t0;
    // Send everything that is due.
    while (next < n && schedule[next].due_ns <= t) {
      Conn& c = conns[next % conn_count];
      sent[next] = t;
      if (c.open) {
        c.out += schedule[next].line;
        c.out += '\n';
        c.pending.push_back(next);
      }
      ++next;
      t = now_ns() - t0;
    }
    for (Conn& c : conns) {
      while (c.open && c.out_off < c.out.size()) {
        const ssize_t w = send(c.fd, c.out.data() + c.out_off,
                               c.out.size() - c.out_off, MSG_NOSIGNAL);
        if (w > 0) {
          c.out_off += static_cast<std::size_t>(w);
        } else if (w < 0 && (errno == EAGAIN || errno == EINTR)) {
          break;
        } else {
          close_conn(c);
        }
      }
      if (c.out_off == c.out.size()) {
        c.out.clear();
        c.out_off = 0;
      }
    }
    if (next == n && drain_deadline < 0) drain_deadline = t + kDrainTimeoutNs;
    if (drain_deadline >= 0 && t > drain_deadline) break;

    // Sleep until the next due time or until a socket is ready; the last
    // 100 us before a due time are spun so sends are not late by a tick.
    std::int64_t wait_ns = next < n ? schedule[next].due_ns - t : 50'000'000;
    wait_ns = wait_ns < 100'000 ? 0 : wait_ns - 100'000;
    std::size_t live = 0;
    for (std::size_t i = 0; i < conn_count; ++i) {
      const Conn& c = conns[i];
      pfds[i] = {c.open ? c.fd : -1,
                 static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT)), 0};
      live += c.open ? 1 : 0;
    }
    if (live == 0 && next == n) break;
    const timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                      static_cast<long>(wait_ns % 1'000'000'000)};
    const int ready = ppoll(pfds.data(), pfds.size(), &ts, nullptr);
    if (ready <= 0) continue;
    for (std::size_t i = 0; i < conn_count; ++i) {
      Conn& c = conns[i];
      if (!c.open || (pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      char buf[64 * 1024];
      for (;;) {
        const ssize_t r = recv(c.fd, buf, sizeof(buf), 0);
        if (r > 0) {
          const std::int64_t at = now_ns() - t0;
          quick_ack(c.fd);
          c.in.append(buf, static_cast<std::size_t>(r));
          std::size_t start = 0;
          for (std::size_t nl; (nl = c.in.find('\n', start)) != std::string::npos;
               start = nl + 1) {
            if (c.pending.empty()) continue;  // unsolicited line: ignored
            const std::size_t idx = c.pending.front();
            c.pending.pop_front();
            received_at[idx] = at;
            responses[idx] = c.in.substr(start, nl - start);
            ++answered;
          }
          c.in.erase(0, start);
        } else if (r < 0 && (errno == EAGAIN || errno == EINTR)) {
          break;
        } else {
          close_conn(c);
          break;
        }
      }
    }
  }
  for (Conn& c : conns) close_conn(c);

  std::ofstream out(require(opts, "out"));
  RTS_REQUIRE(out.good(), "cannot open --out file");
  for (std::size_t i = 0; i < n; ++i) {
    out << i << '\t' << schedule[i].due_ns << '\t' << sent[i] << '\t' << received_at[i]
        << '\t' << responses[i] << '\n';
  }
  out.flush();
  RTS_REQUIRE(out.good(), "write failure on --out file");
  std::cout << "{\"sent\":" << next << ",\"answered\":" << answered
            << ",\"lost\":" << n - answered << "}\n";
  return 0;
}

}  // namespace perfbench
