#include "server/listener.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstring>
#include <ostream>
#include <string_view>
#include <utility>

#include "io/json.hpp"
#include "support/timer.hpp"

namespace acolay::server {

std::string render_listener_stats_line(const ServeStats& serve,
                                       const ListenerStats& listener) {
  io::JsonWriter w;
  w.begin_object();
  append_stats_fields(w, serve);
  w.kv("connections_accepted", listener.accepted);
  w.kv("connections_rejected", listener.rejected);
  w.kv("connections_dropped", listener.dropped);
  w.kv("frames_forwarded", listener.frames);
  w.end_object();
  return w.str();
}

/// The eventfd that wakes poll. Non-blocking: a write that would
/// overflow the counter finds a wake already pending, and one read
/// drains every wake so far without ever blocking.
struct Listener::Wake {
  int fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);

  Wake() = default;
  Wake(const Wake&) = delete;
  Wake& operator=(const Wake&) = delete;
  ~Wake() {
    if (fd >= 0) ::close(fd);
  }

  /// Async-signal-safe: a single write(2).
  void notify() const {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(fd, &one, sizeof(one));
  }
};

/// One client: its fds (a socket is both; the pipe is 0 and 1), the
/// bytes read but not yet split into frames, and the response bytes not
/// yet written.
struct Listener::Connection {
  int in_fd = -1;
  int out_fd = -1;
  std::uint64_t id = 0;
  std::string partial;               ///< bytes after the last newline
  std::deque<std::string> incoming;  ///< complete frames, not forwarded
  std::size_t pending = 0;    ///< frames forwarded, response not routed
  std::string out;            ///< routed response lines, not yet written
  std::size_t unwritten = 0;  ///< response lines (whole or partial) in out
  bool read_closed = false;   ///< end of input, read error, or draining
  bool dead = false;          ///< socket oversized line or write failure

  bool is_socket() const { return in_fd == out_fd; }
  /// Frames forwarded and not yet written back: what the cap limits.
  std::size_t backlog() const { return pending + unwritten; }
};

Listener::Listener(Server& server, ListenerOptions options)
    : server_(server), options_(std::move(options)) {}

Listener::~Listener() { close_listen_socket(); }

bool Listener::start(std::string& error) {
  const bool want_tcp = options_.tcp_port >= 0;
  const bool want_unix = !options_.unix_path.empty();
  if (want_tcp && want_unix) {
    error = "at most one of tcp_port / unix_path may be set";
    return false;
  }

  auto wake = std::make_shared<const Wake>();
  if (wake->fd < 0) {
    error = "eventfd() failed: " + std::string(std::strerror(errno));
    return false;
  }
  wake_ = wake;
  server_.set_on_job_done([wake] { wake->notify(); });

  if (!want_tcp && !want_unix) {
    add_connection(STDIN_FILENO, STDOUT_FILENO);
    return true;
  }

  if (want_unix) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.unix_path.size() >= sizeof(addr.sun_path)) {
      error = "unix socket path too long: " + options_.unix_path;
      return false;
    }
    std::memcpy(addr.sun_path, options_.unix_path.c_str(),
                options_.unix_path.size() + 1);
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                          0);
    if (listen_fd_ < 0) {
      error = "socket(AF_UNIX) failed: " + std::string(std::strerror(errno));
      return false;
    }
    ::unlink(options_.unix_path.c_str());  // stale path from a dead daemon
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      error = "bind(" + options_.unix_path +
              ") failed: " + std::string(std::strerror(errno));
      close_listen_socket();
      return false;
    }
    bound_unix_ = true;
    endpoint_ = options_.unix_path;
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                          0);
    if (listen_fd_ < 0) {
      error = "socket(AF_INET) failed: " + std::string(std::strerror(errno));
      return false;
    }
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // local service only
    addr.sin_port = htons(static_cast<std::uint16_t>(options_.tcp_port));
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      error = "bind(127.0.0.1:" + std::to_string(options_.tcp_port) +
              ") failed: " + std::string(std::strerror(errno));
      close_listen_socket();
      return false;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    port_ = static_cast<int>(ntohs(bound.sin_port));
    endpoint_ = "127.0.0.1:" + std::to_string(port_);
  }

  if (::listen(listen_fd_, 64) != 0) {
    error = "listen() failed: " + std::string(std::strerror(errno));
    close_listen_socket();
    return false;
  }
  return true;
}

void Listener::request_stop() {
  stop_.store(true);
  if (wake_) wake_->notify();
}

void Listener::close_listen_socket() {
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (bound_unix_) {
    ::unlink(options_.unix_path.c_str());
    bound_unix_ = false;
  }
}

void Listener::add_connection(int in_fd, int out_fd) {
  Connection conn;
  conn.in_fd = in_fd;
  conn.out_fd = out_fd;
  conn.id = next_connection_id_++;
  connections_.push_back(std::move(conn));
  ++stats_.accepted;
}

void Listener::accept_pending() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN: the backlog is empty
    }
    if (connections_.size() >= options_.max_clients) {
      ++stats_.rejected;
      ::close(fd);
      continue;
    }
    add_connection(fd, fd);
  }
}

void Listener::read_from(Connection& conn) {
  char chunk[std::size_t{64} << 10];
  const ssize_t n = ::read(conn.in_fd, chunk, sizeof(chunk));
  if (n < 0 && (errno == EINTR || errno == EAGAIN)) return;
  if (n <= 0) {
    conn.read_closed = true;
    // A socket's unterminated tail is a client that died mid-frame and is
    // discarded; the pipe's is its last line, answered as getline would.
    if (n == 0 && !conn.is_socket() && !conn.partial.empty()) {
      conn.incoming.push_back(std::exchange(conn.partial, {}));
    }
    return;
  }
  const std::size_t cap = server_.options().limits.max_line_bytes;
  std::string_view data(chunk, static_cast<std::size_t>(n));
  if (conn.partial.size() > cap) {  // the pipe skips an oversized line
    data.remove_prefix(std::min(data.find('\n'), data.size()));
  }
  const std::size_t scanned = conn.partial.size();
  conn.partial.append(data);
  std::size_t start = 0;
  for (std::size_t nl = conn.partial.find('\n', scanned);
       nl != std::string::npos; nl = conn.partial.find('\n', start)) {
    conn.incoming.push_back(conn.partial.substr(start, nl - start));
    start = nl + 1;
  }
  conn.partial.erase(0, start);
  if (conn.partial.size() <= cap) return;
  // An unterminated frame past the cap would buffer without bound: a
  // socket client is dropped (only this client). The pipe's one client
  // cannot reconnect, so it keeps cap + 1 bytes, enough for the Server to
  // answer the line `rejected`, and skips the rest of the line.
  if (conn.is_socket()) conn.dead = true;
  conn.partial.resize(cap + 1);
}

void Listener::write_to(Connection& conn) {
  // MSG_NOSIGNAL keeps a peer-closed socket an EPIPE error instead of a
  // process-wide SIGPIPE, so embedding the loop never depends on the
  // host's signal disposition. A blocking pipe that poll reported
  // writable takes PIPE_BUF bytes without blocking.
  const ssize_t n =
      conn.is_socket()
          ? ::send(conn.out_fd, conn.out.data(), conn.out.size(), MSG_NOSIGNAL)
          : ::write(conn.out_fd, conn.out.data(),
                    std::min(conn.out.size(), std::size_t{PIPE_BUF}));
  if (n < 0) {
    if (errno != EINTR && errno != EAGAIN) conn.dead = true;
    return;
  }
  const auto written = conn.out.begin() + n;
  conn.unwritten -= static_cast<std::size_t>(
      std::count(conn.out.begin(), written, '\n'));
  conn.out.erase(conn.out.begin(), written);
}

void Listener::pump() {
  // One frame per connection per round: arrival order within a connection
  // is preserved, and no client can occupy more than its share of a sweep.
  // A connection whose forwarded and unwritten frames reach the cap keeps
  // the rest buffered until its responses are written.
  const std::size_t cap = options_.max_pending_per_connection;
  for (bool any = true; any;) {
    any = false;
    for (Connection& conn : connections_) {
      if (conn.incoming.empty() || conn.backlog() >= cap) continue;
      server_.push_line(conn.incoming.front());
      conn.incoming.pop_front();
      ++conn.pending;
      origin_.push_back(conn.id);
      ++stats_.frames;
      any = true;
    }
  }
}

void Listener::route_responses() {
  for (std::string& response : server_.take_responses()) {
    // Server responses come out in global push order, so the origin FIFO
    // lines up one-to-one by construction.
    const std::uint64_t id = origin_.front();
    origin_.pop_front();
    // A reaped (dropped) connection's id is no longer in `connections_`,
    // so its responses are discarded — exactly the isolation we want.
    const auto conn =
        std::find_if(connections_.begin(), connections_.end(),
                     [id](const Connection& c) { return c.id == id; });
    if (conn == connections_.end() || conn->dead) continue;
    --conn->pending;
    conn->out += response;
    conn->out += '\n';
    ++conn->unwritten;
  }
}

void Listener::reap(bool all) {
  std::erase_if(connections_, [this, all](const Connection& conn) {
    const bool finished =
        conn.read_closed && conn.incoming.empty() && conn.backlog() == 0;
    if (!all && !conn.dead && !finished) return false;
    if (conn.dead) ++stats_.dropped;
    // The pipe's fds 0/1 belong to the process, not to the loop.
    if (conn.is_socket()) ::close(conn.in_fd);
    return true;
  });
}

void Listener::wait(int timeout_ms) {
  // Slot 0 is the wake fd, slot 1 the listen socket, then a read and a
  // write slot per connection; fd -1 parks a slot (poll skips it).
  pollfds_.clear();
  pollfds_.push_back({wake_->fd, POLLIN, 0});
  pollfds_.push_back({listen_fd_, POLLIN, 0});
  for (const Connection& conn : connections_) {
    // Below the cap pump() has forwarded every buffered frame, so a
    // connection's buffer never holds more than one read.
    const bool want_read =
        !conn.read_closed && !conn.dead &&
        conn.backlog() < options_.max_pending_per_connection;
    const bool want_write = !conn.dead && !conn.out.empty();
    pollfds_.push_back({want_read ? conn.in_fd : -1, POLLIN, 0});
    pollfds_.push_back({want_write ? conn.out_fd : -1, POLLOUT, 0});
  }
  if (::poll(pollfds_.data(), pollfds_.size(), timeout_ms) <= 0) return;

  // Drain the wake fd before the caller's next step(): a colony that
  // finishes after this read wakes the next poll, so no wake-up is lost.
  if (pollfds_[0].revents != 0) {
    std::uint64_t wakes = 0;
    [[maybe_unused]] const ssize_t n = ::read(wake_->fd, &wakes, sizeof(wakes));
  }
  const std::size_t polled = (pollfds_.size() - 2) / 2;
  for (std::size_t i = 0; i < polled; ++i) {
    if (pollfds_[2 + 2 * i].revents != 0) read_from(connections_[i]);
    if (pollfds_[3 + 2 * i].revents != 0) write_to(connections_[i]);
  }
  // Accept last: new connections have no slot in this round.
  if (pollfds_[1].revents != 0) accept_pending();
}

void Listener::run(std::ostream* info) {
  // Milliseconds to a deadline, rounded up so poll never wakes early.
  const auto ms_until = [](double seconds) {
    return static_cast<int>(std::ceil(std::clamp(seconds, 0.0, 1e6) * 1e3));
  };
  const bool serving_pipe = listen_fd_ < 0;
  const double stats_every = info != nullptr ? options_.stats_every_seconds
                                             : 0.0;
  support::Stopwatch stats_watch;
  support::Stopwatch drain_watch;
  bool draining = false;
  for (;;) {
    if (!draining && stop_.load()) {
      // No new clients, no new frames: everything already read gets
      // drain_timeout_seconds to be answered and written.
      draining = true;
      close_listen_socket();
      for (Connection& conn : connections_) conn.read_closed = true;
      drain_watch.reset();
    }
    reap(false);
    pump();
    server_.step();
    route_responses();
    // Drained (or the pipe's session over): every connection has been
    // answered in full, or dropped, and reaped.
    if ((serving_pipe || draining) && connections_.empty()) break;
    const double drain_left =
        options_.drain_timeout_seconds - drain_watch.elapsed_seconds();
    if (draining && drain_left < 0.0) break;

    int timeout_ms = draining ? ms_until(drain_left) : -1;
    if (stats_every > 0.0) {
      if (stats_watch.elapsed_seconds() >= stats_every) {
        *info << render_listener_stats_line(server_.stats(), stats_) << '\n';
        info->flush();
        stats_watch.reset();
      }
      const int stats_ms =
          ms_until(stats_every - stats_watch.elapsed_seconds());
      timeout_ms = timeout_ms < 0 ? stats_ms : std::min(timeout_ms, stats_ms);
    }
    wait(timeout_ms);
  }
  reap(true);
}

}  // namespace acolay::server
