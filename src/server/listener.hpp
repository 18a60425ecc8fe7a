// The serving loop behind acolay_serve (docs/SERVING.md "Transports"):
// one single-threaded poll(2) loop feeding the single-owner Server from
// the stdin/stdout pipe or from many TCP (127.0.0.1) or unix-domain
// clients, which share one daemon, dedup cache and warm/session store.
//
// Transport model:
//  * the pipe is one more connection — with neither tcp_port nor
//    unix_path set, fds 0/1 are the only connection and run() returns
//    once it ends (end of input, every frame answered and written);
//  * line framing — each connection carries newline-delimited JSON
//    frames; a socket's partial trailing line at disconnect is discarded,
//    never forwarded, while the pipe's last line is answered even without
//    its newline;
//  * per-connection ordering — every client receives exactly one response
//    per frame it sent, in ITS OWN arrival order (the Server emits in
//    global push order; the loop routes each response back to the
//    connection that pushed the matching frame), so a single connection's
//    transcript is a pure function of its request stream whatever the
//    transport;
//  * fair interleaving — the loop forwards at most one buffered frame per
//    connection per sweep, and forwards and reads a connection only while
//    its forwarded-but-unanswered and answered-but-unwritten frames stay
//    under max_pending_per_connection. So one client never has more than
//    the cap inside the Server, its buffer never more than one read, a
//    flooding client meets kernel backpressure, and a client that stops
//    reading holds bounded memory and blocks nobody;
//  * error isolation — a malformed frame is answered `rejected`; on a
//    socket, an oversized unterminated line, a write failure, or a
//    disconnect drops THAT connection only (the pipe answers an oversized
//    line `rejected` and skips to its newline). Nothing a client does
//    kills the daemon or another client's stream.
//
// Events: the loop blocks in poll on the listen socket, each connection's
// fds, and one wake eventfd written by the Server's completion hook and
// by request_stop() — nothing sleeps or ticks. Sockets are non-blocking;
// the inherited fds 0/1 stay blocking (O_NONBLOCK would leak to the shell
// sharing them), are touched only after poll reports them ready, and get
// writes of at most PIPE_BUF, so a ready pipe never blocks.
//
// Shutdown: request_stop() (async-signal-safe; the binary calls it from
// SIGINT/SIGTERM) closes the listen socket (no new clients) and stops
// reading every connection (no new frames); everything already read gets
// ListenerOptions::drain_timeout_seconds to be answered and written
// before run() returns. Dispatched colonies always run to completion; the
// timeout bounds the wait, not the work.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "server/session.hpp"

struct pollfd;

namespace acolay::server {

/// Where and how the loop serves: at most one of tcp_port / unix_path
/// may be set (serve_main's CLI enforces that); with neither, it serves
/// the stdin/stdout pipe.
struct ListenerOptions {
  /// >= 0: listen on 127.0.0.1:tcp_port (0 picks an ephemeral port,
  /// resolved by Listener::port() after start()). < 0: no TCP listener.
  int tcp_port = -1;
  /// Non-empty: listen on a unix-domain socket at this path (any stale
  /// file at the path is unlinked first, and the path is unlinked again
  /// on shutdown).
  std::string unix_path;
  /// Seconds granted to in-flight and already-received work after
  /// request_stop() before the loop gives up waiting and exits anyway.
  double drain_timeout_seconds = 5.0;
  /// > 0: write a stats line (render_listener_stats_line) to run()'s
  /// `info` stream every this-many seconds, so counters are scrapeable
  /// from the log without attaching a connection.
  double stats_every_seconds = 0.0;
  /// Concurrent connections admitted; one past the cap is accepted and
  /// immediately closed (counted in ListenerStats::rejected).
  std::size_t max_clients = 64;
  /// Frames a single connection may have inside the Server or answered
  /// but not yet written back; past it the loop stops forwarding and then
  /// reading that connection — the fairness/backpressure knob.
  std::size_t max_pending_per_connection = 64;
};

/// Transport-level counters, next to (never mixed into) the Server's
/// ServeStats: the wire "stats" frame must stay a pure function of the
/// request stream, and connection counts are not — so they appear only in
/// the stderr stats lines.
struct ListenerStats {
  std::uint64_t accepted = 0;  ///< connections admitted
  std::uint64_t rejected = 0;  ///< connections closed at the max_clients cap
  std::uint64_t dropped = 0;   ///< connections killed by framing/write errors
  std::uint64_t frames = 0;    ///< request lines forwarded to the Server
};

/// The periodic stderr line (every transport) and the socket-mode
/// shutdown line: the ServeStats object (same keys and schema tag as
/// render_stats_line) plus the connection counters — additive keys,
/// same schema.
std::string render_listener_stats_line(const ServeStats& serve,
                                       const ListenerStats& listener);

/// The serving loop (see file comment for the transport contract).
class Listener {
 public:
  /// A loop that will feed `server`; call start() before run().
  /// `server` must outlive the listener, is owned by run()'s thread, and
  /// must not have been pushed a frame yet (start() installs its
  /// completion hook).
  Listener(Server& server, ListenerOptions options);

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// run() must have returned (or never been called) before destruction.
  ~Listener();

  /// Creates the wake fd and binds and listens (or adopts fds 0/1 as the
  /// pipe connection). False (with `error` filled) on failure; the caller
  /// turns that into a startup error, not a crash.
  bool start(std::string& error);

  /// Human-readable bound endpoint ("127.0.0.1:<port>" or the unix
  /// path); empty before start() and for the pipe.
  const std::string& endpoint() const { return endpoint_; }

  /// The resolved TCP port (meaningful after start() when tcp_port was
  /// used; ephemeral binds report the real port). -1 otherwise.
  int port() const { return port_; }

  /// Serves until request_stop() (or, for the pipe, the end of its
  /// session), then drains and returns (see file comment). `info` (may be
  /// null) receives the periodic stats lines.
  void run(std::ostream* info);

  /// Makes run() drain and return. Async-signal-safe, and callable from
  /// any thread once start() has succeeded.
  void request_stop();

  /// Transport counters so far (read from run()'s thread, or after it).
  const ListenerStats& stats() const { return stats_; }

 private:
  struct Connection;
  struct Wake;

  void add_connection(int in_fd, int out_fd);
  void accept_pending();
  void read_from(Connection& conn);
  void write_to(Connection& conn);
  /// Fair sweep: at most one buffered frame per connection per round.
  void pump();
  /// Routes Server responses back to their origin connections.
  void route_responses();
  /// Closes and erases connections that are finished or failed (`all`:
  /// every connection).
  void reap(bool all);
  /// Blocks until an fd is ready or `timeout_ms` passes (-1: no limit),
  /// then services whatever poll reported.
  void wait(int timeout_ms);
  void close_listen_socket();

  Server& server_;
  ListenerOptions options_;
  int listen_fd_ = -1;
  std::string endpoint_;
  int port_ = -1;
  bool bound_unix_ = false;
  /// Shared with the Server's completion hook, which may outlive the
  /// listener: a colony finishing after that wakes nobody, harmlessly.
  std::shared_ptr<const Wake> wake_;
  std::atomic<bool> stop_{false};
  std::vector<Connection> connections_;
  std::vector<pollfd> pollfds_;  ///< rebuilt by every wait()
  std::deque<std::uint64_t> origin_;  ///< connection id per pushed frame,
                                      ///< FIFO-matched to Server responses
  std::uint64_t next_connection_id_ = 1;
  ListenerStats stats_;
};

}  // namespace acolay::server
