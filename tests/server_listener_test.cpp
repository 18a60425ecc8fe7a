// The socket transport contract (src/server/listener.hpp): a
// single-connection socket transcript is byte-identical to the same
// stream pushed straight into a Server, every client's responses arrive
// in its own arrival order under concurrent interleaving, a malformed or
// oversized frame, a mid-frame disconnect and a client that stops reading
// hurt only their own connection, and request_stop() drains everything
// already received before the loop returns.
#include "server/listener.hpp"

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "io/json.hpp"
#include "io/json_reader.hpp"
#include "server/protocol.hpp"
#include "server/session.hpp"

namespace acolay::server {
namespace {

/// A listener on an ephemeral loopback port (or a unix path), run on its
/// own thread; stop() initiates the drain and joins.
class ListenerHarness {
 public:
  explicit ListenerHarness(ServeOptions serve_options = {},
                           ListenerOptions listener_options = {}) {
    if (serve_options.num_threads == 0) serve_options.num_threads = 2;
    if (listener_options.unix_path.empty()) listener_options.tcp_port = 0;
    listener_options.drain_timeout_seconds = 30.0;
    server_ = std::make_unique<Server>(std::move(serve_options));
    listener_ = std::make_unique<Listener>(*server_, listener_options);
    std::string error;
    started_ = listener_->start(error);
    EXPECT_TRUE(started_) << error;
    if (!started_) return;
    thread_ = std::thread([this] { listener_->run(nullptr); });
  }

  ~ListenerHarness() { stop(); }

  void stop() {
    if (!thread_.joinable()) return;
    listener_->request_stop();
    thread_.join();
  }

  Listener& listener() { return *listener_; }
  const Server& server() const { return *server_; }
  int port() const { return listener_->port(); }

 private:
  std::unique_ptr<Server> server_;
  std::unique_ptr<Listener> listener_;
  std::thread thread_;
  bool started_ = false;
};

/// A blocking test client with a receive timeout so a listener bug fails
/// the test instead of hanging ctest.
class Client {
 public:
  explicit Client(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    EXPECT_EQ(::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    set_recv_timeout();
  }

  explicit Client(const std::string& unix_path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, unix_path.c_str(), unix_path.size() + 1);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    set_recv_timeout();
  }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send(const std::string& data) {
    std::size_t done = 0;
    while (done < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + done, data.size() - done, 0);
      ASSERT_GT(n, 0);
      done += static_cast<std::size_t>(n);
    }
  }

  void close_write() { ::shutdown(fd_, SHUT_WR); }

  /// Reads until EOF; empty return means the peer closed immediately.
  std::string read_all() {
    std::string out;
    char chunk[4096];
    for (;;) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      out.append(chunk, static_cast<std::size_t>(n));
    }
    return out;
  }

  /// Reads until exactly `count` newline-terminated lines arrived (or
  /// EOF/timeout, short). Surplus bytes stay buffered for the next call —
  /// one recv can carry several responses when the server bursts.
  std::vector<std::string> read_lines(std::size_t count) {
    std::vector<std::string> lines;
    for (;;) {
      std::size_t start = 0;
      while (lines.size() < count) {
        const std::size_t nl = buffer_.find('\n', start);
        if (nl == std::string::npos) break;
        lines.push_back(buffer_.substr(start, nl - start));
        start = nl + 1;
      }
      buffer_.erase(0, start);
      if (lines.size() == count) return lines;
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return lines;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  void set_recv_timeout() {
    timeval tv{};
    tv.tv_sec = 30;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }

  int fd_ = -1;
  std::string buffer_;
};

std::string solve_frame(const std::string& id, std::uint64_t seed,
                        int num_tours = 3) {
  io::JsonWriter w;
  w.begin_object();
  w.kv("id", id);
  w.key("graph").begin_object();
  w.kv("num_vertices", 4);
  w.key("edges").begin_array();
  w.begin_array().value(3).value(1).end_array();
  w.begin_array().value(3).value(2).end_array();
  w.begin_array().value(1).value(0).end_array();
  w.begin_array().value(2).value(0).end_array();
  w.end_array();
  w.end_object();
  w.key("params").begin_object();
  w.kv("num_tours", num_tours);
  w.kv("seed", seed);
  w.end_object();
  w.end_object();
  return w.str() + "\n";
}

/// A chain 0 -> 1 -> ... -> n-1 solved with one ant for one tour: cheap
/// to solve, with a response that names a layer per vertex (~10 KB at
/// n = 2000).
std::string chain_frame(const std::string& id, int n) {
  io::JsonWriter w;
  w.begin_object();
  w.kv("id", id);
  w.key("graph").begin_object();
  w.kv("num_vertices", n);
  w.key("edges").begin_array();
  for (int v = 0; v + 1 < n; ++v) {
    w.begin_array().value(v).value(v + 1).end_array();
  }
  w.end_array();
  w.end_object();
  w.key("params").begin_object();
  w.kv("num_ants", 1);
  w.kv("num_tours", 1);
  w.end_object();
  w.end_object();
  return w.str() + "\n";
}

/// "<prefix><n>", appended rather than `"c" + std::to_string(n)`: GCC 12
/// misreports that rvalue chain under -Wrestrict at -O3.
std::string numbered(std::string prefix, std::size_t n) {
  prefix += std::to_string(n);
  return prefix;
}

std::string response_id(const std::string& line) {
  const auto doc = io::parse_json(line);
  if (!doc.has_value()) return "<unparseable>";
  return doc->find("id")->as_string();
}

TEST(ServerListener, SingleClientTranscriptMatchesPushLines) {
  // The same stream (ok / duplicate / cycle / garbage / stats) pushed
  // straight into a Server and sent over a socket connection.
  const std::vector<std::string> frames = {
      solve_frame("r1", 7),
      solve_frame("r2", 11),
      solve_frame("r3", 7),  // exact duplicate of r1: deduped
      "{\"id\":\"r4\",\"graph\":{\"num_vertices\":2,"
      "\"edges\":[[0,1],[1,0]]}}\n",
      "not json at all\n",
      "{\"id\":\"r6\",\"stats\":true}\n",
  };

  std::string stream;
  std::string direct;
  {
    Server server(ServeOptions{});
    for (const std::string& frame : frames) {
      stream += frame;
      server.push_line(frame.substr(0, frame.size() - 1));
    }
    server.drain();
    for (const std::string& response : server.take_responses()) {
      direct += response;
      direct += '\n';
    }
  }

  std::string socketed;
  {
    ListenerHarness harness;
    Client client(harness.port());
    client.send(stream);
    client.close_write();
    socketed = client.read_all();
  }

  EXPECT_EQ(direct, socketed)
      << "a socket transcript must be byte-identical to the Server's own "
         "responses for the same request stream";
}

TEST(ServerListener, MultiClientResponsesStayInPerClientArrivalOrder) {
  ListenerHarness harness;
  constexpr std::size_t kClients = 3;
  constexpr std::size_t kFrames = 6;

  std::vector<std::unique_ptr<Client>> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<Client>(harness.port()));
  }
  // Interleave sends round-robin so frames from different clients overlap
  // in the daemon.
  for (std::size_t i = 0; i < kFrames; ++i) {
    for (std::size_t c = 0; c < kClients; ++c) {
      const std::string id = numbered(numbered("c", c) + "-", i);
      clients[c]->send(solve_frame(id, 100 * c + i));
    }
  }
  for (auto& client : clients) client->close_write();

  for (std::size_t c = 0; c < kClients; ++c) {
    const std::vector<std::string> lines = clients[c]->read_lines(kFrames);
    ASSERT_EQ(lines.size(), kFrames) << "client " << c;
    for (std::size_t i = 0; i < kFrames; ++i) {
      EXPECT_EQ(response_id(lines[i]),
                numbered(numbered("c", c) + "-", i))
          << "client " << c << " response " << i
          << " out of its own arrival order";
      const auto doc = io::parse_json(lines[i]);
      ASSERT_TRUE(doc.has_value());
      EXPECT_EQ(doc->find("status")->as_string(), "ok");
    }
  }
}

TEST(ServerListener, MalformedFrameAnswersRejectionAndServingContinues) {
  ListenerHarness harness;
  Client bad(harness.port());
  bad.send("{\"id\":\"x\",\"nope\":1}\n" + solve_frame("x2", 5));
  bad.close_write();
  const std::vector<std::string> lines = bad.read_lines(2);
  ASSERT_EQ(lines.size(), 2u);
  {
    const auto doc = io::parse_json(lines[0]);
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->find("status")->as_string(), "rejected");
  }
  {
    const auto doc = io::parse_json(lines[1]);
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->find("status")->as_string(), "ok");
  }

  // The daemon is still alive for the next client.
  Client good(harness.port());
  good.send(solve_frame("y1", 9));
  good.close_write();
  const std::vector<std::string> ok = good.read_lines(1);
  ASSERT_EQ(ok.size(), 1u);
  EXPECT_EQ(response_id(ok[0]), "y1");
}

TEST(ServerListener, MidFrameDisconnectDiscardsThePartialFrame) {
  ListenerHarness harness;
  Client client(harness.port());
  // One complete frame, then a partial one with no terminating newline.
  client.send(solve_frame("whole", 3));
  client.send("{\"id\":\"partial\",\"graph\":{\"num_v");
  client.close_write();

  // Exactly one response — the partial frame was never forwarded — then
  // EOF, and the daemon survives for the next client.
  const std::string all = client.read_all();
  ASSERT_FALSE(all.empty());
  std::size_t newlines = 0;
  for (const char ch : all) newlines += ch == '\n' ? 1u : 0u;
  EXPECT_EQ(newlines, 1u);
  EXPECT_EQ(response_id(all.substr(0, all.size() - 1)), "whole");

  Client next(harness.port());
  next.send(solve_frame("after", 4));
  next.close_write();
  EXPECT_EQ(next.read_lines(1).size(), 1u);
}

TEST(ServerListener, OversizedUnterminatedLineDropsOnlyThatClient) {
  ServeOptions options;
  options.limits.max_line_bytes = 512;
  ListenerHarness harness(options);

  Client flooder(harness.port());
  flooder.send(std::string(4096, 'x'));  // no newline: an unbounded frame
  // The listener must cut the connection (EOF to us) without a response.
  EXPECT_EQ(flooder.read_all(), "");

  Client normal(harness.port());
  normal.send(solve_frame("fine", 6));
  normal.close_write();
  const std::vector<std::string> lines = normal.read_lines(1);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(response_id(lines[0]), "fine");

  harness.stop();
  EXPECT_EQ(harness.listener().stats().dropped, 1u);
}

TEST(ServerListener, StatsFrameIsServedOverTheSocket) {
  ListenerHarness harness;
  Client client(harness.port());
  client.send(solve_frame("s1", 2));
  client.send("{\"id\":\"s2\",\"stats\":true}\n");
  client.close_write();
  const std::vector<std::string> lines = client.read_lines(2);
  ASSERT_EQ(lines.size(), 2u);
  const auto doc = io::parse_json(lines[1]);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("stats")->find("schema")->as_string(),
            kServeStatsSchema);
  EXPECT_EQ(doc->find("stats")->find("received")->as_double(), 2.0);
}

TEST(ServerListener, StopDrainsEverythingAlreadyReceived) {
  ListenerHarness harness;
  Client client(harness.port());
  constexpr std::size_t kFrames = 8;
  std::string burst;
  for (std::size_t i = 0; i < kFrames; ++i) {
    burst += solve_frame(numbered("d", i), i, /*num_tours=*/8);
  }
  client.send(burst);
  client.close_write();
  // Once the first response is back, the whole burst has been read off
  // the socket (it was one send); stopping now exercises the drain path
  // for everything still in flight.
  const std::vector<std::string> first = client.read_lines(1);
  ASSERT_EQ(first.size(), 1u);
  harness.stop();

  const std::vector<std::string> rest = client.read_lines(kFrames - 1);
  ASSERT_EQ(rest.size(), kFrames - 1)
      << "stop must drain and deliver every received request";
  for (std::size_t i = 0; i < rest.size(); ++i) {
    EXPECT_EQ(response_id(rest[i]), numbered("d", i + 1));
  }
}

TEST(ServerListener, OneSendBurstStaysUnderTheConnectionCap) {
  // 200 frames arrive in one read, but the loop forwards at most
  // max_pending_per_connection (64) of them at a time: one client alone
  // never fills the Server's queue (depth 64) and is never `overloaded`.
  ListenerHarness harness;
  Client client(harness.port());
  constexpr std::size_t kFrames = 200;
  std::string burst;
  for (std::size_t i = 0; i < kFrames; ++i) {
    burst += solve_frame(numbered("t", i), i, /*num_tours=*/20);
  }
  client.send(burst);
  client.close_write();

  const std::vector<std::string> lines = client.read_lines(kFrames);
  ASSERT_EQ(lines.size(), kFrames);
  for (std::size_t i = 0; i < kFrames; ++i) {
    const auto doc = io::parse_json(lines[i]);
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->find("id")->as_string(), numbered("t", i));
    EXPECT_EQ(doc->find("status")->as_string(), "ok") << lines[i];
  }
  harness.stop();
  EXPECT_EQ(harness.server().stats().rejected_overload, 0u);
}

TEST(ServerListener, StalledReaderDoesNotBlockOtherClients) {
  // A unix socket buffers ~200 KB per connection, so 48 responses of
  // ~10 KB overflow it: the loop must hold the rest, write it piecewise
  // as the client drains, and keep serving everyone else meanwhile —
  // also after the client read a little and stalled again, when a write
  // bigger than the freed space would block the loop.
  ListenerOptions listener_options;
  listener_options.unix_path = "acolay_stalled_reader_test.sock";
  ListenerHarness harness(ServeOptions{}, listener_options);
  constexpr std::size_t kFrames = 48;  // under max_pending_per_connection
  constexpr int kVertices = 2000;

  Client stalled(listener_options.unix_path);
  std::string burst;
  for (std::size_t i = 0; i < kFrames; ++i) {
    burst += chain_frame(numbered("a", i), kVertices);
  }
  stalled.send(burst);  // ... and read nothing until the end

  // Stats frames drain everything pushed before them; once one counts all
  // of A's frames, A's responses are rendered and its socket is full.
  Client other(listener_options.unix_path);
  for (std::size_t probe = 1;; ++probe) {
    other.send("{\"id\":\"probe\",\"stats\":true}\n");
    const std::vector<std::string> lines = other.read_lines(1);
    ASSERT_EQ(lines.size(), 1u);
    const auto doc = io::parse_json(lines[0]);
    ASSERT_TRUE(doc.has_value());
    const double received = doc->find("stats")->find("received")->as_double();
    if (received >= static_cast<double>(kFrames + probe)) break;
  }
  std::vector<std::string> lines = stalled.read_lines(kFrames / 2);
  other.send(solve_frame("b", 5));
  const std::vector<std::string> answer = other.read_lines(1);
  ASSERT_EQ(answer.size(), 1u);
  EXPECT_EQ(response_id(answer[0]), "b");

  // A resumes and gets every response, whole and in order.
  for (std::string& line : stalled.read_lines(kFrames - lines.size())) {
    lines.push_back(std::move(line));
  }
  ASSERT_EQ(lines.size(), kFrames);
  for (std::size_t i = 0; i < kFrames; ++i) {
    const auto doc = io::parse_json(lines[i]);
    ASSERT_TRUE(doc.has_value()) << "response " << i << " is torn";
    EXPECT_EQ(doc->find("id")->as_string(), numbered("a", i));
    ASSERT_EQ(doc->find("status")->as_string(), "ok");
    EXPECT_EQ(doc->find("layering")->find("layers")->size(),
              static_cast<std::size_t>(kVertices));
  }
}

TEST(ServerListener, UnixSocketTransportRoundTrips) {
  ListenerOptions listener_options;
  listener_options.unix_path = "acolay_listener_test.sock";  // test cwd
  ListenerHarness harness(ServeOptions{}, listener_options);
  EXPECT_EQ(harness.listener().endpoint(), listener_options.unix_path);

  Client client(listener_options.unix_path);
  client.send(solve_frame("u1", 12));
  client.close_write();
  const std::vector<std::string> lines = client.read_lines(1);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(response_id(lines[0]), "u1");

  harness.stop();
  // The socket path is unlinked on shutdown.
  EXPECT_NE(::access(listener_options.unix_path.c_str(), F_OK), 0);
}

TEST(ServerListener, MaxClientsCapRejectsTheExtraConnection) {
  ListenerOptions listener_options;
  listener_options.max_clients = 1;
  ListenerHarness harness(ServeOptions{}, listener_options);

  Client first(harness.port());
  first.send(solve_frame("keep", 1));
  const std::vector<std::string> kept = first.read_lines(1);
  ASSERT_EQ(kept.size(), 1u);  // first client is being served

  Client second(harness.port());
  // Past the cap: accepted and closed immediately, no response bytes.
  EXPECT_EQ(second.read_all(), "");

  first.close_write();
  harness.stop();
  EXPECT_EQ(harness.listener().stats().accepted, 1u);
  EXPECT_EQ(harness.listener().stats().rejected, 1u);
}

}  // namespace
}  // namespace acolay::server
