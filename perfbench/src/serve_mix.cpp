// serve_mix: the acolay_serve binary as deployed (--listen 0 --threads 2,
// loopback TCP), driven by two closed-loop connections that each send
// their next frame only after the previous reply arrived. The frames
// (inputs.hpp) mix corpus-like DAGs, tiny frames, exact repeats around the
// 64-entry result cache and cyclic frames, so the per-frame layers
// (protocol, session poll tick, queue, transport) dominate.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "core/request.hpp"
#include "graph/algorithms.hpp"
#include "graph/csr.hpp"
#include "inputs.hpp"
#include "io/json_reader.hpp"
#include "layering/layering.hpp"
#include "replay.hpp"
#include "server/protocol.hpp"

extern char** environ;

namespace perfbench {

namespace ac = acolay::core;
namespace ag = acolay::graph;
namespace as = acolay::server;
using acolay::io::JsonValue;

namespace {

constexpr std::size_t kFrames = 1500;  ///< one pass of the frame sequence
constexpr int kConnections = 2;
constexpr int kSpawns = 21;  ///< daemon start-ups timed per run for setup_s
/// Per-frame round-trip limit behind within_limit_ratio.
constexpr double kLimitMs = 10.0;
constexpr int kReadyTimeoutMs = 20000;
constexpr int kStopTimeoutMs = 30000;

// --- the daemon process ----------------------------------------------------

/// One acolay_serve process in socket mode, reaped by stop() or the
/// destructor.
class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    if (pid_ > 0) stop();
  }

  /// Spawns the daemon and waits for its readiness line; returns the
  /// seconds from spawn to readiness. Throws when it never gets ready.
  double start(const std::string& bin, bool timing) {
    std::vector<std::string> args = {bin, "--listen", "0", "--threads", "2"};
    if (timing) args.emplace_back("--timing");
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    log_.clear();
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDERR_FILENO);
    const auto spawned = Clock::now();
    const int rc = ::posix_spawn(&pid_, bin.c_str(), &actions, nullptr,
                                 argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    err_ = fds[0];
    if (rc != 0) {
      pid_ = -1;
      ::close(err_);
      throw std::runtime_error("cannot spawn " + bin);
    }
    const std::string marker = "listening on 127.0.0.1:";
    while (true) {
      const auto at = log_.find(marker);
      const auto eol = at == std::string::npos ? at : log_.find('\n', at);
      if (eol != std::string::npos) {
        port_ = std::stoi(log_.substr(at + marker.size()));
        return seconds_since(spawned);
      }
      bool closed = false;
      if (!read_some(kReadyTimeoutMs, closed)) {
        stop();
        throw std::runtime_error("acolay_serve never became ready: " + log_);
      }
    }
  }

  int port() const { return port_; }

  /// Stops the daemon (SIGTERM: drain, stats line, exit), reaps it and
  /// returns its peak resident set in MB.
  double stop() {
    ::kill(pid_, SIGTERM);
    bool closed = false;
    while (read_some(kStopTimeoutMs, closed)) {
    }
    // The daemon closes its end of the pipe only when it exits; one that
    // hung past the timeout is killed instead.
    if (!closed) ::kill(pid_, SIGKILL);
    struct rusage usage {};
    int status = 0;
    ::wait4(pid_, &status, 0, &usage);
    ::close(err_);
    pid_ = -1;
    return peak_rss_mb(usage);
  }

 private:
  // Appends whatever the daemon wrote; false on end of file (`closed`
  // set) or timeout.
  bool read_some(int timeout_ms, bool& closed) {
    pollfd p{err_, POLLIN, 0};
    if (::poll(&p, 1, timeout_ms) <= 0) return false;
    char buffer[4096];
    const ssize_t got = ::read(err_, buffer, sizeof buffer);
    closed = got <= 0;
    if (closed) return false;
    log_.append(buffer, static_cast<std::size_t>(got));
    return true;
  }

  pid_t pid_ = -1;
  int err_ = -1;
  int port_ = -1;
  std::string log_;
};

// --- one client connection -----------------------------------------------------

class Connection {
 public:
  explicit Connection(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (fd_ < 0 || ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                             sizeof addr) != 0) {
      throw std::runtime_error("cannot connect to acolay_serve");
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection() { ::close(fd_); }

  /// Sends one newline-terminated frame and reads one response line
  /// (without its newline) into `response`. False on a transport error.
  bool request(const std::string& frame, std::string& response) {
    std::size_t sent = 0;
    while (sent < frame.size()) {
      const ssize_t n = ::send(fd_, frame.data() + sent, frame.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    while (true) {
      const auto eol = buffer_.find('\n');
      if (eol != std::string::npos) {
        response.assign(buffer_, 0, eol);
        buffer_.erase(0, eol + 1);
        return true;
      }
      char chunk[1 << 16];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

// --- expectations ------------------------------------------------------------------

/// What a direct core::solve of the wire-normalized frame produces.
struct Expected {
  as::ParsedRequest parsed;  ///< the frame as the daemon parses it
  ac::SolveOutcome outcome;
};

ac::SolveRequest to_request(const as::ParsedRequest& parsed) {
  ac::SolveRequest request;
  request.graph = &parsed.graph;
  request.params = parsed.params;
  request.cycle_policy = parsed.cycle_policy.value_or(ac::CyclePolicy::kReject);
  return request;
}

std::vector<Expected> expectations(const std::vector<Frame>& frames,
                                   const std::vector<std::string>& texts) {
  std::vector<Expected> expected(frames.size());
  std::string message;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (frames[i].source != i) continue;  // repeats share their original's
    const std::string line = texts[i].substr(0, texts[i].size() - 1);
    if (as::parse_request_line(line, {}, expected[i].parsed, message) !=
        ac::AdmissionError::kNone) {
      throw std::runtime_error("generated frame does not parse: " + message);
    }
    expected[i].outcome = ac::solve(to_request(expected[i].parsed));
  }
  return expected;
}

// --- load ------------------------------------------------------------------------------

struct Reply {
  std::uint32_t index = 0;  ///< position in the frame sequence
  double rt_ms = 0.0;       ///< send to full response line
  std::string text;
};

struct Load {
  std::vector<Reply> replies;
  double wall_s = 0.0;
  std::uint64_t transport_errors = 0;
};

// Two closed-loop connections share one cursor over the frame sequence;
// they stop once a full pass is done and `seconds` have elapsed.
Load run_load(int port, const std::vector<std::string>& texts,
              double seconds) {
  std::vector<std::unique_ptr<Connection>> connections;
  for (int c = 0; c < kConnections; ++c) {
    connections.push_back(std::make_unique<Connection>(port));
  }
  std::atomic<std::size_t> cursor{0};
  std::atomic<std::uint64_t> errors{0};
  std::vector<std::vector<Reply>> per_client(kConnections);
  const auto start = Clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < kConnections; ++c) {
    clients.emplace_back([&, c] {
      std::vector<Reply>& out = per_client[static_cast<std::size_t>(c)];
      out.reserve(texts.size() * 16);
      std::string response;
      while (true) {
        const std::size_t k = cursor.fetch_add(1);
        if (k >= texts.size() && seconds_since(start) >= seconds) break;
        const std::size_t index = k % texts.size();
        const auto sent = Clock::now();
        if (!connections[static_cast<std::size_t>(c)]->request(texts[index],
                                                               response)) {
          errors.fetch_add(1);
          break;
        }
        out.push_back(Reply{static_cast<std::uint32_t>(index),
                            seconds_since(sent) * 1e3, response});
      }
    });
  }
  for (std::thread& t : clients) t.join();
  Load load;
  load.wall_s = seconds_since(start);
  load.transport_errors = errors.load();
  for (auto& replies : per_client) {
    for (Reply& r : replies) load.replies.push_back(std::move(r));
  }
  return load;
}

/// The counters of a "stats" frame that the checks use.
struct Counters {
  double received = 0.0;
  double solved = 0.0;
  double dedup_hits = 0.0;
};

Counters query_stats(int port) {
  Connection connection(port);
  std::string response;
  if (!connection.request("{\"id\":\"stats\",\"stats\":true}\n", response)) {
    throw std::runtime_error("stats frame got no reply");
  }
  const auto doc = acolay::io::parse_json(response);
  const JsonValue* stats = doc ? doc->find("stats") : nullptr;
  if (stats == nullptr) throw std::runtime_error("bad stats reply");
  const auto field = [&](const char* key) {
    const JsonValue* v = stats->find(key);
    return v != nullptr && v->is_number() ? v->as_double() : 0.0;
  };
  return Counters{field("received"), field("solved"), field("dedup_hits")};
}

// --- checks --------------------------------------------------------------------------------

struct Checked {
  bool ok = false;  ///< answered ok and equal to the expectation
  bool deduped = false;
  double objective = 0.0;
  double seconds = -1.0;  ///< the daemon's --timing field, if present
};

// Re-reversing `reversed` in `input` must give a DAG that `layering`
// layers validly (the layering is of the reoriented graph).
bool reversal_reconstructs(const ag::Digraph& input,
                           const std::vector<ag::Edge>& reversed,
                           const acolay::layering::Layering& layering) {
  ag::Digraph dag = input;
  for (const ag::Edge& e : reversed) {
    if (!dag.remove_edge(e.source, e.target)) return false;
    dag.add_edge(e.target, e.source);
  }
  return ag::is_dag(dag) &&
         acolay::layering::is_valid_layering(dag, layering);
}

Checked check_reply(const Reply& reply, const Expected& expected,
                    Result& result) {
  Checked checked;
  const std::string where = "frame f" + std::to_string(reply.index) + ": ";
  const auto doc = acolay::io::parse_json(reply.text);
  const JsonValue* status = doc ? doc->find("status") : nullptr;
  if (status == nullptr || !status->is_string() ||
      status->as_string() != "ok") {
    result.mismatch(where + "not answered ok: " + reply.text.substr(0, 200));
    return checked;
  }
  const JsonValue* deduped = doc->find("deduped");
  checked.deduped = deduped != nullptr && deduped->is_bool() &&
                    deduped->as_bool();
  const JsonValue* seconds = doc->find("seconds");
  if (seconds != nullptr && seconds->is_number()) {
    checked.seconds = seconds->as_double();
  }

  const ac::AcoResult& want = expected.outcome.result;
  const JsonValue* metrics = doc->find("metrics");
  const JsonValue* objective = metrics ? metrics->find("objective") : nullptr;
  const JsonValue* layering = doc->find("layering");
  const JsonValue* layers = layering ? layering->find("layers") : nullptr;
  if (objective == nullptr || !objective->is_number() || layers == nullptr ||
      !layers->is_array()) {
    result.mismatch(where + "malformed ok response");
    return checked;
  }
  checked.objective = objective->as_double();
  bool same = checked.objective == want.metrics.objective &&
              layers->size() == want.layering.num_vertices();
  for (std::size_t v = 0; same && v < layers->size(); ++v) {
    same = (*layers)[v].try_int64() ==
           want.layering.layer(static_cast<ag::VertexId>(v));
  }
  if (!same) {
    result.mismatch(where + "result differs from a direct core::solve");
    return checked;
  }

  std::vector<ag::Edge> reversed;
  if (const JsonValue* edges = doc->find("reversed_edges")) {
    for (const JsonValue& e : edges->elements()) {
      reversed.push_back(ag::Edge{static_cast<ag::VertexId>(e[0].as_int64()),
                                  static_cast<ag::VertexId>(e[1].as_int64())});
    }
  }
  if (reversed != expected.outcome.reversed_edges ||
      (!reversed.empty() &&
       !reversal_reconstructs(expected.parsed.graph, reversed,
                              want.layering))) {
    result.mismatch(where + "reversed_edges do not reconstruct the input");
    return checked;
  }
  checked.ok = true;
  return checked;
}

struct Verdict {
  std::vector<Checked> checked;  ///< one per reply
  std::size_t deduped = 0;
  std::size_t ok = 0;
};

// Checks every reply, and that the dedup counter accounts for every
// repeat: dedup hits equal the replies marked deduped, and every ok reply
// was either solved or deduped.
Verdict check_load(const Load& load, const std::vector<Frame>& frames,
                   const std::vector<Expected>& expected,
                   const Counters& before, const Counters& after,
                   Result& result) {
  Verdict verdict;
  result.attempted += load.replies.size() + load.transport_errors;
  for (std::uint64_t e = 0; e < load.transport_errors; ++e) {
    result.mismatch("connection failed mid-run");
  }
  for (const Reply& reply : load.replies) {
    const Checked c =
        check_reply(reply, expected[frames[reply.index].source], result);
    verdict.deduped += c.deduped ? 1 : 0;
    verdict.ok += c.ok ? 1 : 0;
    verdict.checked.push_back(c);
  }
  const double hits = after.dedup_hits - before.dedup_hits;
  const double solved = after.solved - before.solved;
  if (hits != static_cast<double>(verdict.deduped)) {
    result.mismatch("dedup_hits " + std::to_string(hits) + " != " +
                    std::to_string(verdict.deduped) + " deduped replies");
  }
  if (solved + hits < static_cast<double>(verdict.ok)) {
    result.mismatch("ok replies exceed solved + dedup_hits");
  }
  return verdict;
}

/// Mean objective over the positions of one pass of the sequence: a pure
/// function of the seed, however many passes a run makes.
double objective_mean(const Load& load, const Verdict& verdict) {
  std::vector<std::optional<double>> by_index(kFrames);
  for (std::size_t r = 0; r < load.replies.size(); ++r) {
    auto& slot = by_index[load.replies[r].index];
    if (!slot && verdict.checked[r].ok) slot = verdict.checked[r].objective;
  }
  double sum = 0.0;
  std::size_t count = 0;
  for (const auto& slot : by_index) {
    if (slot) {
      sum += *slot;
      ++count;
    }
  }
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

std::vector<std::string> frame_texts(const std::vector<Frame>& frames) {
  std::vector<std::string> texts;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    texts.push_back(frame_text(frames[i], i) + '\n');
  }
  return texts;
}

// --- the traced run --------------------------------------------------------------------------

/// In-process times of one frame's per-frame layers (ms).
struct FrameLayers {
  double parse = 0.0;
  double validate = 0.0;
  double resolve = 0.0;
  double freeze = 0.0;
  double fingerprint = 0.0;
  double render = 0.0;
  double total() const {
    return parse + validate + resolve + freeze + fingerprint + render;
  }
};

Result run_traced(const Options& options, const std::vector<Frame>& frames,
                  const std::vector<std::string>& texts,
                  const std::vector<Expected>& expected) {
  Result result;
  // Untraced base for the overhead ratio, then the traced load.
  Load plain;
  {
    Daemon daemon;
    daemon.start(options.serve_bin, false);
    plain = run_load(daemon.port(), texts, options.seconds / 2);
    daemon.stop();
  }
  Daemon daemon;
  daemon.start(options.serve_bin, true);
  const Counters before = query_stats(daemon.port());
  const Load load = run_load(daemon.port(), texts, options.seconds / 2);
  const Counters after = query_stats(daemon.port());
  daemon.stop();
  const Verdict verdict =
      check_load(load, frames, expected, before, after, result);

  // Replay every distinct frame's layers in-process.
  SpanRecorder recorder;
  ac::ColonyWorkspace ws;
  std::vector<FrameLayers> layers(frames.size());
  std::vector<double> resolve_ms;
  std::vector<double> reversed_counts;
  double bytes_in = 0.0;
  double bytes_out = 0.0;
  double max_matrix_bytes = 0.0;
  std::int64_t moves = 0;
  std::int64_t walks = 0;
  double visits = 0.0;
  std::size_t distinct = 0;
  std::string message;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (frames[i].source != i) continue;
    ++distinct;
    FrameLayers& f = layers[i];
    const std::string line = texts[i].substr(0, texts[i].size() - 1);
    const std::int32_t root = recorder.open("server.frame", -1, i);
    const auto timed = [&](const char* name, double& ms, auto&& body) {
      const std::int32_t id = recorder.open(name, root, i);
      body();
      recorder.close(id);
      const Span& s = recorder.spans()[static_cast<std::size_t>(id)];
      ms = (s.end - s.start) * 1e3;
    };
    as::ParsedRequest parsed;
    timed("server.protocol.parse", f.parse, [&] {
      as::parse_request_line(line, {}, parsed, message);
    });
    const ac::SolveRequest request = to_request(parsed);
    timed("core.request.validate", f.validate,
          [&] { ac::validate_request(request, &message); });
    ac::CycleResolution phase0;
    timed("graph.cycle_removal.resolve", f.resolve, [&] {
      ac::resolve_cycles(parsed.graph, request.cycle_policy,
                         request.params.seed, phase0);
    });
    if (frames[i].cyclic) {
      resolve_ms.push_back(f.resolve);
      reversed_counts.push_back(
          static_cast<double>(phase0.reversed_edges.size()));
    }
    ag::CsrView csr;
    // The admission freeze of the input graph (the dedup key); the colony
    // replay below freezes the Phase 0 output again, as the solver does.
    timed("graph.csr.freeze_input", f.freeze,
          [&] { csr.rebuild(parsed.graph); });
    timed("graph.csr.fingerprint", f.fingerprint, [&] { csr.fingerprint(); });

    const std::int32_t colony = recorder.open("core.colony.solve", root, i);
    const ReplayOutcome replay = replay_colony(
        *phase0.graph, request.params, ws, recorder, colony, i);
    recorder.close(colony);
    const ac::AcoResult& want = expected[i].outcome.result;
    if (replay.layering.raw() != want.layering.raw() ||
        replay.objective != want.metrics.objective) {
      result.mismatch("frame f" + std::to_string(i) +
                      ": colony replay differs from core::solve");
    }
    moves += replay.moves;
    walks += replay.walks;
    visits += static_cast<double>(replay.walks) *
              static_cast<double>(phase0.graph->num_vertices());
    max_matrix_bytes =
        std::max(max_matrix_bytes,
                 static_cast<double>(phase0.graph->num_vertices()) *
                     static_cast<double>(replay.num_layers) * 8.0);

    std::string response;
    timed("server.protocol.render", f.render, [&] {
      response = as::render_result_response(parsed.id, want, false,
                                            want.seconds, std::nullopt,
                                            expected[i].outcome.reversed_edges);
    });
    recorder.close(root);
    bytes_in += static_cast<double>(texts[i].size());
    bytes_out += static_cast<double>(response.size() + 1);
  }

  // Residual: round trip minus the in-process layer times and the
  // daemon's own colony seconds, for every reply that ran a colony.
  std::vector<double> residual_ms;
  std::vector<double> solve_ms;
  for (std::size_t r = 0; r < load.replies.size(); ++r) {
    const Checked& c = verdict.checked[r];
    if (!c.ok || c.deduped || c.seconds < 0) continue;
    const Reply& reply = load.replies[r];
    solve_ms.push_back(c.seconds * 1e3);
    residual_ms.push_back(reply.rt_ms - c.seconds * 1e3 -
                          layers[frames[reply.index].source].total());
  }

  std::vector<double> parse_us, render_us, validate_us, freeze_us, print_us;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (frames[i].source != i) continue;
    parse_us.push_back(layers[i].parse * 1e3);
    render_us.push_back(layers[i].render * 1e3);
    validate_us.push_back(layers[i].validate * 1e3);
    freeze_us.push_back(layers[i].freeze * 1e3);
    print_us.push_back(layers[i].fingerprint * 1e3);
  }
  const double n = static_cast<double>(distinct);
  const auto per_frame = [&](const char* span) {
    return recorder.self_ms(span) / n;
  };
  const double frames_received = after.received - before.received - 1.0;
  result.add("server.protocol.parse_us", quantile(parse_us, 0.5), "us");
  result.add("server.protocol.render_us", quantile(render_us, 0.5), "us");
  result.add("server.protocol.bytes_in", bytes_in / n, "B");
  result.add("server.protocol.bytes_out", bytes_out / n, "B");
  result.add("server.session.residual_ms_p50", quantile(residual_ms, 0.5),
             "ms");
  result.add("server.session.residual_ms_p99", quantile(residual_ms, 0.99),
             "ms");
  result.add("server.session.dedup_hit_ratio",
             (after.dedup_hits - before.dedup_hits) / frames_received,
             "ratio");
  result.add("core.request.validate_us", quantile(validate_us, 0.5), "us");
  result.add("graph.csr.freeze_us", quantile(freeze_us, 0.5), "us");
  result.add("graph.csr.fingerprint_us", quantile(print_us, 0.5), "us");
  result.add("graph.cycle_removal.resolve_ms", mean(resolve_ms), "ms");
  result.add("graph.cycle_removal.reversed_edges", mean(reversed_counts),
             "count");
  result.add("core.colony.solve_ms", mean(solve_ms), "ms");
  result.add("baselines.longest_path.ms", per_frame("baselines.longest_path"),
             "ms");
  result.add("core.stretch.ms", per_frame("core.stretch"), "ms");
  result.add("core.colony.init_objective_ms",
             per_frame("core.colony.init_objective"), "ms");
  result.add("graph.csr.freeze_ms", per_frame("graph.csr.freeze"), "ms");
  result.add("core.ant.walk_ms", per_frame("core.ant.walk"), "ms");
  result.add("core.ant.walk_ms_p50",
             quantile(recorder.durations_ms("core.ant.walk"), 0.5), "ms");
  result.add("core.ant.walks", static_cast<double>(walks) / n, "count");
  result.add("core.ant.moves_per_visit",
             visits > 0 ? static_cast<double>(moves) / visits : 0.0, "ratio");
  result.add("core.pheromone.reset_ms", per_frame("core.pheromone.reset"),
             "ms");
  result.add("core.pheromone.update_ms", per_frame("core.pheromone.update"),
             "ms");
  result.add("core.pheromone.bytes", max_matrix_bytes, "B");
  result.add("tracing.overhead_ratio",
             (load.wall_s / static_cast<double>(load.replies.size())) /
                 (plain.wall_s / static_cast<double>(plain.replies.size())),
             "ratio");
  result.notes.push_back(describe_latency("serve_mix residual", residual_ms));
  result.notes.push_back("server.session.dedup_hit_ratio base: " +
                         std::to_string(frames_received) + " frames received");
  const std::string path = options.trace_dir + "/serve_mix-" +
                           std::to_string(options.seed) + ".jsonl";
  if (!options.trace_dir.empty() && recorder.write_jsonl(path)) {
    result.notes.push_back("spans written to " + path);
  }
  return result;
}

}  // namespace

Result run_serve_mix(const Options& options) {
  const std::vector<Frame> frames = make_serve_frames(options.seed, kFrames);
  const std::vector<std::string> texts = frame_texts(frames);
  const std::vector<Expected> expected = expectations(frames, texts);
  if (options.trace) {
    Result result = run_traced(options, frames, texts, expected);
    complete_layer_metrics(result);
    return result;
  }

  Result result;
  // Set-up: spawn to readiness line, several times; the last daemon
  // started serves the load.
  std::vector<double> setup_s;
  Daemon daemon;
  for (int s = 0; s < kSpawns; ++s) {
    if (s > 0) daemon.stop();
    setup_s.push_back(daemon.start(options.serve_bin, false));
  }
  const Counters before = query_stats(daemon.port());
  const Load load = run_load(daemon.port(), texts, options.seconds);
  const Counters after = query_stats(daemon.port());
  const double peak_rss = daemon.stop();
  const Verdict verdict =
      check_load(load, frames, expected, before, after, result);

  std::vector<double> latency_ms;
  std::size_t within_limit = 0;
  for (std::size_t r = 0; r < load.replies.size(); ++r) {
    latency_ms.push_back(load.replies[r].rt_ms);
    if (verdict.checked[r].ok && load.replies[r].rt_ms <= kLimitMs) {
      ++within_limit;
    }
  }
  const double attempted = static_cast<double>(result.attempted);
  result.add("throughput_ops_s",
             static_cast<double>(load.replies.size()) / load.wall_s, "ops/s");
  result.add("latency_p50_ms", quantile(latency_ms, 0.5), "ms");
  result.add("latency_p99_ms", quantile(latency_ms, 0.99), "ms");
  result.add("within_limit_ratio",
             static_cast<double>(within_limit) / attempted, "ratio");
  result.add("objective_mean", objective_mean(load, verdict), "f");
  result.add("peak_rss_mb", peak_rss, "MB");
  result.add("setup_s", quantile(setup_s, 0.5), "s");
  result.notes.push_back(describe_latency("serve_mix", latency_ms));
  result.notes.push_back(
      "serve_mix: " + std::to_string(verdict.deduped) + " of " +
      std::to_string(load.replies.size()) + " replies deduped");
  return result;
}

}  // namespace perfbench
