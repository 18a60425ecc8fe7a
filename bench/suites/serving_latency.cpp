// Serving-layer latency and correctness under a synthetic open-loop
// request stream: a server::Server is fed a fixed 96-frame stream (push
// cadence independent of completions — the open-loop shape) of corpus
// layering requests in which every third frame repeats its predecessor
// exactly, so the dedup path carries a third of the load.
//
// The timing series reports p50/p99/mean response latency (push-to-emit,
// arrival-order emission included — a fast request queued behind a slow
// one inherits its wait, which is the latency a pipe client actually
// sees). Timing is hardware-dependent: tracked across commits, never
// gated.
//
// The quality series are the gate: (a) the mean served objective —
// parsed back out of the response JSON — must equal a direct
// BatchSolver::solve_all over the same graphs and params exactly (the
// served-equals-direct bit-identity contract, including the JSON number
// round-trip), and (b) the dedup counters are a pure function of the
// stream (every duplicate collapses, every distinct request solves), so
// they are gated exactly too.
//
// A second, multi-client variant then pushes the same protocol through a
// real socket Listener on an ephemeral loopback port: 4 closed-loop
// client threads x 24 distinct frames each, per-frame round-trip latency
// (send to response line) in its own timing series, gated on the same
// served-equals-direct parity and on every frame solving exactly once.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/batch.hpp"
#include "graph/digraph.hpp"
#include "io/json.hpp"
#include "io/json_reader.hpp"
#include "server/listener.hpp"
#include "server/session.hpp"
#include "suites/suites.hpp"
#include "support/check.hpp"
#include "support/timer.hpp"

namespace acolay::bench {

namespace {

/// One wire request frame for `g` (the serving protocol's graph shape,
/// edges in Digraph::edges() source-major order).
std::string request_frame(const std::string& id, const graph::Digraph& g,
                          const core::AcoParams& params) {
  io::JsonWriter w;
  w.begin_object();
  w.kv("id", id);
  w.key("graph").begin_object();
  w.kv("num_vertices", g.num_vertices());
  w.key("edges").begin_array();
  for (const auto& e : g.edges()) {
    w.begin_array().value(e.source).value(e.target).end_array();
  }
  w.end_array();
  w.end_object();
  w.key("params").begin_object();
  w.kv("num_ants", params.num_ants);
  w.kv("num_tours", params.num_tours);
  w.kv("seed", params.seed);
  w.end_object();
  w.end_object();
  return w.str();
}

/// The graph exactly as the server reconstructs it from the frame above:
/// edges re-added in source-major order (fixes the predecessor-list order
/// too), widths dropped (the frame above sends none). The direct
/// reference solver must see this graph, not the corpus original, for the
/// bit-identity claim to be meaningful.
graph::Digraph wire_normalized(const graph::Digraph& g) {
  graph::Digraph out(g.num_vertices());
  for (const auto& e : g.edges()) out.add_edge(e.source, e.target);
  return out;
}

double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

// Minimal blocking client for the multi-client variant: the bench plays
// the wire peer, so it uses raw sockets rather than anything from
// src/server/.

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ACOLAY_CHECK_MSG(fd >= 0, "bench client socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ACOLAY_CHECK_MSG(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                             sizeof(addr)) == 0,
                   "bench client connect() failed");
  return fd;
}

void send_all(int fd, std::string_view text) {
  while (!text.empty()) {
    const ssize_t n = ::send(fd, text.data(), text.size(), 0);
    ACOLAY_CHECK_MSG(n > 0, "bench client send() failed");
    text.remove_prefix(static_cast<std::size_t>(n));
  }
}

std::string read_line(int fd, std::string& buffer) {
  for (;;) {
    const std::size_t pos = buffer.find('\n');
    if (pos != std::string::npos) {
      std::string line = buffer.substr(0, pos);
      buffer.erase(0, pos + 1);
      return line;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    ACOLAY_CHECK_MSG(n > 0, "socket closed before the response arrived");
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace

harness::Suite serving_latency_suite() {
  harness::Suite suite;
  suite.name = "serving_latency";
  suite.description =
      "server::Server p50/p99 response latency under a 96-frame open-loop "
      "stream (1/3 duplicates), gated on served-equals-direct parity and "
      "exact dedup collapse";
  suite.run = [](const harness::SuiteContext& ctx,
                 harness::SuiteOutput& output) {
    const auto& corpus = ctx.corpus();
    const std::size_t corpus_size = corpus.graphs.size();
    output.graphs = corpus_size;

    core::AcoParams base = ctx.config.aco;
    base.record_trace = false;  // the server forces this off the wire
    base.num_threads = 1;       // colonies are serial inside a request

    // The fixed stream: request i repeats request i-1 byte-for-byte
    // (different id) when i % 3 == 2, otherwise it is a fresh
    // (graph, params) drawn by cycling the corpus.
    constexpr std::size_t kNumRequests = 96;
    std::vector<std::size_t> source(kNumRequests);  // the request it solves
    std::vector<graph::Digraph> graphs(kNumRequests);
    std::vector<core::AcoParams> params(kNumRequests);
    std::vector<std::string> frames(kNumRequests);
    std::size_t num_distinct = 0;
    for (std::size_t i = 0; i < kNumRequests; ++i) {
      const bool duplicate = (i % 3 == 2);
      source[i] = duplicate ? source[i - 1] : i;
      if (!duplicate) ++num_distinct;
      graphs[i] = wire_normalized(corpus.graphs[source[i] % corpus_size]);
      params[i] = base;
      params[i].seed = base.seed + static_cast<std::uint64_t>(source[i]);
      std::string id = "r";
      id += std::to_string(i);
      frames[i] = request_frame(id, graphs[i], params[i]);
    }

    // Direct reference over the identical work, in the same order.
    core::BatchSolver direct(ctx.config.num_threads);
    const std::vector<core::AcoResult> expected =
        direct.solve_all(graphs, params);
    double direct_objective_sum = 0.0;
    for (const auto& result : expected) {
      direct_objective_sum += result.metrics.objective;
    }

    // The served run: push cadence is the loop, not the completions.
    server::ServeOptions serve_options;
    serve_options.num_threads = ctx.config.num_threads;
    serve_options.max_queue_depth = kNumRequests;  // no overload shedding
    server::Server server(serve_options);

    std::vector<double> push_at(kNumRequests, 0.0);
    std::vector<double> latency(kNumRequests, 0.0);
    std::vector<double> served_objective(kNumRequests, 0.0);
    support::Stopwatch watch;
    const auto collect = [&] {
      const double now = watch.elapsed_seconds();
      for (const std::string& line : server.take_responses()) {
        const auto doc = io::parse_json(line);
        ACOLAY_CHECK_MSG(doc.has_value(), "unparseable serve response");
        ACOLAY_CHECK_MSG(doc->find("status")->as_string() == "ok",
                         "serve stream rejected a valid request");
        const std::string& id = doc->find("id")->as_string();
        std::size_t index = 0;
        const auto [ptr, ec] = std::from_chars(
            id.data() + 1, id.data() + id.size(), index);
        ACOLAY_CHECK(ec == std::errc{} && index < kNumRequests);
        latency[index] = now - push_at[index];
        served_objective[index] =
            doc->find("metrics")->find("objective")->as_double();
      }
    };
    for (std::size_t i = 0; i < kNumRequests; ++i) {
      push_at[i] = watch.elapsed_seconds();
      server.push_line(frames[i]);
      server.step();
      collect();
    }
    while (server.outstanding() > 0) {
      server.step();
      collect();
    }

    double served_objective_sum = 0.0;
    for (const double objective : served_objective) {
      served_objective_sum += objective;
    }
    const double count = static_cast<double>(kNumRequests);

    std::vector<double> sorted = latency;
    std::sort(sorted.begin(), sorted.end());
    double latency_sum = 0.0;
    for (const double l : sorted) latency_sum += l;

    harness::Series timing{"latency_seconds", "percentile",
                           harness::SeriesKind::kTiming, {}, {}};
    harness::SeriesColumn seconds{"push_to_emit", {}, {}};
    for (const auto& [label, value] :
         {std::pair<const char*, double>{"p50", quantile(sorted, 0.50)},
          {"p99", quantile(sorted, 0.99)},
          {"mean", latency_sum / count}}) {
      timing.x.push_back(label);
      seconds.mean.push_back(value);
      seconds.stddev.push_back(0.0);
    }
    timing.columns.push_back(std::move(seconds));
    output.series.push_back(std::move(timing));

    harness::Series parity{"mean_objective", "stream",
                           harness::SeriesKind::kQuality, {}, {}};
    parity.x.push_back("96-frame");
    parity.columns.push_back(
        harness::SeriesColumn{"served", {served_objective_sum / count}, {0.0}});
    parity.columns.push_back(
        harness::SeriesColumn{"direct", {direct_objective_sum / count}, {0.0}});
    output.series.push_back(std::move(parity));

    const auto& stats = server.stats();
    harness::Series dedup{"dedup_counters", "stream",
                          harness::SeriesKind::kQuality, {}, {}};
    dedup.x.push_back("96-frame");
    dedup.columns.push_back(harness::SeriesColumn{
        "solved", {static_cast<double>(stats.solved)}, {0.0}});
    dedup.columns.push_back(harness::SeriesColumn{
        "dedup_hits",
        {static_cast<double>(stats.dedup_shared + stats.dedup_cached)},
        {0.0}});
    output.series.push_back(std::move(dedup));

    // --- Multi-client socket variant -----------------------------------
    // 4 closed-loop clients, each with its own connection and 24 distinct
    // frames: round-trip latency is what a socket client actually waits
    // (send to response line, queueing behind the other clients
    // included). Distinct seeds everywhere so solved == frames is the
    // exact dedup-free expectation.
    constexpr std::size_t kNumClients = 4;
    constexpr std::size_t kFramesPerClient = 24;
    constexpr std::size_t kMcRequests = kNumClients * kFramesPerClient;
    std::vector<graph::Digraph> mc_graphs(kMcRequests);
    std::vector<core::AcoParams> mc_params(kMcRequests);
    std::vector<std::string> mc_frames(kMcRequests);
    for (std::size_t i = 0; i < kMcRequests; ++i) {
      mc_graphs[i] = wire_normalized(corpus.graphs[i % corpus_size]);
      mc_params[i] = base;
      mc_params[i].seed = base.seed + 1000 + static_cast<std::uint64_t>(i);
      std::string id = "m";
      id += std::to_string(i);
      mc_frames[i] = request_frame(id, mc_graphs[i], mc_params[i]);
    }
    const std::vector<core::AcoResult> mc_expected =
        direct.solve_all(mc_graphs, mc_params);
    double mc_direct_sum = 0.0;
    for (const auto& result : mc_expected) {
      mc_direct_sum += result.metrics.objective;
    }

    server::ServeOptions mc_options;
    mc_options.num_threads = ctx.config.num_threads;
    mc_options.max_queue_depth = kMcRequests;
    server::Server mc_server(mc_options);
    server::ListenerOptions listener_options;
    listener_options.tcp_port = 0;  // ephemeral loopback port
    server::Listener listener(mc_server, listener_options);
    std::string listen_error;
    ACOLAY_CHECK_MSG(listener.start(listen_error), listen_error.c_str());
    std::thread listener_thread([&] { listener.run(nullptr); });

    std::vector<double> mc_latency(kMcRequests, 0.0);
    std::vector<double> mc_objective(kMcRequests, 0.0);
    std::vector<std::thread> clients;
    clients.reserve(kNumClients);
    for (std::size_t c = 0; c < kNumClients; ++c) {
      clients.emplace_back([&, c] {
        const int fd = connect_loopback(listener.port());
        std::string buffer;
        support::Stopwatch client_watch;
        for (std::size_t k = 0; k < kFramesPerClient; ++k) {
          const std::size_t i = c * kFramesPerClient + k;
          const double sent_at = client_watch.elapsed_seconds();
          send_all(fd, mc_frames[i] + "\n");
          const std::string line = read_line(fd, buffer);
          mc_latency[i] = client_watch.elapsed_seconds() - sent_at;
          const auto doc = io::parse_json(line);
          ACOLAY_CHECK_MSG(doc.has_value(), "unparseable socket response");
          ACOLAY_CHECK_MSG(doc->find("status")->as_string() == "ok",
                           "socket stream rejected a valid request");
          // Closed-loop per-connection ordering: the response on this
          // connection must answer the frame this client just sent.
          std::string expected_id = "m";
          expected_id += std::to_string(i);
          ACOLAY_CHECK_MSG(doc->find("id")->as_string() == expected_id,
                           "response misrouted across connections");
          mc_objective[i] =
              doc->find("metrics")->find("objective")->as_double();
        }
        ::close(fd);
      });
    }
    for (auto& client : clients) client.join();
    listener.request_stop();
    listener_thread.join();

    double mc_served_sum = 0.0;
    for (const double objective : mc_objective) mc_served_sum += objective;
    std::vector<double> mc_sorted = mc_latency;
    std::sort(mc_sorted.begin(), mc_sorted.end());
    double mc_latency_sum = 0.0;
    for (const double l : mc_sorted) mc_latency_sum += l;
    const double mc_count = static_cast<double>(kMcRequests);

    harness::Series mc_timing{"socket_latency_seconds", "percentile",
                              harness::SeriesKind::kTiming, {}, {}};
    harness::SeriesColumn round_trip{"round_trip", {}, {}};
    for (const auto& [label, value] :
         {std::pair<const char*, double>{"p50", quantile(mc_sorted, 0.50)},
          {"p99", quantile(mc_sorted, 0.99)},
          {"mean", mc_latency_sum / mc_count}}) {
      mc_timing.x.push_back(label);
      round_trip.mean.push_back(value);
      round_trip.stddev.push_back(0.0);
    }
    mc_timing.columns.push_back(std::move(round_trip));
    output.series.push_back(std::move(mc_timing));

    harness::Series mc_parity{"socket_mean_objective", "stream",
                              harness::SeriesKind::kQuality, {}, {}};
    mc_parity.x.push_back("4x24-frame");
    mc_parity.columns.push_back(
        harness::SeriesColumn{"served", {mc_served_sum / mc_count}, {0.0}});
    mc_parity.columns.push_back(
        harness::SeriesColumn{"direct", {mc_direct_sum / mc_count}, {0.0}});
    output.series.push_back(std::move(mc_parity));

    // The gate: served equals direct exactly (bit-identity through the
    // JSON round-trip) and the duplicate third never reaches the solver.
    output.add_claim("served mean objective equals direct solve_all",
                     served_objective_sum, "~=", direct_objective_sum, 0.0);
    output.add_claim("every duplicate request collapses (solved == distinct)",
                     static_cast<double>(stats.solved), "~=",
                     static_cast<double>(num_distinct), 0.0);
    output.add_claim("dedup hits equal the stream's duplicate count",
                     static_cast<double>(stats.dedup_shared +
                                         stats.dedup_cached),
                     "~=",
                     static_cast<double>(kNumRequests - num_distinct), 0.0);
    // Tracked, never gated (hardware-dependent): the tail should stay
    // within the stream's total runtime by construction.
    output.add_claim("p99 latency below total stream wall time",
                     quantile(sorted, 0.99), "<=", watch.elapsed_seconds(),
                     0.0, harness::SeriesKind::kTiming);
    // The socket variant's gates: the transport changes nothing about
    // the results, and 96 distinct frames mean exactly 96 solves.
    output.add_claim("socket served mean objective equals direct solve_all",
                     mc_served_sum, "~=", mc_direct_sum, 0.0);
    output.add_claim("every socket frame solves exactly once",
                     static_cast<double>(mc_server.stats().solved), "~=",
                     mc_count, 0.0);
  };
  return suite;
}

}  // namespace acolay::bench
