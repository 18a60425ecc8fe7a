// The serving contract (src/server/session.hpp): deadline-expired
// requests are shed before their colony runs, priorities are honored
// under a full queue, overload turns into structured backpressure, dedup
// collapses only *exactly* equal requests, and — the headline — a served
// stream is bit-identical to direct BatchSolver::solve_all over the same
// (graph, params), at any thread count.
#include "server/session.hpp"

#include <gtest/gtest.h>

#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <future>
#include <string>
#include <vector>

#include "core/batch.hpp"
#include "core/incremental.hpp"
#include "core/params.hpp"
#include "core/pheromone.hpp"
#include "core/request.hpp"
#include "graph/csr.hpp"
#include "graph/delta.hpp"
#include "graph/digraph.hpp"
#include "io/json.hpp"
#include "io/json_reader.hpp"
#include "server/protocol.hpp"
#include "support/alloc_guard.hpp"
#include "test_util.hpp"

namespace acolay::server {
namespace {

using core::AdmissionError;

ServeOptions with_threads(int threads) {
  ServeOptions options;
  options.num_threads = threads;
  return options;
}

struct FrameOpts {
  double deadline = 0.0;
  int priority = 0;
  bool warm = false;
  std::string cycle_policy = {};  // empty = omit the key (server default)
};

/// Renders a wire request frame for `g`. Edge order on the wire is
/// Digraph::edges() (source-major) order, so the graph the server
/// reconstructs has source-major adjacency — wire_normalized() below
/// builds the Digraph the direct solver must be handed for bit-identity
/// comparisons.
std::string frame(const std::string& id, const graph::Digraph& g,
                  int num_tours, std::uint64_t seed, FrameOpts opts = {}) {
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
  w.key("widths").begin_array();
  for (graph::VertexId v = 0;
       static_cast<std::size_t>(v) < g.num_vertices(); ++v) {
    w.value(g.width(v));
  }
  w.end_array();
  w.end_object();
  w.key("params").begin_object();
  w.kv("num_tours", num_tours);
  w.kv("seed", seed);
  w.end_object();
  if (opts.deadline > 0.0) w.kv("deadline_seconds", opts.deadline);
  if (opts.priority != 0) w.kv("priority", opts.priority);
  if (opts.warm) w.kv("warm", true);
  if (!opts.cycle_policy.empty()) w.kv("cycle_policy", opts.cycle_policy);
  w.end_object();
  return w.str();
}

/// The graph as the server will reconstruct it from the frame above:
/// edges re-added in source-major order (predecessor lists included).
graph::Digraph wire_normalized(const graph::Digraph& g) {
  graph::Digraph out(g.num_vertices());
  for (const auto& e : g.edges()) out.add_edge(e.source, e.target);
  for (graph::VertexId v = 0;
       static_cast<std::size_t>(v) < g.num_vertices(); ++v) {
    out.set_width(v, g.width(v));
  }
  return out;
}

io::JsonValue parse_response(const std::string& line) {
  const auto doc = io::parse_json(line);
  EXPECT_TRUE(doc.has_value()) << line;
  EXPECT_EQ(doc->find("schema")->as_string(), kServeSchema);
  return doc ? *doc : io::JsonValue{};
}

std::string status_of(const std::string& line) {
  return parse_response(line).find("status")->as_string();
}

TEST(ServerSession, AnswersAValidRequestWithItsLayering) {
  Server server(with_threads(1));
  server.push_line(frame("q1", test::small_dag(), 4, 7));
  server.drain();
  const auto responses = server.take_responses();
  ASSERT_EQ(responses.size(), 1u);
  const io::JsonValue doc = parse_response(responses[0]);
  EXPECT_EQ(doc.find("id")->as_string(), "q1");
  EXPECT_EQ(doc.find("status")->as_string(), "ok");
  EXPECT_FALSE(doc.find("deduped")->as_bool());
  EXPECT_EQ(doc.find("seconds"), nullptr);  // timing off by default
  EXPECT_EQ(doc.find("layering")->find("layers")->size(), 7u);
  EXPECT_GE(doc.find("layering")->find("height")->as_int64(), 4);
  EXPECT_NE(doc.find("metrics"), nullptr);
  EXPECT_EQ(server.outstanding(), 0u);
}

TEST(ServerSession, MalformedAndInvalidFramesGetStructuredRejections) {
  Server server(with_threads(1));
  server.push_line("this is not a frame");
  server.push_line(
      R"({"id": "loop", "graph": {"num_vertices": 2,)"
      R"( "edges": [[0, 1], [1, 0]]}})");
  server.push_line(frame("ok", test::diamond(), 2, 1));
  server.drain();
  const auto responses = server.take_responses();
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(status_of(responses[0]), "rejected");
  const io::JsonValue cycle = parse_response(responses[1]);
  EXPECT_EQ(cycle.find("id")->as_string(), "loop");  // best-effort echo
  EXPECT_EQ(cycle.find("error")->as_string(), "cycle");
  EXPECT_EQ(status_of(responses[2]), "ok");
  EXPECT_EQ(server.stats().rejected_invalid, 2u);
  EXPECT_EQ(server.stats().solved, 1u);
}

TEST(ServerSession, ExpiredDeadlineIsShedWithoutRunningAColony) {
  // A clock that advances one second per *call* makes expiry deterministic
  // with no sleeping: the deadline is stamped on one call and is already
  // in the past by the dispatch-time check.
  int ticks = 0;
  ServeOptions options = with_threads(1);
  options.clock = [&ticks] { return static_cast<double>(ticks++); };
  Server server(options);
  server.push_line(frame("late", test::diamond(), 2, 1,
                         FrameOpts{.deadline = 0.5}));
  server.drain();
  const auto responses = server.take_responses();
  ASSERT_EQ(responses.size(), 1u);
  const io::JsonValue doc = parse_response(responses[0]);
  EXPECT_EQ(doc.find("status")->as_string(), "rejected");
  EXPECT_EQ(doc.find("error")->as_string(), "deadline_expired");
  EXPECT_EQ(server.stats().rejected_deadline, 1u);
  EXPECT_EQ(server.stats().solved, 0u);  // never reached the solver
}

TEST(ServerSession, PrioritiesGovernDispatchAndOverflowIsBackpressure) {
  // One worker, one in-flight slot, a two-deep queue. A tiny gate colony
  // runs first and its completion hook holds the only worker until the
  // frames below are all pushed, so the blocker is in flight but cannot
  // run, LOW and HIGH queue behind it, and BOUNCED finds the queue full.
  // The low-priority request's deadline expires as soon as three colonies
  // have been solved (the clock reads the solved counter): the gate, the
  // blocker and whichever queued request is dispatched first. So:
  //   * correct (priority) order: blocker, then HIGH — by the time LOW is
  //     popped its deadline has passed and it is shed;
  //   * inverted order would pop LOW while its deadline still holds, solve
  //     it, and the shed assertion below fails.
  std::promise<void> gate_entered;
  std::promise<void> gate_open;
  const std::shared_future<void> opened = gate_open.get_future().share();
  std::atomic<bool> first_job{true};
  const Server* self = nullptr;
  ServeOptions options;
  options.num_threads = 1;
  options.max_inflight = 1;
  options.max_queue_depth = 2;
  options.clock = [&self] {
    return (self != nullptr && self->stats().solved >= 3) ? 1000.0 : 0.0;
  };
  Server server(options);
  self = &server;
  server.set_on_job_done([&] {
    if (first_job.exchange(false)) {
      gate_entered.set_value();
      opened.wait();
    }
  });

  server.push_line(frame("gate", test::triangle_with_long_edge(), 2, 5));
  gate_entered.get_future().wait();  // the gate is done; its worker is held
  server.push_line(frame("blocker", test::small_dag(), 2, 1));
  server.push_line(frame("low", test::diamond(), 2, 2,
                         FrameOpts{.deadline = 50.0, .priority = 0}));
  server.push_line(frame("high", test::two_chains(), 2, 3,
                         FrameOpts{.priority = 7}));
  server.push_line(frame("bounced", test::small_dag(), 2, 4));
  gate_open.set_value();
  server.drain();

  const auto responses = server.take_responses();
  ASSERT_EQ(responses.size(), 5u);  // arrival order, always
  std::vector<io::JsonValue> docs;
  for (const std::string& line : responses) {
    docs.push_back(parse_response(line));
    ASSERT_NE(docs.back().find("status"), nullptr) << line;
  }
  EXPECT_EQ(docs[0].find("status")->as_string(), "ok");  // gate
  EXPECT_EQ(docs[1].find("status")->as_string(), "ok");  // blocker
  ASSERT_NE(docs[2].find("error"), nullptr) << responses[2];
  EXPECT_EQ(docs[2].find("error")->as_string(), "deadline_expired");
  EXPECT_EQ(docs[3].find("status")->as_string(), "ok");  // high
  ASSERT_NE(docs[4].find("error"), nullptr) << responses[4];
  EXPECT_EQ(docs[4].find("error")->as_string(), "overloaded");

  EXPECT_EQ(server.stats().solved, 3u);
  EXPECT_EQ(server.stats().rejected_deadline, 1u);
  EXPECT_EQ(server.stats().rejected_overload, 1u);
}

TEST(ServerSession, DedupCollapsesOnlyExactlyEqualRequests) {
  Server server(with_threads(1));
  const auto g = test::small_dag();
  server.push_line(frame("a", g, 3, 11));
  server.push_line(frame("b", g, 3, 11));  // identical (id is not params)
  server.push_line(frame("c", g, 3, 11));
  server.push_line(frame("d", g, 3, 12));  // same graph, different seed
  server.drain();
  const auto responses = server.take_responses();
  ASSERT_EQ(responses.size(), 4u);

  const io::JsonValue a = parse_response(responses[0]);
  const io::JsonValue b = parse_response(responses[1]);
  const io::JsonValue c = parse_response(responses[2]);
  EXPECT_FALSE(a.find("deduped")->as_bool());
  EXPECT_TRUE(b.find("deduped")->as_bool());
  EXPECT_TRUE(c.find("deduped")->as_bool());
  EXPECT_FALSE(parse_response(responses[3]).find("deduped")->as_bool());

  // A shared result is the leader's result: identical layers.
  const auto& a_layers = a.find("layering")->find("layers")->elements();
  const auto& b_layers = b.find("layering")->find("layers")->elements();
  ASSERT_EQ(a_layers.size(), b_layers.size());
  for (std::size_t i = 0; i < a_layers.size(); ++i) {
    EXPECT_EQ(a_layers[i].as_int64(), b_layers[i].as_int64());
  }

  EXPECT_EQ(server.stats().solved, 2u);  // the 3 clones cost one colony
  EXPECT_EQ(server.stats().dedup_shared + server.stats().dedup_cached, 2u);
}

TEST(ServerSession, DedupRefusesSetEqualGraphsWithPermutedAdjacency) {
  // Same vertex set, same edge *set*, different adjacency order: the
  // fingerprints collide (order-invariant by design) but the solves may
  // differ, so the order-sensitive guard must keep them apart.
  graph::Digraph a(4);
  a.add_edge(3, 1);
  a.add_edge(3, 2);
  a.add_edge(1, 0);
  a.add_edge(2, 0);
  graph::Digraph b(4);
  b.add_edge(2, 0);
  b.add_edge(3, 2);
  b.add_edge(1, 0);
  b.add_edge(3, 1);

  Server server(with_threads(1));
  server.push_line(frame("a", a, 3, 5));
  server.push_line(frame("b", b, 3, 5));
  server.drain();
  const auto responses = server.take_responses();
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_FALSE(parse_response(responses[0]).find("deduped")->as_bool());
  EXPECT_FALSE(parse_response(responses[1]).find("deduped")->as_bool());
  EXPECT_EQ(server.stats().solved, 2u);
  EXPECT_EQ(server.stats().dedup_shared + server.stats().dedup_cached, 0u);
}

TEST(ServerSession, WarmRequestsReuseTheSlotAndSkipDedup) {
  Server server(with_threads(1));
  const auto g = test::small_dag();
  server.push_line(frame("w1", g, 3, 21, FrameOpts{.warm = true}));
  server.drain();
  server.push_line(frame("w2", g, 3, 21, FrameOpts{.warm = true}));
  server.drain();
  const auto responses = server.take_responses();
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(status_of(responses[0]), "ok");
  EXPECT_EQ(status_of(responses[1]), "ok");
  EXPECT_EQ(server.stats().solved, 2u);  // identical frames, NOT deduped
  EXPECT_EQ(server.stats().dedup_shared + server.stats().dedup_cached, 0u);
  EXPECT_EQ(server.stats().warm_reused, 1u);  // w2 adopted w1's matrix
}

TEST(ServerSession, ServedStreamIsBitIdenticalToDirectBatchSolve) {
  // The headline contract, at thread counts {1, 4, hardware}: every served
  // layering (and objective) equals a direct BatchSolver::solve_all over
  // the same graphs and params, and the transcript bytes are identical
  // across thread counts.
  const auto raw_battery = test::random_battery(8, 0x5e21);
  std::vector<graph::Digraph> graphs;
  std::vector<core::AcoParams> params;
  std::vector<std::string> frames;
  for (std::size_t i = 0; i < raw_battery.size(); ++i) {
    graphs.push_back(wire_normalized(raw_battery[i]));
    core::AcoParams p;
    p.num_tours = 3;
    p.seed = 100 + i;
    p.record_trace = false;  // the server forces this off
    params.push_back(p);
    std::string id = "g";  // two steps: "g" + to_string trips a GCC 12
    id += std::to_string(i);  // -Wrestrict false positive
    frames.push_back(frame(id, graphs.back(), 3, 100 + i));
  }

  core::BatchSolver direct(2);
  const auto expected = direct.solve_all(graphs, params);

  std::vector<std::vector<std::string>> transcripts;
  for (const int threads : {1, 4, 0}) {
    Server server(with_threads(threads));
    for (const std::string& f : frames) server.push_line(f);
    server.drain();
    transcripts.push_back(server.take_responses());
    ASSERT_EQ(transcripts.back().size(), frames.size());
  }
  EXPECT_EQ(transcripts[0], transcripts[1]);
  EXPECT_EQ(transcripts[0], transcripts[2]);

  for (std::size_t i = 0; i < frames.size(); ++i) {
    const io::JsonValue doc = parse_response(transcripts[0][i]);
    ASSERT_EQ(doc.find("status")->as_string(), "ok") << transcripts[0][i];
    const auto& layers = doc.find("layering")->find("layers")->elements();
    const auto& want = expected[i].layering.raw();
    ASSERT_EQ(layers.size(), want.size());
    for (std::size_t v = 0; v < want.size(); ++v) {
      EXPECT_EQ(layers[v].as_int64(), want[v]) << "graph " << i;
    }
    EXPECT_EQ(doc.find("metrics")->find("objective")->as_double(),
              expected[i].metrics.objective);
    EXPECT_EQ(doc.find("initial_objective")->as_double(),
              expected[i].initial_objective);
  }
}

TEST(ServerSession, AnsweredFramesFreeTheirRecords) {
#if defined(ACOLAY_ALLOC_GUARD_SANITIZED)
  GTEST_SKIP() << "the sanitizer runtime owns the heap; mallinfo2 is moot";
#else
  // A long-lived daemon must hold records only for unanswered frames:
  // once the warm-up has filled the result cache and grown every pool,
  // 20k more distinct frames may not grow the live heap.
  Server server(with_threads(1));
  const graph::Digraph g = test::diamond();
  std::uint64_t seed = 0;
  const auto serve = [&](std::size_t frames) {
    for (std::size_t i = 0; i < frames; ++i, ++seed) {
      std::string id = "f";
      id += std::to_string(seed);
      server.push_line(frame(id, g, 1, seed));
      if (i % 32 == 31) server.drain();  // stay under the queue depth
      server.take_responses();
    }
    server.drain();
    server.take_responses();
  };
  serve(2000);
  const std::size_t before = mallinfo2().uordblks;
  serve(20000);
  const std::size_t after = mallinfo2().uordblks;
  EXPECT_EQ(server.stats().solved, 22000u);
  EXPECT_LT(after, before + (std::size_t{64} << 10))
      << "live heap grew " << (after - before) << " B over 20k frames";
#endif
}

/// Renders a wire delta frame (exactly "id" and "delta", per the
/// protocol's exclusivity rule).
std::string delta_frame(const std::string& id, const std::string& base_hex,
                        const graph::GraphDelta& d) {
  io::JsonWriter w;
  w.begin_object();
  w.kv("id", id);
  w.key("delta").begin_object();
  w.kv("base", base_hex);
  if (!d.remove_edges.empty()) {
    w.key("remove_edges").begin_array();
    for (const auto& e : d.remove_edges) {
      w.begin_array().value(e.source).value(e.target).end_array();
    }
    w.end_array();
  }
  if (!d.remove_vertices.empty()) {
    w.key("remove_vertices").begin_array();
    for (const auto v : d.remove_vertices) w.value(v);
    w.end_array();
  }
  if (!d.add_vertex_widths.empty()) {
    w.key("add_vertices").begin_array();
    for (const double width : d.add_vertex_widths) w.value(width);
    w.end_array();
  }
  if (!d.add_edges.empty()) {
    w.key("add_edges").begin_array();
    for (const auto& e : d.add_edges) {
      w.begin_array().value(e.source).value(e.target).end_array();
    }
    w.end_array();
  }
  if (!d.set_widths.empty()) {
    w.key("set_widths").begin_array();
    for (const auto& change : d.set_widths) {
      w.begin_array().value(change.vertex).value(change.width).end_array();
    }
    w.end_array();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

TEST(ServerSession, DeltaFrameContinuesAWarmSolveBitExactly) {
  const graph::Digraph g = wire_normalized(test::small_dag());
  Server server(with_threads(1));
  server.push_line(frame("w1", g, 3, 21, FrameOpts{.warm = true}));
  server.drain();

  auto responses = server.take_responses();
  ASSERT_EQ(responses.size(), 1u);
  const io::JsonValue warm_doc = parse_response(responses[0]);
  ASSERT_EQ(warm_doc.find("status")->as_string(), "ok");
  // Warm solves report the graph fingerprint delta sessions key on.
  ASSERT_NE(warm_doc.find("fingerprint"), nullptr);
  const std::string fp0 = warm_doc.find("fingerprint")->as_string();
  EXPECT_EQ(fp0, fingerprint_hex(graph::CsrView(g).fingerprint()));

  graph::GraphDelta delta;
  delta.add_edges.push_back(graph::Edge{5, 2});
  delta.set_widths.push_back(graph::WidthChange{0, 2.5});
  server.push_line(delta_frame("d1", fp0, delta));
  server.drain();

  responses = server.take_responses();
  ASSERT_EQ(responses.size(), 1u);
  const io::JsonValue doc = parse_response(responses[0]);
  ASSERT_EQ(doc.find("status")->as_string(), "ok") << responses[0];
  EXPECT_EQ(doc.find("id")->as_string(), "d1");
  EXPECT_EQ(server.stats().incremental_sessions, 1u);
  EXPECT_EQ(server.stats().delta_updates, 1u);

  // The served update is bit-identical to driving an IncrementalSolver by
  // hand from the same warm state the server harvested: the warm solve's
  // written-back tau and best layering.
  core::AcoParams params;
  params.num_tours = 3;
  params.seed = 21;
  params.record_trace = false;  // server-forced off the wire
  core::PheromoneMatrix tau;
  core::SolveRequest request;
  request.graph = &g;
  request.params = params;
  request.warm_tau = &tau;
  const core::SolveOutcome warm = core::solve(request);
  ASSERT_TRUE(warm.ok());

  core::IncrementalSolver reference(g, params);
  reference.adopt(tau, warm.result.layering);
  const core::SolveOutcome& updated = reference.update(delta);
  ASSERT_TRUE(updated.ok());

  EXPECT_EQ(doc.find("fingerprint")->as_string(),
            fingerprint_hex(reference.fingerprint()));
  const io::JsonValue* layers = doc.find("layering")->find("layers");
  ASSERT_EQ(layers->size(), updated.result.layering.num_vertices());
  for (std::size_t v = 0; v < layers->size(); ++v) {
    EXPECT_EQ((*layers)[v].as_int64(),
              updated.result.layering.layer(static_cast<graph::VertexId>(v)))
        << "vertex " << v;
  }
  EXPECT_EQ(doc.find("metrics")->find("objective")->as_double(),
            updated.result.metrics.objective);
}

TEST(ServerSession, DeltaChainsRekeyAndBranchesSeedFreshSessions) {
  const graph::Digraph g = wire_normalized(test::small_dag());
  Server server(with_threads(1));
  server.push_line(frame("w1", g, 3, 5, FrameOpts{.warm = true}));
  server.drain();
  auto responses = server.take_responses();
  ASSERT_EQ(responses.size(), 1u);
  const std::string fp0 =
      parse_response(responses[0]).find("fingerprint")->as_string();

  graph::GraphDelta first;
  first.add_edges.push_back(graph::Edge{5, 2});
  server.push_line(delta_frame("d1", fp0, first));
  server.drain();
  responses = server.take_responses();
  ASSERT_EQ(responses.size(), 1u);
  const std::string fp1 =
      parse_response(responses[0]).find("fingerprint")->as_string();
  EXPECT_NE(fp1, fp0);

  // The chain re-keyed: fp1 continues the same session.
  graph::GraphDelta second;
  second.set_widths.push_back(graph::WidthChange{1, 3.0});
  server.push_line(delta_frame("d2", fp1, second));
  server.drain();
  responses = server.take_responses();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(status_of(responses[0]), "ok");
  EXPECT_EQ(server.stats().incremental_sessions, 1u);
  EXPECT_EQ(server.stats().delta_updates, 2u);

  // After re-keying, fp0 no longer names the session — but it still names
  // the warm slot, so referencing it branches a fresh session.
  server.push_line(delta_frame("d3", fp0, first));
  server.drain();
  responses = server.take_responses();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(status_of(responses[0]), "ok");
  EXPECT_EQ(server.stats().incremental_sessions, 2u);
  EXPECT_EQ(server.stats().delta_updates, 3u);
}

TEST(ServerSession, DeltaWithoutWarmStateIsUnknownFingerprint) {
  Server server(with_threads(1));
  // A solve *without* warm: true leaves no addressable state behind.
  server.push_line(frame("cold", wire_normalized(test::small_dag()), 2, 1));
  server.drain();
  (void)server.take_responses();

  graph::GraphDelta delta;
  delta.set_widths.push_back(graph::WidthChange{0, 2.0});
  server.push_line(delta_frame("d1", "0123456789abcdef", delta));
  server.drain();
  const auto responses = server.take_responses();
  ASSERT_EQ(responses.size(), 1u);
  const io::JsonValue doc = parse_response(responses[0]);
  EXPECT_EQ(doc.find("status")->as_string(), "rejected");
  EXPECT_EQ(doc.find("error")->as_string(), "unknown_fingerprint");
  EXPECT_NE(doc.find("message")->as_string().find("warm"),
            std::string::npos);
  EXPECT_EQ(server.stats().rejected_invalid, 1u);
  EXPECT_EQ(server.stats().incremental_sessions, 0u);
}

TEST(ServerSession, RejectedDeltaLeavesTheSessionUsable) {
  const graph::Digraph g = wire_normalized(test::small_dag());
  Server server(with_threads(1));
  server.push_line(frame("w1", g, 3, 9, FrameOpts{.warm = true}));
  server.drain();
  auto responses = server.take_responses();
  ASSERT_EQ(responses.size(), 1u);
  const std::string fp0 =
      parse_response(responses[0]).find("fingerprint")->as_string();

  graph::GraphDelta missing;  // structurally invalid against the graph
  missing.remove_edges.push_back(graph::Edge{0, 6});
  server.push_line(delta_frame("bad", fp0, missing));
  graph::GraphDelta cycle;  // 0 -> 2 closes 2 -> 0
  cycle.add_edges.push_back(graph::Edge{0, 2});
  server.push_line(delta_frame("loop", fp0, cycle));
  graph::GraphDelta valid;
  valid.set_widths.push_back(graph::WidthChange{2, 4.0});
  server.push_line(delta_frame("good", fp0, valid));
  server.drain();

  responses = server.take_responses();
  ASSERT_EQ(responses.size(), 3u);
  const io::JsonValue bad = parse_response(responses[0]);
  EXPECT_EQ(bad.find("status")->as_string(), "rejected");
  EXPECT_EQ(bad.find("error")->as_string(), "bad_request");
  const io::JsonValue loop = parse_response(responses[1]);
  EXPECT_EQ(loop.find("status")->as_string(), "rejected");
  EXPECT_EQ(loop.find("error")->as_string(), "cycle");
  EXPECT_EQ(status_of(responses[2]), "ok");
  EXPECT_EQ(server.stats().delta_updates, 1u);
}

TEST(ServerSession, StatsFrameReportsTheSchemaTaggedCounters) {
  const graph::Digraph g = wire_normalized(test::diamond());
  Server server(with_threads(1));
  server.push_line(frame("a", g, 2, 1));
  server.push_line(frame("b", g, 2, 1));  // exact duplicate: dedups
  server.push_line(R"({"id": "s1", "stats": true})");
  server.drain();

  const auto responses = server.take_responses();
  ASSERT_EQ(responses.size(), 3u);
  // The stats frame is a sequencing point: it answers after the earlier
  // frames, in arrival order.
  EXPECT_EQ(status_of(responses[0]), "ok");
  EXPECT_EQ(status_of(responses[1]), "ok");
  const io::JsonValue doc = parse_response(responses[2]);
  EXPECT_EQ(doc.find("id")->as_string(), "s1");
  EXPECT_EQ(doc.find("status")->as_string(), "ok");
  const io::JsonValue* stats = doc.find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->find("schema")->as_string(), kServeStatsSchema);
  EXPECT_EQ(stats->find("received")->as_int64(), 3);
  EXPECT_EQ(stats->find("solved")->as_int64(), 1);
  EXPECT_EQ(stats->find("dedup_hits")->as_int64(), 1);
  EXPECT_EQ(stats->find("delta_updates")->as_int64(), 0);
  EXPECT_EQ(stats->find("incremental_sessions")->as_int64(), 0);

  // The shutdown --stats line renders the identical schema-tagged object.
  const std::string line = render_stats_line(server.stats());
  const auto line_doc = io::parse_json(line);
  ASSERT_TRUE(line_doc.has_value());
  EXPECT_EQ(line_doc->find("schema")->as_string(), kServeStatsSchema);
  EXPECT_EQ(line_doc->find("received")->as_int64(), 3);
}

TEST(ServerSession, TimingOptInAddsSecondsWithoutChangingTheRest) {
  ServeOptions options = with_threads(1);
  options.include_timing = true;
  Server server(options);
  server.push_line(frame("t1", test::diamond(), 2, 1));
  server.drain();
  const auto responses = server.take_responses();
  ASSERT_EQ(responses.size(), 1u);
  const io::JsonValue doc = parse_response(responses[0]);
  ASSERT_NE(doc.find("seconds"), nullptr);
  EXPECT_GE(doc.find("seconds")->as_double(), 0.0);
}

/// A cyclic wire graph: the 3-cycle 0 -> 1 -> 2 -> 0 under a small DAG
/// tail, edges already in source-major (wire-normalized) order.
graph::Digraph wire_cyclic_graph() {
  graph::Digraph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  g.add_edge(3, 0);
  g.add_edge(3, 4);
  g.add_edge(4, 5);
  return g;
}

TEST(ServerSessionCycles, CyclicFrameRejectedByDefaultAdmittedPerPolicy) {
  const auto g = wire_cyclic_graph();
  Server server(with_threads(1));
  server.push_line(frame("bare", g, 3, 9));
  server.push_line(frame("explicit-reject", g, 3, 9,
                         FrameOpts{.cycle_policy = "reject"}));
  server.push_line(frame("greedy", g, 3, 9,
                         FrameOpts{.cycle_policy = "greedy_reverse"}));
  server.push_line(frame("aco", g, 3, 9,
                         FrameOpts{.cycle_policy = "aco_fas"}));
  server.drain();
  const auto responses = server.take_responses();
  ASSERT_EQ(responses.size(), 4u);

  for (std::size_t i = 0; i < 2; ++i) {
    const io::JsonValue doc = parse_response(responses[i]);
    EXPECT_EQ(doc.find("status")->as_string(), "rejected") << responses[i];
    EXPECT_EQ(doc.find("error")->as_string(), "cycle");
  }
  for (std::size_t i = 2; i < 4; ++i) {
    const io::JsonValue doc = parse_response(responses[i]);
    ASSERT_EQ(doc.find("status")->as_string(), "ok") << responses[i];
    const io::JsonValue* reversed = doc.find("reversed_edges");
    ASSERT_NE(reversed, nullptr) << responses[i];
    EXPECT_GE(reversed->size(), 1u);
  }

  // The served greedy response is bit-identical to the direct solve.
  core::AcoParams params;
  params.num_tours = 3;
  params.seed = 9;
  core::SolveRequest request;
  request.graph = &g;
  request.params = params;
  request.cycle_policy = core::CyclePolicy::kGreedyReverse;
  const auto direct = core::solve(request);
  ASSERT_TRUE(direct.ok());
  const io::JsonValue greedy = parse_response(responses[2]);
  const io::JsonValue* layers = greedy.find("layering")->find("layers");
  ASSERT_EQ(layers->size(), direct.result.layering.num_vertices());
  for (std::size_t v = 0; v < layers->size(); ++v) {
    EXPECT_EQ((*layers)[v].as_int64(),
              direct.result.layering.layer(static_cast<graph::VertexId>(v)));
  }
  const io::JsonValue* reversed = greedy.find("reversed_edges");
  ASSERT_EQ(reversed->size(), direct.reversed_edges.size());
  for (std::size_t i = 0; i < reversed->size(); ++i) {
    EXPECT_EQ((*reversed)[i][0].as_int64(), direct.reversed_edges[i].source);
    EXPECT_EQ((*reversed)[i][1].as_int64(), direct.reversed_edges[i].target);
  }
}

TEST(ServerSessionCycles, AcyclicResponsesNeverCarryReversedEdges) {
  // Byte-stability of the pre-cycle-policy wire format: a DAG solve emits
  // no "reversed_edges" key even under an admitting policy.
  Server server(with_threads(1));
  server.push_line(frame("dag", test::small_dag(), 3, 7,
                         FrameOpts{.cycle_policy = "greedy_reverse"}));
  server.drain();
  const auto responses = server.take_responses();
  ASSERT_EQ(responses.size(), 1u);
  const io::JsonValue doc = parse_response(responses[0]);
  ASSERT_EQ(doc.find("status")->as_string(), "ok");
  EXPECT_EQ(doc.find("reversed_edges"), nullptr);
}

TEST(ServerSessionCycles, ServerDefaultPolicyAppliesToBareFrames) {
  ServeOptions options = with_threads(1);
  options.default_cycle_policy = core::CyclePolicy::kGreedyReverse;
  Server server(options);
  const auto g = wire_cyclic_graph();
  server.push_line(frame("bare", g, 3, 9));
  // The frame's own key always wins over the server default.
  server.push_line(frame("explicit-reject", g, 3, 9,
                         FrameOpts{.cycle_policy = "reject"}));
  server.drain();
  const auto responses = server.take_responses();
  ASSERT_EQ(responses.size(), 2u);
  const io::JsonValue bare = parse_response(responses[0]);
  ASSERT_EQ(bare.find("status")->as_string(), "ok") << responses[0];
  EXPECT_NE(bare.find("reversed_edges"), nullptr);
  const io::JsonValue explicit_reject = parse_response(responses[1]);
  EXPECT_EQ(explicit_reject.find("status")->as_string(), "rejected");
  EXPECT_EQ(explicit_reject.find("error")->as_string(), "cycle");
}

TEST(ServerSessionCycles, DedupKeepsPoliciesApart) {
  // Same graph, same params, different cycle policy: the reversal pass
  // differs, so these are distinct requests and must not share a result.
  const auto g = wire_cyclic_graph();
  Server server(with_threads(1));
  server.push_line(frame("g1", g, 3, 9,
                         FrameOpts{.cycle_policy = "greedy_reverse"}));
  server.push_line(frame("g2", g, 3, 9,
                         FrameOpts{.cycle_policy = "greedy_reverse"}));
  server.push_line(frame("a1", g, 3, 9,
                         FrameOpts{.cycle_policy = "aco_fas"}));
  server.drain();
  const auto responses = server.take_responses();
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_FALSE(parse_response(responses[0]).find("deduped")->as_bool());
  EXPECT_TRUE(parse_response(responses[1]).find("deduped")->as_bool());
  EXPECT_FALSE(parse_response(responses[2]).find("deduped")->as_bool());
  // The deduped clone carries the leader's reversal report.
  EXPECT_NE(parse_response(responses[1]).find("reversed_edges"), nullptr);
}

TEST(ServerSessionCycles, CycleIntroducingDeltaFollowsTheSessionPolicy) {
  // A warm solve under an admitting policy seeds a delta session that
  // inherits the policy: an edge closing a cycle is re-broken, reported,
  // and the chain continues. Under the default policy the same delta is
  // a structured "cycle" rejection (pinned by RejectedDeltaLeavesTheSessionUsable).
  const graph::Digraph g = wire_normalized(test::small_dag());
  Server server(with_threads(1));
  server.push_line(frame("w1", g, 3, 21,
                         FrameOpts{.warm = true,
                                   .cycle_policy = "greedy_reverse"}));
  server.drain();
  auto responses = server.take_responses();
  ASSERT_EQ(responses.size(), 1u);
  const io::JsonValue warm_doc = parse_response(responses[0]);
  ASSERT_EQ(warm_doc.find("status")->as_string(), "ok");
  const std::string fp0 = warm_doc.find("fingerprint")->as_string();

  // small_dag has 2 -> 0; adding 0 -> 5 -> ... no: close a cycle with the
  // existing path 5 -> 3 -> 2 by adding 2 -> 5.
  graph::GraphDelta delta;
  delta.add_edges.push_back(graph::Edge{2, 5});
  server.push_line(delta_frame("d1", fp0, delta));
  server.drain();
  responses = server.take_responses();
  ASSERT_EQ(responses.size(), 1u);
  const io::JsonValue doc = parse_response(responses[0]);
  ASSERT_EQ(doc.find("status")->as_string(), "ok") << responses[0];
  const io::JsonValue* reversed = doc.find("reversed_edges");
  ASSERT_NE(reversed, nullptr);
  EXPECT_GE(reversed->size(), 1u);
  EXPECT_EQ(server.stats().delta_updates, 1u);

  // The re-keyed chain keeps working on the reoriented graph.
  const std::string fp1 = doc.find("fingerprint")->as_string();
  EXPECT_NE(fp1, fp0);
  graph::GraphDelta second;
  second.set_widths.push_back(graph::WidthChange{0, 2.0});
  server.push_line(delta_frame("d2", fp1, second));
  server.drain();
  responses = server.take_responses();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(status_of(responses[0]), "ok");
}

TEST(ServerSessionCycles, CycleIntroducingDeltaRejectedUnderDefaultPolicy) {
  const graph::Digraph g = wire_normalized(test::small_dag());
  Server server(with_threads(1));
  server.push_line(frame("w1", g, 3, 21, FrameOpts{.warm = true}));
  server.drain();
  auto responses = server.take_responses();
  ASSERT_EQ(responses.size(), 1u);
  const std::string fp0 =
      parse_response(responses[0]).find("fingerprint")->as_string();

  graph::GraphDelta delta;
  delta.add_edges.push_back(graph::Edge{2, 5});
  server.push_line(delta_frame("d1", fp0, delta));
  server.drain();
  responses = server.take_responses();
  ASSERT_EQ(responses.size(), 1u);
  const io::JsonValue doc = parse_response(responses[0]);
  EXPECT_EQ(doc.find("status")->as_string(), "rejected");
  EXPECT_EQ(doc.find("error")->as_string(), "cycle");
}

}  // namespace
}  // namespace acolay::server
