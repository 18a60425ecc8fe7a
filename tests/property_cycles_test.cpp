// Property/fuzz tier for cyclic-digraph admission (ISSUE: cycles as
// first-class input). 200 random digraphs — cyclic and acyclic, sparse
// and dense — pin the Phase 0 contract:
//
//  * make_acyclic / make_acyclic_aco output always passes is_dag,
//  * re-reversing `reversed_edges` in the output reconstructs the input
//    edge set with vertex attributes intact (on antiparallel-free inputs;
//    a two-cycle folds on reversal, pinned separately by
//    CycleRemoval.TwoCycleFoldsToSingleEdge),
//  * already-acyclic inputs round-trip bit-identically with an empty
//    reversal set,
//  * end-to-end solves under both admitting policies are bit-identical
//    across thread counts, reruns, and entry points (core::solve,
//    BatchSolver, AntColony, IncrementalSolver), and the default policy
//    still rejects.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/batch.hpp"
#include "core/colony.hpp"
#include "core/incremental.hpp"
#include "core/request.hpp"
#include "graph/algorithms.hpp"
#include "graph/cycle_removal.hpp"
#include "graph/digraph.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace acolay {
namespace {

/// Random digraph with no antiparallel pairs: each unordered vertex pair
/// carries at most one edge, in a random direction. Cycles of length >= 3
/// appear freely; 2-cycles (which fold on reversal) cannot.
graph::Digraph random_digraph_no_antiparallel(std::size_t n, double p,
                                              support::Rng& rng) {
  graph::Digraph g;
  for (std::size_t v = 0; v < n; ++v) {
    // Distinct widths/labels so attribute preservation is observable.
    std::string label = "v";
    label += std::to_string(v);
    g.add_vertex(1.0 + 0.25 * static_cast<double>(v), std::move(label));
  }
  for (graph::VertexId u = 0; static_cast<std::size_t>(u) < n; ++u) {
    for (graph::VertexId v = u + 1; static_cast<std::size_t>(v) < n; ++v) {
      if (!rng.bernoulli(p)) continue;
      if (rng.bernoulli(0.5)) {
        g.add_edge(u, v);
      } else {
        g.add_edge(v, u);
      }
    }
  }
  return g;
}

std::vector<std::pair<int, int>> sorted_edge_pairs(
    const std::vector<graph::Edge>& edges) {
  std::vector<std::pair<int, int>> pairs;
  pairs.reserve(edges.size());
  for (const auto& [u, v] : edges) pairs.emplace_back(u, v);
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

/// Undoes Phase 0: flips every reported reversed edge in the output DAG
/// back to its original orientation and returns the edge set.
std::vector<std::pair<int, int>> reconstruct_input_edges(
    const graph::AcyclicResult& result) {
  auto pairs = sorted_edge_pairs(result.dag.edges());
  for (const auto& [u, v] : result.reversed_edges) {
    // The DAG carries the reversed orientation v -> u; restore u -> v.
    const auto it = std::find(pairs.begin(), pairs.end(),
                              std::make_pair(static_cast<int>(v),
                                             static_cast<int>(u)));
    if (it == pairs.end()) {
      ADD_FAILURE() << "reversed edge " << u << "->" << v
                    << " has no counterpart in the output DAG";
      continue;
    }
    pairs.erase(it);
    pairs.emplace_back(u, v);
  }
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

void check_round_trip(const graph::Digraph& g,
                      const graph::AcyclicResult& result) {
  EXPECT_TRUE(graph::is_dag(result.dag));
  // Antiparallel-free input: nothing folds, so the edge count survives.
  ASSERT_EQ(result.dag.num_edges(), g.num_edges());
  EXPECT_EQ(reconstruct_input_edges(result), sorted_edge_pairs(g.edges()));
  ASSERT_EQ(result.dag.num_vertices(), g.num_vertices());
  for (graph::VertexId v = 0;
       static_cast<std::size_t>(v) < g.num_vertices(); ++v) {
    EXPECT_EQ(result.dag.width(v), g.width(v));
    EXPECT_EQ(result.dag.label(v), g.label(v));
  }
  if (graph::is_dag(g)) {
    // Already-acyclic inputs pass through untouched: same graph, no
    // reversals (greedy peels a DAG into a topological order, and the
    // ACO pass keeps a zero-cost elite).
    EXPECT_TRUE(result.reversed_edges.empty());
    EXPECT_EQ(result.dag, g);
  } else {
    EXPECT_FALSE(result.reversed_edges.empty());
  }
}

TEST(PropertyCycles, TwoHundredRandomDigraphsRoundTrip) {
  support::Rng root(20260808);
  std::size_t cyclic_cases = 0;
  for (int rep = 0; rep < 200; ++rep) {
    support::Rng rng = root.fork(static_cast<std::uint64_t>(rep));
    const std::size_t n = 2 + rng.index(39);  // 2..40 vertices
    const double p = rng.uniform(0.05, 0.5);
    const auto g = random_digraph_no_antiparallel(n, p, rng);
    if (!graph::is_dag(g)) ++cyclic_cases;

    check_round_trip(g, graph::make_acyclic(g));

    graph::FasOptions options;
    options.seed = 1000 + static_cast<std::uint64_t>(rep);
    const auto aco = graph::make_acyclic_aco(g, options);
    check_round_trip(g, aco);
    EXPECT_LE(aco.reversed_edges.size(),
              graph::make_acyclic(g).reversed_edges.size());
  }
  // The sweep must actually exercise the cyclic path, not just DAGs.
  EXPECT_GT(cyclic_cases, 50u);
}

/// One cyclic end-to-end solve; returns (layering, reversed_edges) for
/// bit-identity comparisons.
core::SolveOutcome solve_via_batch(const graph::Digraph& g,
                                   const core::AcoParams& params,
                                   core::CyclePolicy policy,
                                   int num_threads) {
  core::BatchSolver solver(num_threads);
  core::SolveRequest request;
  request.graph = &g;
  request.params = params;
  request.cycle_policy = policy;
  const auto id = solver.submit(request);
  return solver.collect_outcome(id);
}

TEST(PropertyCycles, SolvesBitIdenticalAcrossThreadCountsAndEntryPoints) {
  support::Rng root(555);
  core::AcoParams params;
  params.num_ants = 4;
  params.num_tours = 6;
  params.seed = 31;
  const core::CyclePolicy policies[] = {core::CyclePolicy::kGreedyReverse,
                                        core::CyclePolicy::kAcoFas};
  for (int rep = 0; rep < 4; ++rep) {
    support::Rng rng = root.fork(static_cast<std::uint64_t>(rep));
    const auto g = random_digraph_no_antiparallel(18, 0.25, rng);
    if (graph::is_dag(g)) continue;  // the cyclic path is the subject here
    for (const auto policy : policies) {
      core::SolveRequest request;
      request.graph = &g;
      request.params = params;
      request.cycle_policy = policy;
      const auto direct = core::solve(request);
      ASSERT_TRUE(direct.ok()) << direct.message;
      EXPECT_FALSE(direct.reversed_edges.empty());
      // The solved layering is over the reoriented DAG, which must admit
      // it as a valid layering (every edge spans downward).
      const auto batch1 = solve_via_batch(g, params, policy, 1);
      const auto batch4 = solve_via_batch(g, params, policy, 4);
      const auto rerun = core::solve(request);
      for (const auto* other : {&batch1, &batch4, &rerun}) {
        ASSERT_TRUE(other->ok()) << other->message;
        EXPECT_EQ(other->result.layering, direct.result.layering);
        EXPECT_EQ(other->reversed_edges, direct.reversed_edges);
      }
      // AntColony is the third entry point sharing Phase 0.
      core::AntColony colony(g, params, policy);
      const auto colony_result = colony.run();
      EXPECT_EQ(colony_result.layering, direct.result.layering);
      EXPECT_EQ(colony.reversed_edges(), direct.reversed_edges);
      // IncrementalSolver is the fourth: its constructor admits, and its
      // cold solve() reports the constructor's reversal.
      core::IncrementalSolver session(g, params, {.cycle_policy = policy});
      const auto& session_outcome = session.solve();
      ASSERT_TRUE(session_outcome.ok()) << session_outcome.message;
      EXPECT_EQ(session_outcome.result.layering, direct.result.layering);
      EXPECT_EQ(session_outcome.reversed_edges, direct.reversed_edges);
    }
  }
}

TEST(PropertyCycles, PoliciesDifferOnWhatTheyReverse) {
  // kGreedyReverse and kAcoFas are distinct requests: same graph, same
  // params, but the ACO pass may pick a smaller arc set. At minimum the
  // counts obey aco <= greedy on every instance.
  support::Rng rng(808);
  const auto g = random_digraph_no_antiparallel(24, 0.3, rng);
  ASSERT_FALSE(graph::is_dag(g));
  core::SolveRequest request;
  request.graph = &g;
  request.params.num_ants = 2;
  request.params.num_tours = 2;
  request.cycle_policy = core::CyclePolicy::kGreedyReverse;
  const auto greedy = core::solve(request);
  request.cycle_policy = core::CyclePolicy::kAcoFas;
  const auto aco = core::solve(request);
  ASSERT_TRUE(greedy.ok());
  ASSERT_TRUE(aco.ok());
  EXPECT_LE(aco.reversed_edges.size(), greedy.reversed_edges.size());
}

TEST(PropertyCycles, DefaultPolicyStillRejectsCycles) {
  support::Rng rng(909);
  const auto g = random_digraph_no_antiparallel(12, 0.4, rng);
  ASSERT_FALSE(graph::is_dag(g));
  core::SolveRequest request;
  request.graph = &g;
  const auto outcome = core::solve(request);
  EXPECT_EQ(outcome.error, core::AdmissionError::kCycle);
  EXPECT_TRUE(outcome.reversed_edges.empty());

  core::BatchSolver solver;
  const auto id = solver.submit(request);
  EXPECT_EQ(solver.collect_outcome(id).error, core::AdmissionError::kCycle);
}

TEST(PropertyCycles, AcyclicInputsSolveIdenticallyUnderEveryPolicy) {
  // On a DAG the cycle policy must be a no-op: same layering as the
  // default-reject path, empty reversal report, byte-stable serving.
  const auto g = test::small_dag();
  core::AcoParams params;
  params.num_ants = 4;
  params.num_tours = 4;
  core::SolveRequest request;
  request.graph = &g;
  request.params = params;
  const auto baseline = core::solve(request);
  ASSERT_TRUE(baseline.ok());
  for (const auto policy : {core::CyclePolicy::kGreedyReverse,
                            core::CyclePolicy::kAcoFas}) {
    request.cycle_policy = policy;
    const auto outcome = core::solve(request);
    ASSERT_TRUE(outcome.ok());
    EXPECT_TRUE(outcome.reversed_edges.empty());
    EXPECT_EQ(outcome.result.layering, baseline.result.layering);
  }
}

}  // namespace
}  // namespace acolay
