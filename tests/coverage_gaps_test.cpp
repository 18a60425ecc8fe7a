// Focused tests for corners not covered by the per-module suites:
// graph/properties extras, generator parameter effects, the BFS vertex
// order, and ACO parameter validation boundaries.
//
// Every test declares the symbol(s) it covers via COVERS(...): the scoped
// trace puts the fully qualified symbol name into any assertion failure,
// so a red run reads as a list of the uncovered (regressed) symbols
// instead of bare file:line pairs.
#include <gtest/gtest.h>

#include "core/colony.hpp"
#include "gen/random_dag.hpp"
#include "graph/algorithms.hpp"
#include "graph/properties.hpp"
#include "layering/metrics.hpp"
#include "test_util.hpp"

/// Names the symbol a test covers; on failure the assertion message lists
/// it as "uncovered symbol: <name>".
#define COVERS(symbol) SCOPED_TRACE("uncovered symbol: " symbol)

namespace acolay {
namespace {

TEST(GraphProperties, SourceSinkPairsOnDiamond) {
  COVERS("acolay::graph::source_sink_pairs");
  // One source (3), one sink (0), connected: exactly one pair.
  EXPECT_EQ(graph::source_sink_pairs(test::diamond()), 1u);
}

TEST(GraphProperties, SourceSinkPairsOnTwoChains) {
  COVERS("acolay::graph::source_sink_pairs");
  // Chains {4->2->0} and {3->1}: sources {4,3}, sinks {0,1}; only
  // same-chain pairs are reachable.
  EXPECT_EQ(graph::source_sink_pairs(test::two_chains()), 2u);
}

TEST(GraphProperties, DagDepthMatchesLongestPath) {
  COVERS("acolay::graph::dag_depth");
  EXPECT_EQ(graph::dag_depth(test::small_dag()), 3);
  EXPECT_EQ(graph::dag_depth(gen::path_dag(7)), 6);
  graph::Digraph flat(4);
  EXPECT_EQ(graph::dag_depth(flat), 0);
}

TEST(Generators, RecencySkewDeepensTrees) {
  COVERS("acolay::gen::random_north_dag (recency_skew)");
  // Skewed parent choice produces deeper growth DAGs on average.
  double uniform_depth = 0.0, skewed_depth = 0.0;
  for (int trial = 0; trial < 10; ++trial) {
    support::Rng a(100 + trial), b(100 + trial);
    gen::NorthParams uniform;
    uniform.num_vertices = 60;
    uniform.num_edges = 59;
    gen::NorthParams skewed = uniform;
    skewed.recency_skew = 4.0;
    uniform_depth += graph::dag_depth(gen::random_north_dag(uniform, a));
    skewed_depth += graph::dag_depth(gen::random_north_dag(skewed, b));
  }
  EXPECT_GT(skewed_depth, uniform_depth);
}

TEST(Generators, NorthDagIsConnectedAcrossSizes) {
  COVERS("acolay::gen::random_north_dag");
  support::Rng rng(4321);
  for (const std::size_t n : {2u, 3u, 5u, 10u, 50u, 150u}) {
    gen::NorthParams params;
    params.num_vertices = n;
    params.num_edges = n + n / 3;
    const auto g = gen::random_north_dag(params, rng);
    EXPECT_TRUE(graph::is_dag(g)) << n;
    EXPECT_TRUE(graph::is_weakly_connected(g)) << n;
    EXPECT_GE(g.num_edges(), n - 1) << n;
  }
}

TEST(Generators, NorthDagDenseCornerClamps) {
  COVERS("acolay::gen::random_north_dag (edge clamp)");
  support::Rng rng(1);
  gen::NorthParams params;
  params.num_vertices = 6;
  params.num_edges = 1000;  // far beyond the simple-DAG max of 15
  const auto g = gen::random_north_dag(params, rng);
  EXPECT_EQ(g.num_edges(), 15u);
  EXPECT_TRUE(graph::is_dag(g));
}

TEST(BfsOrderWalk, ValidAndDeterministic) {
  COVERS("acolay::core::VertexOrder::kBfs");
  core::AcoParams params;
  params.order = core::VertexOrder::kBfs;
  params.num_ants = 5;
  params.num_tours = 4;
  params.seed = 77;
  for (const auto& g : test::random_battery(6)) {
    const auto a = core::AntColony(g, params).run();
    const auto b = core::AntColony(g, params).run();
    EXPECT_TRUE(layering::is_valid_layering(g, a.layering));
    EXPECT_EQ(a.layering, b.layering);
  }
}

TEST(BfsOrderWalk, DiffersFromRandomOrderSearch) {
  COVERS("acolay::core::VertexOrder::kBfs vs kRandom");
  const auto g = test::random_battery(1, 3141).front();
  core::AcoParams bfs;
  bfs.order = core::VertexOrder::kBfs;
  bfs.seed = 9;
  core::AcoParams random = bfs;
  random.order = core::VertexOrder::kRandom;
  const auto a = core::AntColony(g, bfs).run();
  const auto b = core::AntColony(g, random).run();
  // Traces must differ somewhere (same seed, different exploration).
  ASSERT_EQ(a.trace.size(), b.trace.size());
  bool differs = false;
  for (std::size_t t = 0; t < a.trace.size(); ++t) {
    differs = differs ||
              a.trace[t].total_moves != b.trace[t].total_moves ||
              a.trace[t].best_objective != b.trace[t].best_objective;
  }
  EXPECT_TRUE(differs);
}

TEST(AcoParams, BoundaryValuesAccepted) {
  COVERS("acolay::core::validate_request (params boundary values)");
  const auto g = test::diamond();
  core::AcoParams params;
  params.num_ants = 1;
  params.num_tours = 1;
  params.alpha = 0.0;
  params.beta = 0.0;  // both off: uniform choice, still valid
  params.rho = 1.0;   // full evaporation
  const auto result = core::AntColony(g, params).run();
  EXPECT_TRUE(layering::is_valid_layering(g, result.layering));
}

TEST(AcoParams, MaxWidthNeverWedgesTheWalk) {
  COVERS("acolay::core::AcoParams::max_width");
  // An absurdly small capacity leaves only the current layer admissible;
  // the walk must still terminate with a valid result.
  core::AcoParams params;
  params.max_width = 0.5;
  params.num_ants = 3;
  params.num_tours = 3;
  for (const auto& g : test::random_battery(5)) {
    const auto result = core::AntColony(g, params).run();
    EXPECT_TRUE(layering::is_valid_layering(g, result.layering));
  }
}

TEST(Metrics, EdgeDensityNormalisedBounds) {
  COVERS("acolay::layering::edge_density_normalized");
  core::AcoParams params;
  params.num_ants = 3;
  params.num_tours = 2;
  for (const auto& g : test::random_battery(6)) {
    const auto l = core::AntColony(g, params).run().layering;
    const double norm = layering::edge_density_normalized(g, l);
    EXPECT_GE(norm, 0.0);
    EXPECT_LE(norm, 1.0);
  }
}

}  // namespace
}  // namespace acolay
