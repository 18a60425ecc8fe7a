// Tests for greedy-FAS cycle removal.
#include "graph/cycle_removal.hpp"

#include <gtest/gtest.h>

#include "graph/algorithms.hpp"
#include "test_util.hpp"

namespace acolay::graph {
namespace {

TEST(CycleRemoval, DagPassesThroughUnchanged) {
  const auto g = test::small_dag();
  const auto result = make_acyclic(g);
  EXPECT_TRUE(result.reversed_edges.empty());
  EXPECT_EQ(result.dag, g);
}

TEST(CycleRemoval, BreaksSimpleCycle) {
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  const auto result = make_acyclic(g);
  EXPECT_TRUE(is_dag(result.dag));
  EXPECT_EQ(result.reversed_edges.size(), 1u);
  EXPECT_EQ(result.dag.num_edges(), 3u);
}

TEST(CycleRemoval, TwoCycleFoldsToSingleEdge) {
  Digraph g(2);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  const auto result = make_acyclic(g);
  EXPECT_TRUE(is_dag(result.dag));
  EXPECT_EQ(result.dag.num_edges(), 1u);  // the reversal folds
}

TEST(CycleRemoval, GreedyFasOrderCoversAllVertices) {
  const auto g = test::small_dag();
  const auto order = greedy_fas_order(g);
  EXPECT_EQ(order.size(), g.num_vertices());
  std::vector<bool> seen(g.num_vertices(), false);
  for (const auto v : order) {
    EXPECT_FALSE(seen[static_cast<std::size_t>(v)]);
    seen[static_cast<std::size_t>(v)] = true;
  }
}

TEST(CycleRemoval, FasBoundOnRandomTournaments) {
  // Eades–Lin–Smyth guarantee: |FAS| <= |E|/2 - |V|/6.
  support::Rng rng(5150);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 8 + rng.index(10);
    Digraph g(n);
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = a + 1; b < n; ++b) {
        if (rng.bernoulli(0.5)) {
          g.add_edge(static_cast<VertexId>(a),
                     static_cast<VertexId>(b));
        } else {
          g.add_edge(static_cast<VertexId>(b),
                     static_cast<VertexId>(a));
        }
      }
    }
    const auto result = make_acyclic(g);
    EXPECT_TRUE(is_dag(result.dag));
    const double bound = static_cast<double>(g.num_edges()) / 2.0 -
                         static_cast<double>(n) / 6.0;
    EXPECT_LE(static_cast<double>(result.reversed_edges.size()), bound + 1);
  }
}

TEST(CycleRemoval, PreservesAttributes) {
  Digraph g(2);
  g.set_width(0, 3.0);
  g.set_label(1, "loop");
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  const auto result = make_acyclic(g);
  EXPECT_DOUBLE_EQ(result.dag.width(0), 3.0);
  EXPECT_EQ(result.dag.label(1), "loop");
}

}  // namespace
}  // namespace acolay::graph
