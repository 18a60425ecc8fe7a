// CsrView must be an exact snapshot of the Digraph it freezes: same
// topology, same attribute values, and — critically for bit-identical ACO
// results — the same adjacency and edge enumeration *order*. The walk's
// BFS vertex order and the metrics' floating-point accumulation both
// depend on iteration order, so these tests pin order, not just set
// equality, across a randomized battery.
#include "graph/csr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/algorithms.hpp"
#include "test_util.hpp"

namespace acolay::graph {
namespace {

void expect_matches(const Digraph& g, const CsrView& csr) {
  ASSERT_EQ(csr.num_vertices(), g.num_vertices());
  ASSERT_EQ(csr.num_edges(), g.num_edges());
  for (VertexId v = 0; static_cast<std::size_t>(v) < g.num_vertices(); ++v) {
    EXPECT_DOUBLE_EQ(csr.width(v), g.width(v));
    EXPECT_EQ(csr.out_degree(v), g.out_degree(v));
    EXPECT_EQ(csr.in_degree(v), g.in_degree(v));
    // Order-sensitive comparison on purpose (see file comment).
    const auto succ = csr.successors(v);
    const auto succ_ref = g.successors(v);
    ASSERT_EQ(succ.size(), succ_ref.size());
    for (std::size_t i = 0; i < succ.size(); ++i) {
      EXPECT_EQ(succ[i], succ_ref[i]) << "vertex " << v << " successor " << i;
    }
    const auto pred = csr.predecessors(v);
    const auto pred_ref = g.predecessors(v);
    ASSERT_EQ(pred.size(), pred_ref.size());
    for (std::size_t i = 0; i < pred.size(); ++i) {
      EXPECT_EQ(pred[i], pred_ref[i])
          << "vertex " << v << " predecessor " << i;
    }
  }
  const auto edges = csr.edges();
  const auto edges_ref = g.edges();
  ASSERT_EQ(edges.size(), edges_ref.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    EXPECT_EQ(edges[i], edges_ref[i]) << "edge " << i;
  }
}

TEST(CsrView, EmptyGraph) {
  const CsrView csr((Digraph()));
  EXPECT_EQ(csr.num_vertices(), 0u);
  EXPECT_EQ(csr.num_edges(), 0u);
  EXPECT_TRUE(csr.edges().empty());
  EXPECT_TRUE(csr.widths().empty());
}

TEST(CsrView, DefaultConstructedIsEmpty) {
  const CsrView csr;
  EXPECT_EQ(csr.num_vertices(), 0u);
  EXPECT_EQ(csr.num_edges(), 0u);
}

TEST(CsrView, EdgelessVertices) {
  const Digraph g(5);
  const CsrView csr(g);
  expect_matches(g, csr);
}

TEST(CsrView, MatchesDigraphOnHandwrittenGraphs) {
  for (const auto& g : {test::diamond(), test::triangle_with_long_edge(),
                        test::two_chains(), test::small_dag()}) {
    expect_matches(g, CsrView(g));
  }
}

TEST(CsrView, MatchesDigraphOnRandomBattery) {
  for (const auto& g : test::random_battery()) {
    expect_matches(g, CsrView(g));
  }
}

TEST(CsrView, PreservesVertexWidths) {
  Digraph g(3);
  g.set_width(0, 2.5);
  g.set_width(2, 0.25);
  g.add_edge(2, 0);
  const CsrView csr(g);
  EXPECT_DOUBLE_EQ(csr.width(0), 2.5);
  EXPECT_DOUBLE_EQ(csr.width(1), 1.0);
  EXPECT_DOUBLE_EQ(csr.width(2), 0.25);
  ASSERT_EQ(csr.widths().size(), 3u);
  EXPECT_DOUBLE_EQ(csr.widths()[0], 2.5);
}

TEST(CsrView, RebuildReusesAcrossGraphs) {
  // A view rebuilt over a sequence of graphs must equal a fresh snapshot
  // each time (no stale carry-over from earlier, larger graphs).
  const auto battery = test::random_battery(12, 424242);
  CsrView reused;
  for (const auto& g : battery) {
    reused.rebuild(g);
    expect_matches(g, reused);
  }
  // Shrinking rebuild: big graph then tiny one.
  reused.rebuild(test::diamond());
  expect_matches(test::diamond(), reused);
}

TEST(CsrView, BfsOrderMatchesDigraphFromEveryStart) {
  // The ACO's kBfs vertex order runs over the CSR view; the visit order
  // must be exactly graph::bfs_order's over the Digraph (the walk results
  // depend on it). Pin it from several starts, with the buffers reused.
  std::vector<VertexId> order;
  std::vector<std::uint8_t> seen;
  std::vector<VertexId> queue;
  for (const auto& g : test::random_battery(12, 9090)) {
    const CsrView csr(g);
    const auto n = static_cast<VertexId>(g.num_vertices());
    for (const VertexId start : {VertexId{0}, static_cast<VertexId>(n / 2),
                                 static_cast<VertexId>(n - 1)}) {
      bfs_order_into(csr, start, order, seen, queue);
      EXPECT_EQ(order, bfs_order(g, start));
    }
  }
}

TEST(CsrView, IsASnapshotNotALiveView) {
  Digraph g(3);
  g.add_edge(2, 1);
  const CsrView csr(g);
  g.add_edge(1, 0);
  EXPECT_EQ(csr.num_edges(), 1u);
  EXPECT_EQ(g.num_edges(), 2u);
}

// ---- fingerprint() — the serving layer's dedup bucket key ---------------

TEST(CsrFingerprint, InvariantUnderAdjacencyOrderPermutation) {
  // Same vertex set, widths, and edge set — inserted in a different order,
  // so the adjacency lists (and hence solve results) may differ, but the
  // canonical fingerprint must not.
  Digraph a(4);
  a.add_edge(3, 1);
  a.add_edge(3, 2);
  a.add_edge(1, 0);
  a.add_edge(2, 0);
  Digraph b(4);
  b.add_edge(2, 0);
  b.add_edge(3, 2);
  b.add_edge(1, 0);
  b.add_edge(3, 1);
  EXPECT_EQ(CsrView(a).fingerprint(), CsrView(b).fingerprint());
}

TEST(CsrFingerprint, SensitiveToTopologySizeAndWidths) {
  const std::uint64_t base = CsrView(test::diamond()).fingerprint();

  Digraph extra_vertex = test::diamond();
  extra_vertex.add_vertex();
  EXPECT_NE(CsrView(extra_vertex).fingerprint(), base);

  Digraph extra_edge = test::diamond();
  extra_edge.add_edge(3, 0);
  EXPECT_NE(CsrView(extra_edge).fingerprint(), base);

  Digraph rewired(4);  // diamond with one edge replaced
  rewired.add_edge(3, 1);
  rewired.add_edge(3, 2);
  rewired.add_edge(1, 0);
  rewired.add_edge(2, 1);
  EXPECT_NE(CsrView(rewired).fingerprint(), base);

  Digraph widened = test::diamond();
  widened.set_width(1, 2.0);
  EXPECT_NE(CsrView(widened).fingerprint(), base);

  // NOT relabeling-invariant (documented contract): the same shape under a
  // different vertex numbering is a different fingerprint.
  Digraph relabeled(4);  // diamond with 0 <-> 3 swapped
  relabeled.add_edge(0, 1);
  relabeled.add_edge(0, 2);
  relabeled.add_edge(1, 3);
  relabeled.add_edge(2, 3);
  EXPECT_NE(CsrView(relabeled).fingerprint(), base);
}

TEST(CsrFingerprint, NoCollisionsAcrossRandomBattery) {
  std::vector<std::uint64_t> seen;
  for (const auto& g : test::random_battery(24, 0xf1f1)) {
    seen.push_back(CsrView(g).fingerprint());
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

TEST(CsrFingerprint, PinnedValues) {
  // Pinned so an accidental change to the folding scheme (or to
  // splitmix64) fails loudly: persisted dedup keys and the wire contract
  // depend on these exact values. A deliberate change must bump the
  // version tag in CsrView::fingerprint and re-pin.
  EXPECT_EQ(CsrView(Digraph(0)).fingerprint(), 0xe3485d94803ff0bcULL);
  EXPECT_EQ(CsrView(Digraph(1)).fingerprint(), 0x3cf6c77cd3a99d1dULL);
  EXPECT_EQ(CsrView(test::diamond()).fingerprint(), 0x1ac0f517b66d4430ULL);
  EXPECT_EQ(CsrView(test::triangle_with_long_edge()).fingerprint(),
            0x64585b9725e7d4c4ULL);
}

}  // namespace
}  // namespace acolay::graph
