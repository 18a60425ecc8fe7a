// Property/fuzz tests over seed-randomized DAGs: 10 buckets x 20 graphs
// per property = 200 generated instances per invariant. The invariants are
// the layering contract itself (every edge points strictly downward, a
// normalized layering has no empty layers), agreement of the fused
// single-pass CSR metrics with the individual per-metric functions they
// replaced, and lossless round trips through the DOT/GML/edge-list
// exchange formats. Also pins the test_util fixture gate: builders reject
// cyclic graphs at construction.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "baselines/longest_path.hpp"
#include "core/colony.hpp"
#include "gen/random_dag.hpp"
#include "graph/algorithms.hpp"
#include "graph/csr.hpp"
#include "io/dot.hpp"
#include "io/edge_list.hpp"
#include "io/gml.hpp"
#include "layering/layering.hpp"
#include "layering/metrics.hpp"
#include "support/check.hpp"
#include "test_util.hpp"

namespace acolay {
namespace {

constexpr int kGraphsPerBucket = 20;

/// Deterministic graph for (bucket, index): sizes 2..50, densities up to
/// ~2.4 edges/vertex, alternating span bias — a wider spread than the
/// bench corpus on purpose.
graph::Digraph property_graph(int bucket, int index) {
  support::Rng rng(support::Rng(991100 + bucket).fork(
      static_cast<std::uint64_t>(index))());
  gen::GnmParams params;
  params.num_vertices =
      2 + static_cast<std::size_t>(rng.uniform_int(0, 48));
  params.num_edges = static_cast<std::size_t>(
      rng.uniform(1.0, 2.4) * static_cast<double>(params.num_vertices));
  params.span_bias = (index % 3 == 0) ? 0.0 : rng.uniform(0.2, 0.6);
  params.connected = index % 5 != 0;  // every 5th graph may be disconnected
  support::Rng gen_rng(rng());
  return gen::random_dag(params, gen_rng);
}

/// A small, fast colony — enough tours for vertices to actually move.
layering::Layering aco_result(const graph::Digraph& g, int bucket,
                              int index) {
  core::AcoParams params;
  params.num_ants = 3;
  params.num_tours = 2;
  params.seed = 555 + static_cast<std::uint64_t>(bucket * 1000 + index);
  return core::AntColony(g, params).run().layering;
}

class LayeringPropertyTest : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Buckets, LayeringPropertyTest,
                         ::testing::Range(0, 10));

TEST_P(LayeringPropertyTest, EveryEdgePointsStrictlyDownward) {
  const int bucket = GetParam();
  for (int i = 0; i < kGraphsPerBucket; ++i) {
    const auto g = property_graph(bucket, i);
    for (const auto& l : {baselines::longest_path_layering(g),
                          aco_result(g, bucket, i)}) {
      EXPECT_EQ(layering::validate_layering(g, l), "")
          << "bucket " << bucket << ", graph " << i;
      for (const auto& [u, v] : g.edges()) {
        ASSERT_GT(l.layer(u), l.layer(v))
            << "edge " << u << "->" << v << " not pointing downward";
      }
    }
  }
}

TEST_P(LayeringPropertyTest, NormalizedLayeringHasNoEmptyLayers) {
  const int bucket = GetParam();
  for (int i = 0; i < kGraphsPerBucket; ++i) {
    const auto g = property_graph(bucket, i);
    auto l = aco_result(g, bucket, i);  // already normalized by run()
    const int height = l.max_layer();
    std::vector<bool> occupied(static_cast<std::size_t>(height), false);
    for (std::size_t v = 0; v < g.num_vertices(); ++v) {
      occupied[static_cast<std::size_t>(
          l.layer(static_cast<graph::VertexId>(v)) - 1)] = true;
    }
    for (int layer = 0; layer < height; ++layer) {
      EXPECT_TRUE(occupied[static_cast<std::size_t>(layer)])
          << "empty layer " << layer + 1 << " in bucket " << bucket
          << ", graph " << i;
    }
    // normalize() on an already-normalized layering removes nothing.
    EXPECT_EQ(layering::normalize(l), 0);
  }
}

TEST_P(LayeringPropertyTest, FusedCsrMetricsMatchPerMetricFunctions) {
  const int bucket = GetParam();
  layering::MetricsWorkspace ws;
  for (int i = 0; i < kGraphsPerBucket; ++i) {
    const auto g = property_graph(bucket, i);
    const auto l = aco_result(g, bucket, i);
    const graph::CsrView csr(g);
    const layering::MetricsOptions opts;

    // Fused single-pass scan vs the individual functions it replaced —
    // exact equality, not tolerance: same accumulation orders.
    const auto fused = layering::compute_metrics(csr, l, opts, ws);
    EXPECT_EQ(fused.width_incl_dummies, layering::layering_width(g, l, opts));
    EXPECT_EQ(fused.width_excl_dummies, layering::layering_width_real(g, l));
    EXPECT_EQ(fused.height, layering::layering_height(l));
    EXPECT_EQ(fused.dummy_count, layering::dummy_vertex_count(g, l));
    EXPECT_EQ(fused.total_span, layering::total_edge_span(g, l));
    EXPECT_EQ(fused.edge_density, layering::edge_density(g, l));
    EXPECT_EQ(fused.edge_density_norm,
              layering::edge_density_normalized(g, l));
    EXPECT_EQ(fused.objective, layering::layering_objective(g, l, opts));

    // The compact evaluation equals the from-scratch metrics of the
    // materialized normalized layering.
    const auto compact =
        layering::compute_metrics(csr, l, opts, ws, /*compact=*/true);
    const auto materialized =
        layering::compute_metrics(g, layering::normalized(l), opts);
    EXPECT_EQ(compact.width_incl_dummies, materialized.width_incl_dummies);
    EXPECT_EQ(compact.height, materialized.height);
    EXPECT_EQ(compact.dummy_count, materialized.dummy_count);
    EXPECT_EQ(compact.objective, materialized.objective);
  }
}

/// Topology + widths equality (labels ride along where the format keeps
/// them; the edge-list format is topology-only by design).
void expect_same_topology(const graph::Digraph& a, const graph::Digraph& b,
                          bool compare_widths) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.edges(), b.edges());
  if (compare_widths) {
    for (std::size_t v = 0; v < a.num_vertices(); ++v) {
      EXPECT_EQ(a.width(static_cast<graph::VertexId>(v)),
                b.width(static_cast<graph::VertexId>(v)));
    }
  }
}

TEST_P(LayeringPropertyTest, DotRoundTripPreservesTheGraph) {
  const int bucket = GetParam();
  for (int i = 0; i < kGraphsPerBucket; ++i) {
    const auto g = property_graph(bucket, i);
    const auto back = io::from_dot(io::to_dot(g));
    expect_same_topology(g, back, /*compare_widths=*/true);
  }
}

TEST_P(LayeringPropertyTest, GmlRoundTripPreservesTheGraph) {
  const int bucket = GetParam();
  for (int i = 0; i < kGraphsPerBucket; ++i) {
    const auto g = property_graph(bucket, i);
    const auto back = io::from_gml(io::to_gml(g));
    expect_same_topology(g, back, /*compare_widths=*/false);
  }
}

TEST_P(LayeringPropertyTest, EdgeListRoundTripPreservesTheGraph) {
  const int bucket = GetParam();
  for (int i = 0; i < kGraphsPerBucket; ++i) {
    const auto g = property_graph(bucket, i);
    const auto back = io::from_edge_list(io::to_edge_list(g));
    expect_same_topology(g, back, /*compare_widths=*/false);
  }
}

TEST(TestUtilFixtures, BuildersValidateAcyclicityOnConstruction) {
  // The gate itself: a cyclic graph routed through the fixture check must
  // throw, not silently feed a DAG-assuming suite.
  graph::Digraph cyclic(3);
  cyclic.add_edge(0, 1);
  cyclic.add_edge(1, 2);
  cyclic.add_edge(2, 0);
  EXPECT_THROW(test::require_dag(std::move(cyclic)), support::CheckError);

  graph::Digraph self_contained(2);
  self_contained.add_edge(1, 0);
  EXPECT_NO_THROW(test::require_dag(std::move(self_contained)));
}

TEST(TestUtilFixtures, AllBuildersProduceDags) {
  EXPECT_TRUE(graph::is_dag(test::diamond()));
  EXPECT_TRUE(graph::is_dag(test::triangle_with_long_edge()));
  EXPECT_TRUE(graph::is_dag(test::two_chains()));
  EXPECT_TRUE(graph::is_dag(test::small_dag()));
  for (const auto& g : test::random_battery(6)) {
    EXPECT_TRUE(graph::is_dag(g));
  }
}

}  // namespace
}  // namespace acolay
