// Tests for layering/spans: layer-span computation and incremental refresh
// (paper §II definition; Alg. 4 lines 9–11).
#include "layering/spans.hpp"

#include <gtest/gtest.h>

#include "baselines/longest_path.hpp"
#include "core/stretch.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace acolay::layering {
namespace {

TEST(Spans, SourceAndSinkGetExtremes) {
  const auto g = test::diamond();
  const auto l = Layering::from_vector({1, 2, 2, 3});
  // Vertex 0 (sink): lo = 1, hi = min(layer(1), layer(2)) - 1 = 1.
  EXPECT_EQ(compute_span(g, l, 0, 10), (LayerSpan{1, 1}));
  // Vertex 3 (source): lo = max(layer(1), layer(2)) + 1 = 3, hi = 10.
  EXPECT_EQ(compute_span(g, l, 3, 10), (LayerSpan{3, 10}));
  // Vertex 1: lo = layer(0) + 1 = 2, hi = layer(3) - 1 = 2.
  EXPECT_EQ(compute_span(g, l, 1, 10), (LayerSpan{2, 2}));
}

TEST(Spans, IsolatedVertexSpansEverything) {
  graph::Digraph g(1);
  const Layering l(1);
  EXPECT_EQ(compute_span(g, l, 0, 7), (LayerSpan{1, 7}));
}

TEST(Spans, CurrentLayerAlwaysInSpan) {
  for (const auto& g : test::random_battery(12)) {
    auto stretched = core::stretch_layering(
        g, baselines::longest_path_layering(g),
        core::StretchMode::kBetweenLayers);
    SpanTable spans;
    spans.reset(graph::CsrView(g), stretched.layering,
                std::max(stretched.num_layers, 1));
    for (graph::VertexId v = 0;
         static_cast<std::size_t>(v) < g.num_vertices(); ++v) {
      EXPECT_TRUE(spans.span(v).contains(stretched.layering.layer(v)))
          << "vertex " << v;
    }
  }
}

TEST(Spans, RefreshAroundMatchesFullRecompute) {
  support::Rng rng(99);
  for (const auto& g : test::random_battery(10)) {
    auto stretched = core::stretch_layering(
        g, baselines::longest_path_layering(g),
        core::StretchMode::kBetweenLayers);
    auto l = stretched.layering;
    const int num_layers = std::max(stretched.num_layers, 1);
    const graph::CsrView csr(g);
    SpanTable spans;
    spans.reset(csr, l, num_layers);
    for (int step = 0; step < 40; ++step) {
      const auto v = static_cast<graph::VertexId>(
          rng.index(g.num_vertices()));
      const auto span = spans.span(v);
      l.set_layer(v, static_cast<int>(rng.uniform_int(span.lo, span.hi)));
      spans.refresh_around(csr, l, v);
      // Full recomputation over the Digraph must agree for every vertex,
      // not just the refreshed neighbourhood — spans depend only on direct
      // neighbours, so refreshing the neighbourhood is sufficient.
      for (graph::VertexId u = 0;
           static_cast<std::size_t>(u) < g.num_vertices(); ++u) {
        ASSERT_EQ(spans.span(u), compute_span(g, l, u, num_layers))
            << "vertex " << u << " after moving " << v;
      }
    }
  }
}

TEST(Spans, InvalidLayeringViolatesContract) {
  const auto g = test::diamond();
  // Vertex 1's successor 0 sits above its predecessor 3: lo=4 > hi=0.
  const auto bad = Layering::from_vector({3, 2, 2, 1});
  EXPECT_THROW(compute_span(g, bad, 1, 5), support::CheckError);
}

TEST(Spans, SpanSizeMatchesBounds) {
  const LayerSpan span{3, 7};
  EXPECT_EQ(span.size(), 5);
  EXPECT_TRUE(span.contains(3));
  EXPECT_TRUE(span.contains(7));
  EXPECT_FALSE(span.contains(2));
  EXPECT_FALSE(span.contains(8));
}

}  // namespace
}  // namespace acolay::layering
