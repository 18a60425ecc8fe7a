// Property tests for the Algorithm 5 incremental width update — the
// correctness core of the ACO inner loop. Every randomised move sequence is
// checked against a from-scratch recomputation of the width profile
// (layer_width_profile over the Digraph, the reference implementation).
#include "layering/layer_widths.hpp"

#include <gtest/gtest.h>

#include "baselines/longest_path.hpp"
#include "core/stretch.hpp"
#include "layering/metrics.hpp"
#include "layering/spans.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace acolay::layering {
namespace {

/// The profile the ant starts from: LayerWidths::reset over a CSR view.
LayerWidths widths_of(const graph::CsrView& csr, const Layering& l,
                      int num_layers, double dummy_width) {
  LayerWidths widths;
  widths.reset(csr, l, num_layers, dummy_width);
  return widths;
}

void expect_profile_matches(const graph::Digraph& g, const Layering& l,
                            const LayerWidths& widths, double dummy_width) {
  auto expected = layer_width_profile(g, l, dummy_width, true);
  expected.resize(static_cast<std::size_t>(widths.num_layers()), 0.0);
  for (int layer = 1; layer <= widths.num_layers(); ++layer) {
    EXPECT_NEAR(widths.width(layer),
                expected[static_cast<std::size_t>(layer - 1)], 1e-9)
        << "layer " << layer;
  }
}

TEST(LayerWidths, InitialProfileMatchesMetrics) {
  const auto g = test::triangle_with_long_edge();
  const auto l = Layering::from_vector({1, 2, 3});
  const auto widths = widths_of(graph::CsrView(g), l, 5, 1.0);
  EXPECT_DOUBLE_EQ(widths.width(1), 1.0);
  EXPECT_DOUBLE_EQ(widths.width(2), 2.0);  // vertex 1 + dummy of (2,0)
  EXPECT_DOUBLE_EQ(widths.width(3), 1.0);
  EXPECT_DOUBLE_EQ(widths.width(4), 0.0);
  EXPECT_DOUBLE_EQ(widths.max_width(), 2.0);
}

TEST(LayerWidths, MoveUpHandWorked) {
  // Diamond on 4 layers; move vertex 1 from layer 2 to layer 3.
  const auto g = test::diamond();
  const graph::CsrView csr(g);
  auto l = Layering::from_vector({1, 2, 2, 4});
  auto widths = widths_of(csr, l, 4, 1.0);
  // Before: L1={0}, L2={1,2}, L3={dummies of (3,1),(3,2)}, L4={3}.
  EXPECT_DOUBLE_EQ(widths.width(3), 2.0);
  widths.apply_move(csr, 1, 2, 3);
  l.set_layer(1, 3);
  // After: vertex 1 on L3; edge (3,1) no longer crosses L3; edge (1,0)
  // now crosses L2.
  EXPECT_DOUBLE_EQ(widths.width(2), 2.0);  // vertex 2 + dummy of (1,0)
  EXPECT_DOUBLE_EQ(widths.width(3), 2.0);  // vertex 1 + dummy of (3,2)
  expect_profile_matches(g, l, widths, 1.0);
}

TEST(LayerWidths, MoveDownIsInverseOfMoveUp) {
  const graph::CsrView csr(test::diamond());
  const auto l = Layering::from_vector({1, 2, 2, 4});
  auto widths = widths_of(csr, l, 4, 1.0);
  const auto before = widths.profile();
  widths.apply_move(csr, 1, 2, 3);
  widths.apply_move(csr, 1, 3, 2);
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_NEAR(widths.profile()[i], before[i], 1e-9);
  }
}

TEST(LayerWidths, MoveToSameLayerIsNoop) {
  const graph::CsrView csr(test::diamond());
  const auto l = Layering::from_vector({1, 2, 2, 4});
  auto widths = widths_of(csr, l, 4, 1.0);
  const auto before = widths.profile();
  widths.apply_move(csr, 1, 2, 2);
  EXPECT_EQ(widths.profile(), before);
}

TEST(LayerWidths, OutOfRangeLayersRejected) {
  const graph::CsrView csr(test::diamond());
  const auto l = Layering::from_vector({1, 2, 2, 4});
  auto widths = widths_of(csr, l, 4, 1.0);
  EXPECT_THROW(widths.width(5), support::CheckError);
  EXPECT_THROW(widths.width(0), support::CheckError);
  EXPECT_THROW(widths.reset(csr, l, 3, 1.0), support::CheckError);
#ifndef NDEBUG
  // apply_move is the ant's inner loop, so it checks its layers with
  // ACOLAY_DCHECK: debug builds only.
  EXPECT_THROW(widths.apply_move(csr, 1, 2, 5), support::CheckError);
  EXPECT_THROW(widths.apply_move(csr, 1, 0, 2), support::CheckError);
#endif
}

/// The central property: arbitrary span-respecting move sequences keep the
/// incremental profile identical to the from-scratch profile. Sweeps
/// dummy-width values including the paper's nd_width extremes.
class LayerWidthsProperty : public ::testing::TestWithParam<double> {};

TEST_P(LayerWidthsProperty, RandomMoveSequencesMatchRecompute) {
  const double dummy_width = GetParam();
  support::Rng rng(4242);
  for (const auto& g : test::random_battery(16)) {
    const auto n = static_cast<int>(g.num_vertices());
    auto stretched = core::stretch_layering(
        g, baselines::longest_path_layering(g),
        core::StretchMode::kBetweenLayers);
    auto l = stretched.layering;
    const int num_layers = std::max(stretched.num_layers, 1);
    const graph::CsrView csr(g);
    auto widths = widths_of(csr, l, num_layers, dummy_width);
    SpanTable spans;
    spans.reset(csr, l, num_layers);

    const int moves = 3 * n;
    for (int step = 0; step < moves; ++step) {
      const auto v = static_cast<graph::VertexId>(rng.index(
          static_cast<std::size_t>(n)));
      const auto span = spans.span(v);
      const int target =
          static_cast<int>(rng.uniform_int(span.lo, span.hi));
      const int current = l.layer(v);
      widths.apply_move(csr, v, current, target);
      l.set_layer(v, target);
      spans.refresh_around(csr, l, v);
      ASSERT_TRUE(is_valid_layering(g, l));
    }
    expect_profile_matches(g, l, widths, dummy_width);
  }
}

INSTANTIATE_TEST_SUITE_P(DummyWidthSweep, LayerWidthsProperty,
                         ::testing::Values(0.0, 0.1, 0.5, 1.0, 1.1, 2.0));

}  // namespace
}  // namespace acolay::layering
