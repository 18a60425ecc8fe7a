// Equivalence pins for the fused single-pass metrics (and the reusable
// per-walk state it shares buffers with): on randomized corpora and
// randomized valid layerings, the fused compute_metrics must reproduce the
// existing per-metric functions *bit for bit* — same accumulation orders,
// so EXPECT_EQ on doubles, not EXPECT_NEAR. The compact mode must equal
// evaluating the materialized normalized() layering, and reusing one
// workspace across many graphs must change nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "baselines/longest_path.hpp"
#include "graph/csr.hpp"
#include "layering/layer_widths.hpp"
#include "layering/layering.hpp"
#include "layering/metrics.hpp"
#include "layering/spans.hpp"
#include "test_util.hpp"

namespace acolay::layering {
namespace {

/// A randomized valid layering with headroom (possibly empty layers, so
/// normalization is non-trivial): start from the longest-path layering
/// shifted up, then re-place every vertex uniformly within its span.
Layering random_valid_layering(const graph::Digraph& g, int* num_layers,
                               support::Rng& rng) {
  const auto lpl = baselines::longest_path_layering(g);
  const int layers = std::max(lpl.max_layer(), 1) + 3;
  *num_layers = layers;
  Layering l = lpl;
  for (int round = 0; round < 2; ++round) {
    for (graph::VertexId v = 0;
         static_cast<std::size_t>(v) < g.num_vertices(); ++v) {
      const auto span = compute_span(g, l, v, layers);
      l.set_layer(v, span.lo + static_cast<int>(
                                   rng.index(static_cast<std::size_t>(
                                       span.size()))));
    }
  }
  return l;
}

LayeringMetrics per_metric_reference(const graph::Digraph& g,
                                     const Layering& l,
                                     const MetricsOptions& opts) {
  LayeringMetrics m;
  m.height = layering_height(l);
  m.width_incl_dummies = layering_width(g, l, opts);
  m.width_excl_dummies = layering_width_real(g, l);
  m.dummy_count = dummy_vertex_count(g, l);
  m.total_span = total_edge_span(g, l);
  m.edge_density = edge_density(g, l);
  m.edge_density_norm = edge_density_normalized(g, l);
  m.objective = 1.0 / (static_cast<double>(m.height) + m.width_incl_dummies);
  return m;
}

void expect_identical(const LayeringMetrics& fused,
                      const LayeringMetrics& reference) {
  EXPECT_EQ(fused.height, reference.height);
  EXPECT_EQ(fused.width_incl_dummies, reference.width_incl_dummies);
  EXPECT_EQ(fused.width_excl_dummies, reference.width_excl_dummies);
  EXPECT_EQ(fused.dummy_count, reference.dummy_count);
  EXPECT_EQ(fused.total_span, reference.total_span);
  EXPECT_EQ(fused.edge_density, reference.edge_density);
  EXPECT_EQ(fused.edge_density_norm, reference.edge_density_norm);
  EXPECT_EQ(fused.objective, reference.objective);
}

TEST(FusedMetrics, MatchesPerMetricFunctionsOnRandomizedCorpora) {
  support::Rng rng(20070328);
  MetricsWorkspace ws;  // reused across every graph on purpose
  for (const auto& g : test::random_battery(24)) {
    int num_layers = 0;
    const auto l = random_valid_layering(g, &num_layers, rng);
    const graph::CsrView csr(g);
    for (const double dummy_width : {1.0, 0.3, 0.0}) {
      const MetricsOptions opts{dummy_width};
      const auto fused = compute_metrics(csr, l, opts, ws);
      expect_identical(fused, per_metric_reference(g, l, opts));
    }
  }
}

TEST(FusedMetrics, CompactModeEqualsMaterializedNormalization) {
  support::Rng rng(19481205);
  MetricsWorkspace ws;
  for (const auto& g : test::random_battery(16, 555)) {
    int num_layers = 0;
    const auto l = random_valid_layering(g, &num_layers, rng);
    const auto compacted = normalized(l);
    const graph::CsrView csr(g);
    const MetricsOptions opts{1.0};
    const auto fused = compute_metrics(csr, l, opts, ws, /*compact=*/true);
    expect_identical(fused, per_metric_reference(g, compacted, opts));
    // And against the bundled Digraph API on the materialized layering.
    expect_identical(fused, compute_metrics(g, compacted, opts));
  }
}

TEST(FusedMetrics, DigraphBundleStillMatchesPerMetricFunctions) {
  // compute_metrics(Digraph) now routes through the fused scan; it must
  // still agree with the individual metric functions it replaced.
  support::Rng rng(61803398);
  for (const auto& g : test::random_battery(12, 999)) {
    int num_layers = 0;
    const auto l = random_valid_layering(g, &num_layers, rng);
    const MetricsOptions opts{0.7};
    expect_identical(compute_metrics(g, l, opts),
                     per_metric_reference(g, l, opts));
  }
}

TEST(FusedMetrics, WorkspaceReuseIsStateless) {
  // A workspace that just processed a big graph must give bit-identical
  // results on a small one (buffers are oversized, never stale).
  const auto battery = test::random_battery(10, 31337);
  support::Rng rng(31337);
  std::vector<Layering> layerings;
  std::vector<int> layer_counts(battery.size());
  for (std::size_t i = 0; i < battery.size(); ++i) {
    layerings.push_back(
        random_valid_layering(battery[i], &layer_counts[i], rng));
  }
  const MetricsOptions opts{1.0};
  MetricsWorkspace reused;
  for (std::size_t i = 0; i < battery.size(); ++i) {
    const graph::CsrView csr(battery[i]);
    MetricsWorkspace fresh;
    const auto a = compute_metrics(csr, layerings[i], opts, reused, true);
    const auto b = compute_metrics(csr, layerings[i], opts, fresh, true);
    expect_identical(a, b);
  }
}

TEST(FusedMetrics, EmptyGraph) {
  const graph::Digraph g;
  const graph::CsrView csr(g);
  MetricsWorkspace ws;
  const auto fused = compute_metrics(csr, Layering(0), MetricsOptions{}, ws);
  expect_identical(fused, per_metric_reference(g, Layering(0), {}));
  EXPECT_EQ(fused.height, 0);
  EXPECT_EQ(fused.dummy_count, 0);
}

TEST(FusedMetrics, RejectsVertexCountMismatch) {
  const auto g = test::diamond();
  const graph::CsrView csr(g);
  MetricsWorkspace ws;
  EXPECT_THROW(compute_metrics(csr, Layering(2), MetricsOptions{}, ws),
               support::CheckError);
}

TEST(LayerWidthsReset, MatchesConstructorProfile) {
  // reset() must reproduce layer_width_profile (padded to num_layers) bit
  // for bit — including on an instance whose buffers incremental moves
  // have already dirtied.
  support::Rng rng(271828);
  LayerWidths reused;  // one instance across the battery
  const auto reference = [](const graph::Digraph& g, const Layering& l,
                            int num_layers, double dummy_width) {
    auto profile = layer_width_profile(g, l, dummy_width, true);
    profile.resize(static_cast<std::size_t>(num_layers), 0.0);
    return profile;
  };
  for (const auto& g : test::random_battery(16, 2024)) {
    int num_layers = 0;
    const auto l = random_valid_layering(g, &num_layers, rng);
    const graph::CsrView csr(g);
    for (const double dummy_width : {1.0, 0.0}) {
      reused.reset(csr, l, num_layers, dummy_width);
      EXPECT_EQ(reused.profile(), reference(g, l, num_layers, dummy_width));
      Layering moved = l;
      for (graph::VertexId v = 0;
           static_cast<std::size_t>(v) < g.num_vertices(); ++v) {
        const auto span = compute_span(csr, moved, v, num_layers);
        const int target = span.lo + static_cast<int>(rng.index(
                                         static_cast<std::size_t>(
                                             span.size())));
        reused.apply_move(csr, v, moved.layer(v), target);
        moved.set_layer(v, target);
      }
      reused.reset(csr, moved, num_layers, dummy_width);
      EXPECT_EQ(reused.profile(),
                reference(g, moved, num_layers, dummy_width));
    }
  }
}

TEST(SpanTableReset, MatchesConstructorSpans) {
  // reset() must reproduce the Digraph compute_span of every vertex.
  support::Rng rng(141421);
  layering::SpanTable reused;
  for (const auto& g : test::random_battery(16, 77)) {
    int num_layers = 0;
    const auto l = random_valid_layering(g, &num_layers, rng);
    reused.reset(graph::CsrView(g), l, num_layers);
    EXPECT_EQ(reused.num_layers(), num_layers);
    for (graph::VertexId v = 0;
         static_cast<std::size_t>(v) < g.num_vertices(); ++v) {
      EXPECT_EQ(reused.span(v), compute_span(g, l, v, num_layers))
          << "vertex " << v;
    }
  }
}

}  // namespace
}  // namespace acolay::layering
