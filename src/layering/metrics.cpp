#include "layering/metrics.hpp"

#include <algorithm>
#include <limits>

namespace acolay::layering {

std::vector<double> layer_width_profile(const graph::Digraph& g,
                                        const Layering& l,
                                        double dummy_width,
                                        bool include_dummies) {
  const int max_layer = l.max_layer();
  std::vector<double> width;
  std::vector<double> diff;
  detail::width_profile_into(g, l, dummy_width, include_dummies, max_layer,
                             max_layer, width, diff);
  return width;
}

std::vector<std::int64_t> dummies_per_layer(const graph::Digraph& g,
                                            const Layering& l) {
  const int max_layer = l.max_layer();
  std::vector<std::int64_t> diff(static_cast<std::size_t>(max_layer) + 1, 0);
  for (const auto& [u, v] : g.edges()) {
    const int from = l.layer(v) + 1;
    const int to = l.layer(u) - 1;
    if (from > to) continue;
    diff[static_cast<std::size_t>(from - 1)] += 1;
    diff[static_cast<std::size_t>(to)] -= 1;
  }
  std::vector<std::int64_t> counts(static_cast<std::size_t>(max_layer), 0);
  std::int64_t running = 0;
  for (int layer = 0; layer < max_layer; ++layer) {
    running += diff[static_cast<std::size_t>(layer)];
    counts[static_cast<std::size_t>(layer)] = running;
  }
  return counts;
}

double layering_width(const graph::Digraph& g, const Layering& l,
                      const MetricsOptions& opts) {
  const auto profile =
      layer_width_profile(g, l, opts.dummy_width, /*include_dummies=*/true);
  if (profile.empty()) return 0.0;
  return *std::max_element(profile.begin(), profile.end());
}

double layering_width_real(const graph::Digraph& g, const Layering& l) {
  const auto profile =
      layer_width_profile(g, l, 0.0, /*include_dummies=*/false);
  if (profile.empty()) return 0.0;
  return *std::max_element(profile.begin(), profile.end());
}

int layering_height(const Layering& l) { return l.occupied_layer_count(); }

std::int64_t dummy_vertex_count(const graph::Digraph& g, const Layering& l) {
  std::int64_t count = 0;
  for (const auto& [u, v] : g.edges()) {
    count += static_cast<std::int64_t>(l.layer(u) - l.layer(v)) - 1;
  }
  return count;
}

std::int64_t total_edge_span(const graph::Digraph& g, const Layering& l) {
  std::int64_t span = 0;
  for (const auto& [u, v] : g.edges()) {
    span += static_cast<std::int64_t>(l.layer(u) - l.layer(v));
  }
  return span;
}

std::vector<std::int64_t> edges_per_gap(const graph::Digraph& g,
                                        const Layering& l) {
  const int max_layer = l.max_layer();
  if (max_layer <= 1) return {};
  // Edge (u, v) crosses every gap i with layer(v) <= i < layer(u); gaps are
  // indexed 1..max_layer-1 (gap i lies between layers i and i+1).
  std::vector<std::int64_t> diff(static_cast<std::size_t>(max_layer) + 1, 0);
  for (const auto& [u, v] : g.edges()) {
    const int first_gap = l.layer(v);
    const int last_gap = l.layer(u) - 1;
    diff[static_cast<std::size_t>(first_gap - 1)] += 1;
    diff[static_cast<std::size_t>(last_gap)] -= 1;
  }
  std::vector<std::int64_t> counts(static_cast<std::size_t>(max_layer - 1), 0);
  std::int64_t running = 0;
  for (int gap = 0; gap < max_layer - 1; ++gap) {
    running += diff[static_cast<std::size_t>(gap)];
    counts[static_cast<std::size_t>(gap)] = running;
  }
  return counts;
}

std::int64_t edge_density(const graph::Digraph& g, const Layering& l) {
  const auto gaps = edges_per_gap(g, l);
  if (gaps.empty()) return 0;
  return *std::max_element(gaps.begin(), gaps.end());
}

double edge_density_normalized(const graph::Digraph& g, const Layering& l) {
  if (g.num_edges() == 0) return 0.0;
  return static_cast<double>(edge_density(g, l)) /
         static_cast<double>(g.num_edges());
}

double layering_objective(const graph::Digraph& g, const Layering& l,
                          const MetricsOptions& opts) {
  const double h = static_cast<double>(layering_height(l));
  const double w = layering_width(g, l, opts);
  return 1.0 / (h + w);
}

namespace {

// The fused scan shared by both compute_metrics overloads. Templated on
// the compaction flag so the remap lookup costs nothing in the common
// as-is evaluation. Bit-identity with the per-metric functions rests on
// preserving their exact accumulation orders: vertex widths in id order,
// dummy/gap difference entries in the CSR's source-major edge order, then
// the same running prefix sums. The canonical order is
// detail::width_profile_into — this scan deliberately interleaves it with
// the span/gap accumulation (that is the fusion); any change to one must
// be mirrored in the other, and tests/layering_metrics_fused_test.cpp
// pins them equal on randomized corpora.
template <bool kCompact>
LayeringMetrics fused_metrics(const graph::CsrView& g, const Layering& l,
                              const MetricsOptions& opts,
                              MetricsWorkspace& ws) {
  LayeringMetrics m;
  const std::vector<int>& layers = l.raw();
  const std::size_t n = layers.size();

  // Vertex pass 1: occupied layers. Yields the height and, when
  // compacting, the old-layer -> dense-rank remap (exactly normalize()'s
  // relabelling, without touching the Layering). The max-layer scan is a
  // plain loop because GCC vectorizes this form at -O3 and not
  // std::ranges::max; an integer max is exact under any association.
  int max_raw = 0;
  for (const int layer : layers) max_raw = std::max(max_raw, layer);
  ws.remap.assign(static_cast<std::size_t>(max_raw) + 1, 0);
  for (const int layer : layers) {
    ws.remap[static_cast<std::size_t>(layer)] = 1;
  }
  int height = 0;
  for (int layer = 1; layer <= max_raw; ++layer) {
    if (ws.remap[static_cast<std::size_t>(layer)] != 0) {
      ws.remap[static_cast<std::size_t>(layer)] = ++height;
    }
  }
  m.height = height;

  const int max_layer = kCompact ? height : max_raw;
  const auto at = [&ws](int layer) {
    if constexpr (kCompact) {
      return ws.remap[static_cast<std::size_t>(layer)];
    } else {
      return layer;
    }
  };

  // Edge pass: total span (hence dummy count), the dummy-width difference
  // array behind the inclusive width profile, and the edges-per-gap
  // difference array behind the edge density — previously three separate
  // materializations of Digraph::edges().
  const auto edges = g.edges();
  const double dummy_width = opts.dummy_width;
  const bool dummies = dummy_width > 0.0;
  const bool gaps = max_layer > 1;
  std::int64_t span = 0;
  ws.dummy_diff.assign(static_cast<std::size_t>(max_layer) + 1, 0.0);
  ws.gap_diff.assign(static_cast<std::size_t>(max_layer) + 1, 0);
  for (const auto& [u, v] : edges) {
    const int lu = at(layers[static_cast<std::size_t>(u)]);
    const int lv = at(layers[static_cast<std::size_t>(v)]);
    span += lu - lv;
    if (dummies) {
      const int from = lv + 1;  // first crossed layer
      const int to = lu - 1;    // last crossed layer
      if (from <= to) {
        ws.dummy_diff[static_cast<std::size_t>(from - 1)] += dummy_width;
        ws.dummy_diff[static_cast<std::size_t>(to)] -= dummy_width;
      }
    }
    if (gaps) {
      ws.gap_diff[static_cast<std::size_t>(lv - 1)] += 1;
      ws.gap_diff[static_cast<std::size_t>(lu - 1)] -= 1;
    }
  }

  // Vertex pass 2: both width profiles at once, then the dummy prefix.
  ws.width.assign(static_cast<std::size_t>(max_layer), 0.0);
  ws.width_real.assign(static_cast<std::size_t>(max_layer), 0.0);
  const auto widths = g.widths();
  for (std::size_t v = 0; v < n; ++v) {
    const auto idx = static_cast<std::size_t>(at(layers[v]) - 1);
    ws.width[idx] += widths[v];
    ws.width_real[idx] += widths[v];
  }
  if (dummies) {
    double running = 0.0;
    for (int layer = 0; layer < max_layer; ++layer) {
      running += ws.dummy_diff[static_cast<std::size_t>(layer)];
      ws.width[static_cast<std::size_t>(layer)] += running;
    }
  }
  m.width_incl_dummies =
      ws.width.empty() ? 0.0
                       : *std::max_element(ws.width.begin(), ws.width.end());
  m.width_excl_dummies =
      ws.width_real.empty()
          ? 0.0
          : *std::max_element(ws.width_real.begin(), ws.width_real.end());

  m.total_span = span;
  m.dummy_count = span - static_cast<std::int64_t>(edges.size());
  if (gaps) {
    std::int64_t running = 0;
    std::int64_t density = std::numeric_limits<std::int64_t>::min();
    for (int gap = 0; gap < max_layer - 1; ++gap) {
      running += ws.gap_diff[static_cast<std::size_t>(gap)];
      density = std::max(density, running);
    }
    m.edge_density = density;
  } else {
    m.edge_density = 0;
  }
  m.edge_density_norm =
      edges.empty() ? 0.0
                    : static_cast<double>(m.edge_density) /
                          static_cast<double>(edges.size());
  m.objective = 1.0 / (static_cast<double>(m.height) + m.width_incl_dummies);
  return m;
}

}  // namespace

LayeringMetrics compute_metrics(const graph::Digraph& g, const Layering& l,
                                const MetricsOptions& opts) {
  // One CSR snapshot replaces the five Digraph::edges() materializations
  // the unfused bundle used to pay; results are unchanged.
  const graph::CsrView csr(g);
  MetricsWorkspace ws;
  return compute_metrics(csr, l, opts, ws, /*compact=*/false);
}

LayeringMetrics compute_metrics(const graph::CsrView& g, const Layering& l,
                                const MetricsOptions& opts,
                                MetricsWorkspace& ws, bool compact) {
  ACOLAY_CHECK_MSG(l.num_vertices() == g.num_vertices(),
                   "layering covers " << l.num_vertices()
                                      << " vertices, graph has "
                                      << g.num_vertices());
  return compact ? fused_metrics<true>(g, l, opts, ws)
                 : fused_metrics<false>(g, l, opts, ws);
}

}  // namespace acolay::layering
