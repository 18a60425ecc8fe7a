#include "sugiyama/pipeline.hpp"

#include "core/colony.hpp"
#include "graph/algorithms.hpp"
#include "graph/cycle_removal.hpp"
#include "support/check.hpp"

namespace acolay::sugiyama {

Layout compute_layout(const graph::Digraph& g, const LayoutOptions& opts) {
  Layout layout;

  // 1. Cycle removal (no-op for DAGs).
  auto acyclic = graph::make_acyclic(g);
  layout.dag = std::move(acyclic.dag);
  layout.reversed_edges = std::move(acyclic.reversed_edges);

  // 2. Layering (default: the paper's ACO).
  if (opts.layering) {
    layout.layering = opts.layering(layout.dag);
    ACOLAY_CHECK_MSG(layering::is_valid_layering(layout.dag, layout.layering),
                     "layering strategy returned an invalid layering: "
                         << layering::validate_layering(layout.dag,
                                                        layout.layering));
    layering::normalize(layout.layering);
  } else {
    layout.layering = core::AntColony(layout.dag, opts.aco).run().layering;
  }
  layout.metrics = layering::compute_metrics(
      layout.dag, layout.layering, layering::MetricsOptions{opts.dummy_width});

  // 3. Proper graph.
  layout.proper = layering::make_proper(layout.dag, layout.layering,
                                        opts.dummy_width);

  // 4. Crossing minimisation.
  auto ordering = order_vertices(layout.proper, opts.ordering);
  layout.orders = std::move(ordering.orders);
  layout.crossings = ordering.crossings;

  // 5. Coordinates.
  layout.coords = assign_coordinates(layout.proper, layout.orders,
                                     opts.coordinates);
  return layout;
}

std::string draw_svg(const graph::Digraph& g, const LayoutOptions& opts) {
  const Layout layout = compute_layout(g, opts);
  SvgOptions svg = opts.svg;
  svg.unit_width = opts.coordinates.unit_width;
  return render_svg(layout.proper, layout.coords, layout.reversed_edges,
                    svg);
}

}  // namespace acolay::sugiyama
