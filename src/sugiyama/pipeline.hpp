// End-to-end Sugiyama pipeline: arbitrary digraph in, drawing out.
//
//   1. cycle removal (greedy FAS) — accepts non-DAG inputs;
//   2. layering — pluggable strategy, defaulting to the paper's ACO;
//   3. proper graph (dummy insertion);
//   4. crossing minimisation (barycenter sweeps);
//   5. coordinate assignment;
//   6. (optional) SVG rendering.
//
// This is the "adoption layer": the piece a downstream user calls when they
// just want a drawing, with the paper's algorithm doing the layering.
#pragma once

#include <functional>
#include <string>

#include "core/params.hpp"
#include "graph/digraph.hpp"
#include "layering/layering.hpp"
#include "layering/metrics.hpp"
#include "layering/proper.hpp"
#include "sugiyama/coordinates.hpp"
#include "sugiyama/ordering.hpp"
#include "sugiyama/svg.hpp"

namespace acolay::sugiyama {

/// A layering strategy: must return a valid layering of the given DAG.
using LayeringStrategy =
    std::function<layering::Layering(const graph::Digraph&)>;

struct LayoutOptions {
  /// Defaults to the paper's ACO with AcoParams{} when empty.
  LayeringStrategy layering;
  core::AcoParams aco;  ///< used by the default strategy
  /// Dummy width used for the layering metrics report (not the drawing).
  double dummy_width = 1.0;
  OrderingOptions ordering;
  CoordinateOptions coordinates;
  SvgOptions svg;
};

struct Layout {
  /// The acyclic graph actually laid out (== input when it was a DAG).
  graph::Digraph dag;
  std::vector<graph::Edge> reversed_edges;
  /// Layering of `dag` (normalized).
  layering::Layering layering;
  layering::LayeringMetrics metrics;
  layering::ProperGraph proper;
  LayerOrders orders;
  std::int64_t crossings = 0;
  Coordinates coords;
};

/// Runs the full pipeline (steps 1–5).
Layout compute_layout(const graph::Digraph& g, const LayoutOptions& opts = {});

/// Steps 1–6: straight to SVG.
std::string draw_svg(const graph::Digraph& g, const LayoutOptions& opts = {});

}  // namespace acolay::sugiyama
