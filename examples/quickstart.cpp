// Quickstart: build a DAG, layer it with the paper's ACO algorithm, and
// inspect the result.
//
//   $ ./quickstart
//
// Walks through the minimal public API: graph::Digraph construction,
// core::AntColony, and the layering metrics.
#include <iostream>

#include "core/colony.hpp"
#include "layering/metrics.hpp"

int main() {
  using namespace acolay;

  // A small module-dependency DAG. Edges point from dependent to
  // dependency (the dependency ends up on a lower layer).
  graph::Digraph g;
  const auto app = g.add_vertex(2.0, "app");
  const auto ui = g.add_vertex(1.5, "ui");
  const auto api = g.add_vertex(1.5, "api");
  const auto cache = g.add_vertex(1.0, "cache");
  const auto db = g.add_vertex(1.0, "db");
  const auto log = g.add_vertex(1.0, "log");
  const auto core_lib = g.add_vertex(1.0, "core");
  g.add_edge(app, ui);
  g.add_edge(app, api);
  g.add_edge(ui, core_lib);
  g.add_edge(api, cache);
  g.add_edge(api, db);
  g.add_edge(api, log);
  g.add_edge(cache, core_lib);
  g.add_edge(db, core_lib);
  g.add_edge(app, log);

  // Run the ant colony with the paper's production parameters (alpha = 1,
  // beta = 3, 10 ants, 10 tours, nd_width = 1).
  core::AcoParams params;
  params.seed = 42;
  core::AntColony colony(g, params);
  const core::AcoResult result = colony.run();

  std::cout << "Layer assignment (layer 1 = bottom):\n";
  for (graph::VertexId v = 0;
       static_cast<std::size_t>(v) < g.num_vertices(); ++v) {
    std::cout << "  " << g.label(v) << " -> layer "
              << result.layering.layer(v) << "\n";
  }

  const auto& m = result.metrics;
  std::cout << "\nMetrics: height=" << m.height
            << "  width(incl dummies)=" << m.width_incl_dummies
            << "  width(real)=" << m.width_excl_dummies
            << "  dummy vertices=" << m.dummy_count
            << "  edge density=" << m.edge_density
            << "\nObjective f = 1/(H+W) = " << m.objective << "\n";

  std::cout << "\nSearch trace (best objective per tour):\n";
  for (const auto& tour : result.trace) {
    std::cout << "  tour " << tour.tour << ": f=" << tour.best_objective
              << "  moves=" << tour.total_moves << "\n";
  }
  return 0;
}
