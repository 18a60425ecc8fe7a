// Domain scenario: study how the ACO parameters shape the search on one
// graph — the per-tour convergence view behind the paper's §VIII tuning.
// Prints a tour-by-tour trace for several (alpha, beta) pairs and the
// width/height trade-off each reaches.
//
// For the corpus-level version of this sweep (the paper's full 5x5 grid
// with JSON output), run `acolay_bench --suite param-alpha-beta`.
//
//   $ ./parameter_study [n]
#include <iostream>
#include <vector>

#include "baselines/longest_path.hpp"
#include "core/colony.hpp"
#include "gen/random_dag.hpp"
#include "layering/metrics.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace acolay;

  const std::size_t n = argc > 1 ? std::stoul(argv[1]) : 80;
  support::Rng rng(99);
  gen::NorthParams gen_params;
  gen_params.num_vertices = n;
  gen_params.num_edges = static_cast<std::size_t>(1.3 * static_cast<double>(n));
  const auto g = gen::random_north_dag(gen_params, rng);

  const auto lpl = baselines::longest_path_layering(g);
  const auto lpl_metrics = layering::compute_metrics(g, lpl);
  std::cout << "Graph: n=" << g.num_vertices() << " m=" << g.num_edges()
            << "\nLPL baseline: H=" << lpl_metrics.height
            << " W=" << lpl_metrics.width_incl_dummies
            << " f=" << lpl_metrics.objective << "\n";

  struct Config {
    double alpha, beta;
  };
  const std::vector<Config> configs{{1, 3}, {3, 5}, {0, 3}, {1, 0}};

  for (const auto& config : configs) {
    core::AcoParams params;
    params.alpha = config.alpha;
    params.beta = config.beta;
    params.seed = 5;
    core::AntColony colony(g, params);
    const auto result = colony.run();
    std::cout << "\nalpha=" << config.alpha << " beta=" << config.beta
              << "  (paper: (1,3) production, (3,5) best quality; "
                 "alpha=0 kills pheromone, beta=0 kills heuristic)\n";
    support::ConsoleTable table({"tour", "best f", "mean f", "width",
                                 "height", "moves"});
    for (const auto& tour : result.trace) {
      table.add_row({std::to_string(tour.tour),
                     support::ConsoleTable::num(tour.best_objective, 4),
                     support::ConsoleTable::num(tour.mean_objective, 4),
                     support::ConsoleTable::num(tour.best_width, 1),
                     std::to_string(tour.best_height),
                     std::to_string(tour.total_moves)});
    }
    table.print(std::cout);
    std::cout << "final: H=" << result.metrics.height
              << " W=" << result.metrics.width_incl_dummies << " ("
              << (result.metrics.objective >= lpl_metrics.objective
                      ? "better than"
                      : "trades height against")
              << " the LPL start, f=" << result.metrics.objective << ")\n";
  }
  return 0;
}
