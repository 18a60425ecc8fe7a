// Compare every layering algorithm in acolay on one graph — the paper's
// evaluation in miniature, on a single generated (or user-supplied) DAG.
//
//   $ ./compare_layerings              # generated North-like DAG, n = 60
//   $ ./compare_layerings 120          # generated, n = 120
//   $ ./compare_layerings graph.dot    # your own DOT digraph
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "gen/random_dag.hpp"
#include "graph/algorithms.hpp"
#include "graph/cycle_removal.hpp"
#include "harness/algorithms.hpp"
#include "io/dot.hpp"
#include "layering/metrics.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace acolay;

  graph::Digraph g;
  if (argc > 1 && std::string(argv[1]).find(".dot") != std::string::npos) {
    std::ifstream in(argv[1]);
    if (!in.good()) {
      std::cerr << "cannot open " << argv[1] << "\n";
      return 1;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    g = io::from_dot(buffer.str());
    std::cout << "Loaded " << argv[1] << ": " << g.num_vertices()
              << " vertices, " << g.num_edges() << " edges\n";
    if (!graph::is_dag(g)) {
      std::cout << "Input has cycles; reversing a feedback arc set.\n";
      g = graph::make_acyclic(g).dag;
    }
  } else {
    const std::size_t n = argc > 1 ? std::stoul(argv[1]) : 60;
    support::Rng rng(7);
    gen::NorthParams params;
    params.num_vertices = n;
    params.num_edges = static_cast<std::size_t>(1.3 * static_cast<double>(n));
    g = gen::random_north_dag(params, rng);
    std::cout << "Generated North-like DAG: " << n << " vertices, "
              << g.num_edges() << " edges\n";
  }

  const std::vector<harness::Algorithm> algorithms{
      harness::Algorithm::kLongestPath,
      harness::Algorithm::kLongestPathPromoted,
      harness::Algorithm::kMinWidth,
      harness::Algorithm::kMinWidthPromoted,
      harness::Algorithm::kAntColony,
      harness::Algorithm::kNetworkSimplex,
      harness::Algorithm::kCoffmanGraham,
  };

  harness::RunOptions opts;
  opts.aco.seed = 1;

  support::ConsoleTable table({"algorithm", "height", "width(+d)",
                               "width(real)", "dummies", "edge dens.",
                               "f=1/(H+W)", "ms"});
  for (const auto alg : algorithms) {
    const auto run = harness::run_algorithm(alg, g, opts);
    const auto m = layering::compute_metrics(g, run.layering);
    table.add_row({harness::algorithm_name(alg),
                   std::to_string(m.height),
                   support::ConsoleTable::num(m.width_incl_dummies, 1),
                   support::ConsoleTable::num(m.width_excl_dummies, 1),
                   std::to_string(m.dummy_count),
                   std::to_string(m.edge_density),
                   support::ConsoleTable::num(m.objective, 4),
                   support::ConsoleTable::num(run.seconds * 1e3, 2)});
  }
  std::cout << '\n';
  table.print(std::cout);
  std::cout << "\n(LPL minimises height; MinWidth minimises width; the Ant"
               " Colony balances\n both — the paper's claim is that it is"
               " the most universal of the three.)\n";
  return 0;
}
