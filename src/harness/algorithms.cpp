#include "harness/algorithms.hpp"

#include "baselines/coffman_graham.hpp"
#include "baselines/longest_path.hpp"
#include "baselines/min_width.hpp"
#include "baselines/network_simplex.hpp"
#include "baselines/promote.hpp"
#include "core/colony.hpp"
#include "support/check.hpp"
#include "support/timer.hpp"

namespace acolay::harness {

std::string algorithm_name(Algorithm alg) {
  switch (alg) {
    case Algorithm::kLongestPath: return "Longest Path Layering (LPL)";
    case Algorithm::kLongestPathPromoted: return "LPL with Promote Layering";
    case Algorithm::kMinWidth: return "MinWidth";
    case Algorithm::kMinWidthPromoted: return "MinWidth with Promote Layering";
    case Algorithm::kAntColony: return "Ant Colony";
    case Algorithm::kNetworkSimplex: return "Network Simplex";
    case Algorithm::kCoffmanGraham: return "Coffman-Graham";
  }
  ACOLAY_CHECK_MSG(false, "unknown algorithm");
  return {};
}

std::string algorithm_label(Algorithm alg) {
  switch (alg) {
    case Algorithm::kLongestPath: return "LPL";
    case Algorithm::kLongestPathPromoted: return "LPL+PL";
    case Algorithm::kMinWidth: return "MinWidth";
    case Algorithm::kMinWidthPromoted: return "MinWidth+PL";
    case Algorithm::kAntColony: return "AntColony";
    case Algorithm::kNetworkSimplex: return "NetSimplex";
    case Algorithm::kCoffmanGraham: return "CoffmanGraham";
  }
  ACOLAY_CHECK_MSG(false, "unknown algorithm");
  return {};
}

std::vector<Algorithm> paper_algorithms() {
  return {Algorithm::kLongestPath, Algorithm::kLongestPathPromoted,
          Algorithm::kMinWidth, Algorithm::kMinWidthPromoted,
          Algorithm::kAntColony};
}

RunResult run_algorithm(Algorithm alg, const graph::Digraph& g,
                        const RunOptions& opts) {
  RunResult result;
  support::Stopwatch stopwatch;
  switch (alg) {
    case Algorithm::kLongestPath:
      result.layering = baselines::longest_path_layering(g);
      break;
    case Algorithm::kLongestPathPromoted: {
      auto l = baselines::longest_path_layering(g);
      baselines::promote_layering(g, l);
      result.layering = std::move(l);
      break;
    }
    case Algorithm::kMinWidth:
      result.layering =
          baselines::min_width_layering_best(g, opts.dummy_width);
      break;
    case Algorithm::kMinWidthPromoted: {
      auto l = baselines::min_width_layering_best(g, opts.dummy_width);
      baselines::promote_layering(g, l);
      result.layering = std::move(l);
      break;
    }
    case Algorithm::kAntColony:
      result.layering = core::AntColony(g, opts.aco).run().layering;
      break;
    case Algorithm::kNetworkSimplex:
      result.layering = baselines::network_simplex_layering(g);
      break;
    case Algorithm::kCoffmanGraham:
      result.layering = baselines::coffman_graham_layering(g);
      break;
  }
  result.seconds = stopwatch.elapsed_seconds();
  layering::normalize(result.layering);
  return result;
}

}  // namespace acolay::harness
