// Registry of the layering algorithms under comparison — the paper's five
// (LPL, LPL+PL, MinWidth, MinWidth+PL, Ant Colony) plus the two extensions
// acolay adds (network simplex, Coffman–Graham). The figure benches and the
// comparison example all resolve algorithms through this registry so names,
// defaults, and timing are consistent.
#pragma once

#include <string>
#include <vector>

#include "core/params.hpp"
#include "graph/digraph.hpp"
#include "layering/layering.hpp"

namespace acolay::harness {

enum class Algorithm {
  kLongestPath,
  kLongestPathPromoted,
  kMinWidth,
  kMinWidthPromoted,
  kAntColony,
  kNetworkSimplex,
  kCoffmanGraham,
};

/// Display name as used in the paper's figure legends ("Longest Path
/// Layering (LPL)", "LPL with Promote Layering", "Ant Colony", ...).
std::string algorithm_name(Algorithm alg);

/// Short column label for tables and reports ("LPL", "LPL+PL", ...).
std::string algorithm_label(Algorithm alg);

/// The five algorithms of the paper's evaluation, in figure order.
std::vector<Algorithm> paper_algorithms();

struct RunOptions {
  core::AcoParams aco;        ///< used by kAntColony
  double dummy_width = 1.0;   ///< used by MinWidth's internal estimates
};

struct RunResult {
  layering::Layering layering;  ///< normalized
  double seconds = 0.0;         ///< wall-clock of the layering call
};

/// Runs one algorithm on one DAG, timing it.
RunResult run_algorithm(Algorithm alg, const graph::Digraph& g,
                        const RunOptions& opts = {});

}  // namespace acolay::harness
