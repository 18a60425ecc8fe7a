// Corpus experiment runner: evaluates a set of layering algorithms over the
// (Rome-like) corpus and aggregates every paper criterion per vertex-count
// group — producing exactly the series the paper's Figures 4–9 plot.
//
// Graph-level parallelism: the corpus graphs are independent, so they are
// distributed over a thread pool while each ACO colony runs single-threaded
// — the right inversion for throughput on a whole corpus. Per-graph ACO
// seeds are derived from the graph index, so results are independent of
// both thread count and which algorithms run together.
#pragma once

#include <string>
#include <vector>

#include "gen/corpus.hpp"
#include "harness/algorithms.hpp"
#include "layering/metrics.hpp"
#include "support/stats.hpp"

namespace acolay::harness {

/// Aggregated criteria for one (group, algorithm) cell.
struct GroupStats {
  support::Accumulator width_incl;   ///< width including dummies
  support::Accumulator width_excl;   ///< width real vertices only
  support::Accumulator height;
  support::Accumulator dummies;
  support::Accumulator edge_density;       ///< paper §II raw definition
  support::Accumulator edge_density_norm;  ///< raw / |E|
  support::Accumulator runtime_ms;
  support::Accumulator objective;
};

struct ExperimentResult {
  std::vector<int> group_vertices;  ///< x-axis of every figure
  std::vector<Algorithm> algorithms;
  /// cells[group][algorithm index]
  std::vector<std::vector<GroupStats>> cells;
};

struct ExperimentOptions {
  RunOptions run;
  /// Worker threads across graphs (0 = hardware concurrency).
  int num_threads = 0;
};

/// Runs every algorithm on every corpus graph and aggregates per group.
ExperimentResult run_corpus_experiment(const gen::Corpus& corpus,
                                       const std::vector<Algorithm>& algs,
                                       const ExperimentOptions& opts = {});

}  // namespace acolay::harness
