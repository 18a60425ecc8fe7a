// Shared fixtures and helpers for the acolay test suite.
#pragma once

#include <utility>
#include <vector>

#include "core/batch.hpp"
#include "gen/random_dag.hpp"
#include "graph/algorithms.hpp"
#include "graph/digraph.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace acolay::test {

/// Submits (g, params) as a SolveRequest — the common case of most batch
/// tests. The graph must outlive the job (the solver borrows it).
inline core::BatchJobId submit_request(core::BatchSolver& solver,
                                       const graph::Digraph& g,
                                       const core::AcoParams& params) {
  core::SolveRequest request;
  request.graph = &g;
  request.params = params;
  return solver.submit(request);
}

/// Collects job `id` for tests that expect success: throws CheckError on a
/// rejected/failed outcome (making the test fail loudly) and returns the
/// result otherwise.
inline core::AcoResult wait_result(core::BatchSolver& solver,
                                   core::BatchJobId id) {
  core::SolveOutcome outcome = solver.collect_outcome(id);
  ACOLAY_CHECK_MSG(outcome.ok(),
                   "job " << id << " failed: " << outcome.message);
  return std::move(outcome.result);
}

/// Every fixture builder routes its graph through this gate: a cyclic
/// fixture would silently turn suites that assume DAG inputs (layering
/// validity, oracle comparisons) into vacuous tests, so construction
/// fails loudly instead. Throws support::CheckError on a cycle.
inline graph::Digraph require_dag(graph::Digraph g) {
  ACOLAY_CHECK_MSG(graph::is_dag(g),
                   "test fixture graph must be a DAG (has a cycle)");
  return g;
}

/// The diamond: 3 -> {1, 2} -> 0.  (Edges point down; 3 is the source.)
inline graph::Digraph diamond() {
  graph::Digraph g(4);
  g.add_edge(3, 1);
  g.add_edge(3, 2);
  g.add_edge(1, 0);
  g.add_edge(2, 0);
  return require_dag(std::move(g));
}

/// A long edge forcing dummies: 2 -> 1 -> 0 plus 2 -> 0.
inline graph::Digraph triangle_with_long_edge() {
  graph::Digraph g(3);
  g.add_edge(2, 1);
  g.add_edge(1, 0);
  g.add_edge(2, 0);
  return require_dag(std::move(g));
}

/// Two independent chains sharing no edges: {4 -> 2 -> 0} and {3 -> 1}.
inline graph::Digraph two_chains() {
  graph::Digraph g(5);
  g.add_edge(4, 2);
  g.add_edge(2, 0);
  g.add_edge(3, 1);
  return require_dag(std::move(g));
}

/// The example DAG used across handwritten expectations:
///
///        5   6          layer 4 (sources)
///       / \ / \         (6 also reaches sink 1 directly)
///      3   4   |        layer 3
///       \ /    |
///        2     |        layer 2
///       / \   /
///      0   1-+          layer 1 (sinks)
inline graph::Digraph small_dag() {
  graph::Digraph g(7);
  g.add_edge(5, 3);
  g.add_edge(5, 4);
  g.add_edge(6, 4);
  g.add_edge(6, 1);
  g.add_edge(3, 2);
  g.add_edge(4, 2);
  g.add_edge(2, 0);
  g.add_edge(2, 1);
  return require_dag(std::move(g));
}

/// A deterministic battery of random DAGs spanning sizes and densities.
inline std::vector<graph::Digraph> random_battery(int count = 24,
                                                  std::uint64_t seed = 7777) {
  support::Rng root(seed);
  std::vector<graph::Digraph> graphs;
  for (int i = 0; i < count; ++i) {
    support::Rng rng = root.fork(static_cast<std::uint64_t>(i));
    gen::GnmParams params;
    params.num_vertices = 4 + static_cast<std::size_t>(rng.uniform_int(0, 36));
    const double density = rng.uniform(1.0, 2.2);
    params.num_edges = static_cast<std::size_t>(
        density * static_cast<double>(params.num_vertices));
    params.span_bias = (i % 3 == 0) ? 0.0 : 0.4;
    graphs.push_back(require_dag(gen::random_dag(params, rng)));
  }
  return graphs;
}

}  // namespace acolay::test
