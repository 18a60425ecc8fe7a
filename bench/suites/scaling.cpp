// How a serial colony scales with the graph: core::solve on deep graphs
// (G(n, 1.3n) from gen::random_dag) and wide graphs (eight layers of n/8
// vertices from gen::random_layered_dag, about 1.5 edges per vertex) at
// n = 256 and 1024, plus 4096 beyond ci-small. The stretch gives each of
// the n vertices n candidate layers, so these are the sizes where the
// pheromone matrix and the walks' candidate scans dominate.
//
// Three series per (family, n):
//   solve_ms           — wall time of the solve (timing, tracked);
//   tau_bytes          — bytes the final pheromone matrix holds (quality,
//                        so the smoke gate pins its size; a dense n x n
//                        matrix of doubles would be 8 n^2 bytes);
//   colony_over_lpl    — f_colony / f_LPL, the colony's objective over its
//                        own longest-path start (quality; below 1 means
//                        the search ended worse than where it began).
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/request.hpp"
#include "gen/random_dag.hpp"
#include "suites/suites.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"

namespace acolay::bench {
namespace {

graph::Digraph deep_graph(std::size_t n, support::Rng& rng) {
  gen::GnmParams shape;
  shape.num_vertices = n;
  shape.num_edges = n + 3 * n / 10;
  return gen::random_dag(shape, rng);
}

graph::Digraph wide_graph(std::size_t n, support::Rng& rng) {
  gen::LayeredParams shape;
  shape.num_layers = 8;
  shape.min_per_layer = static_cast<int>(n / 8);
  shape.max_per_layer = shape.min_per_layer;
  shape.adjacent_edge_prob = 9.0 / static_cast<double>(n);
  shape.long_edge_prob = 0.9 / static_cast<double>(n);
  return gen::random_layered_dag(shape, rng);
}

}  // namespace

harness::Suite scaling_suite() {
  harness::Suite suite;
  suite.name = "scaling";
  suite.description =
      "serial core::solve on deep and wide DAGs of n = 256..4096: solve "
      "time, pheromone bytes and colony-over-LPL objective";
  suite.run = [](const harness::SuiteContext& ctx,
                 harness::SuiteOutput& output) {
    std::vector<std::size_t> sizes{256, 1024};
    if (ctx.config.corpus != harness::CorpusSize::kCiSmall) {
      sizes.push_back(4096);
    }
    core::AcoParams params = ctx.config.aco;
    params.num_threads = 1;
    params.record_trace = false;
    const support::Rng root(params.seed + 0x5ca1e);

    harness::Series timing{"solve_ms", "vertices",
                           harness::SeriesKind::kTiming, {}, {}};
    harness::Series bytes{"tau_bytes", "vertices",
                          harness::SeriesKind::kQuality, {}, {}};
    harness::Series ratio{"colony_over_lpl", "vertices",
                          harness::SeriesKind::kQuality, {}, {}};
    for (const std::size_t n : sizes) {
      const std::string label = std::to_string(n);
      timing.x.push_back(label);
      bytes.x.push_back(label);
      ratio.x.push_back(label);
    }

    for (const bool wide : {false, true}) {
      const char* family = wide ? "wide" : "deep";
      harness::SeriesColumn ms{family, {}, {}};
      harness::SeriesColumn held{family, {}, {}};
      harness::SeriesColumn quality{family, {}, {}};
      for (const std::size_t n : sizes) {
        support::Rng rng = root.fork(n, wide ? 1 : 0);
        const graph::Digraph g = wide ? wide_graph(n, rng) : deep_graph(n, rng);
        // An empty warm matrix never matches the graph's shape, so the
        // solve runs cold and hands its final matrix back.
        core::PheromoneMatrix tau;
        core::SolveRequest request;
        request.graph = &g;
        request.params = params;
        request.warm_tau = &tau;
        support::Stopwatch stopwatch;
        const core::SolveOutcome outcome = core::solve(request);
        const double elapsed_ms = stopwatch.elapsed_us() / 1e3;
        ACOLAY_CHECK_MSG(outcome.ok(), "scaling: " << outcome.message);
        ms.mean.push_back(elapsed_ms);
        ms.stddev.push_back(0.0);
        held.mean.push_back(static_cast<double>(tau.bytes()));
        held.stddev.push_back(0.0);
        quality.mean.push_back(outcome.result.metrics.objective /
                               outcome.result.initial_objective);
        quality.stddev.push_back(0.0);
      }
      timing.columns.push_back(std::move(ms));
      bytes.columns.push_back(std::move(held));
      ratio.columns.push_back(std::move(quality));
    }
    output.graphs = 2 * sizes.size();
    output.series.push_back(std::move(timing));
    output.series.push_back(std::move(bytes));
    output.series.push_back(std::move(ratio));
  };
  return suite;
}

}  // namespace acolay::bench
