#include "harness/experiment.hpp"

#include <mutex>

#include "support/check.hpp"
#include "support/thread_pool.hpp"

namespace acolay::harness {

ExperimentResult run_corpus_experiment(const gen::Corpus& corpus,
                                       const std::vector<Algorithm>& algs,
                                       const ExperimentOptions& opts) {
  ACOLAY_CHECK(!algs.empty());
  ExperimentResult result;
  result.group_vertices = corpus.group_vertices;
  result.algorithms = algs;
  result.cells.assign(corpus.num_groups(),
                      std::vector<GroupStats>(algs.size()));

  const layering::MetricsOptions metric_opts{opts.run.aco.dummy_width};

  // Per-graph measurements gathered in parallel, merged per group after.
  struct Measurement {
    layering::LayeringMetrics metrics;
    double seconds = 0.0;
  };
  std::vector<std::vector<Measurement>> measurements(
      corpus.graphs.size(), std::vector<Measurement>(algs.size()));

  support::parallel_for(
      static_cast<std::size_t>(opts.num_threads < 0 ? 0 : opts.num_threads),
      corpus.graphs.size(), [&](std::size_t graph_index) {
        const auto& g = corpus.graphs[graph_index];
        RunOptions run = opts.run;
        run.aco.num_threads = 1;  // graph-level parallelism instead
        // Per-graph seed keeps the graphs' streams independent.
        run.aco.seed = opts.run.aco.seed + graph_index;
        run.aco.record_trace = false;
        for (std::size_t a = 0; a < algs.size(); ++a) {
          const auto run_result = run_algorithm(algs[a], g, run);
          ACOLAY_CHECK_MSG(
              layering::is_valid_layering(g, run_result.layering),
              algorithm_label(algs[a]) << " produced an invalid layering");
          measurements[graph_index][a].metrics = layering::compute_metrics(
              g, run_result.layering, metric_opts);
          measurements[graph_index][a].seconds = run_result.seconds;
        }
      });

  for (std::size_t graph_index = 0; graph_index < corpus.graphs.size();
       ++graph_index) {
    const int group = corpus.group_of[graph_index];
    for (std::size_t a = 0; a < algs.size(); ++a) {
      const auto& m = measurements[graph_index][a];
      auto& cell = result.cells[static_cast<std::size_t>(group)][a];
      cell.width_incl.add(m.metrics.width_incl_dummies);
      cell.width_excl.add(m.metrics.width_excl_dummies);
      cell.height.add(static_cast<double>(m.metrics.height));
      cell.dummies.add(static_cast<double>(m.metrics.dummy_count));
      cell.edge_density.add(static_cast<double>(m.metrics.edge_density));
      cell.edge_density_norm.add(m.metrics.edge_density_norm);
      cell.runtime_ms.add(m.seconds * 1e3);
      cell.objective.add(m.metrics.objective);
    }
  }
  return result;
}

}  // namespace acolay::harness
