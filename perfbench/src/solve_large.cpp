// solve_large: core::solve with the paper's default parameters and serial
// ants on deep and wide DAGs of 256..4096 vertices, where the n x n
// pheromone matrix, the walks and the updates dominate.
#include <algorithm>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/request.hpp"
#include "inputs.hpp"
#include "layering/layering.hpp"
#include "layering/metrics.hpp"
#include "replay.hpp"

namespace perfbench {

namespace ac = acolay::core;
namespace al = acolay::layering;

namespace {

constexpr int kSetupRepeats = 5;
/// Per-solve latency limit behind within_limit_ratio.
constexpr double kLimitMs = 10000.0;

ac::AcoParams solve_params() {
  ac::AcoParams params;  // the paper's production configuration
  // Serial ants: with an ant pool every tour waits for its slowest worker
  // to be woken and scheduled, and on a shared host that wait, not the
  // colony, set the median solve time (it doubled under three competing
  // busy loops on 4 cores, where the serial solve moved by 1 %).
  params.num_threads = 1;
  return params;
}

ac::SolveOutcome timed_solve(const acolay::graph::Digraph& g,
                             const ac::AcoParams& params, double& ms) {
  ac::SolveRequest request;
  request.graph = &g;
  request.params = params;
  const auto start = Clock::now();
  ac::SolveOutcome outcome = ac::solve(request);
  ms = seconds_since(start) * 1e3;
  return outcome;
}

// Checks one outcome: admitted, a valid layering of `g`, and an objective
// that recomputes exactly from that layering.
bool check_outcome(const LabeledGraph& input, const ac::SolveOutcome& outcome,
                   const ac::AcoParams& params, Result& result) {
  if (!outcome.ok()) {
    result.mismatch(input.label + ": solve rejected: " + outcome.message);
    return false;
  }
  const al::Layering& layering = outcome.result.layering;
  if (!al::is_valid_layering(input.graph, layering)) {
    result.mismatch(input.label + ": invalid layering");
    return false;
  }
  const double recomputed =
      al::compute_metrics(input.graph, layering, {params.dummy_width})
          .objective;
  if (recomputed != outcome.result.metrics.objective) {
    result.mismatch(input.label + ": objective does not recompute");
    return false;
  }
  return true;
}

Result run_traced(const Options& options,
                  const std::vector<LabeledGraph>& graphs,
                  const ac::AcoParams& params) {
  Result result;
  SpanRecorder recorder;
  ac::ColonyWorkspace ws;
  double untraced_ms = 0.0;
  double traced_ms = 0.0;
  double solve_ms_sum = 0.0;
  std::int64_t moves = 0;
  std::int64_t walks = 0;
  double visits = 0.0;
  double max_matrix_bytes = 0.0;
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const LabeledGraph& input = graphs[i];
    ++result.attempted;
    double ms = 0.0;
    const ac::SolveOutcome outcome = timed_solve(input.graph, params, ms);
    untraced_ms += ms;
    solve_ms_sum += ms;
    if (!check_outcome(input, outcome, params, result)) continue;

    const auto start = Clock::now();
    const std::int32_t root = recorder.open("core.colony.solve", -1, i);
    const ReplayOutcome replay =
        replay_colony(input.graph, params, ws, recorder, root, i);
    recorder.close(root);
    traced_ms += seconds_since(start) * 1e3;

    if (replay.layering.raw() != outcome.result.layering.raw() ||
        replay.objective != outcome.result.metrics.objective ||
        replay.initial_objective != outcome.result.initial_objective) {
      result.mismatch(input.label + ": traced replay differs from core::solve");
    }
    moves += replay.moves;
    walks += replay.walks;
    visits += static_cast<double>(replay.walks) *
              static_cast<double>(input.graph.num_vertices());
    max_matrix_bytes = std::max(
        max_matrix_bytes, static_cast<double>(input.graph.num_vertices()) *
                              static_cast<double>(replay.num_layers) * 8.0);
  }

  const double solves = static_cast<double>(graphs.size());
  const auto per_solve = [&](const char* span) {
    return recorder.self_ms(span) / solves;
  };
  result.add("core.colony.solve_ms", solve_ms_sum / solves, "ms");
  result.add("baselines.longest_path.ms", per_solve("baselines.longest_path"),
             "ms");
  result.add("core.stretch.ms", per_solve("core.stretch"), "ms");
  result.add("core.colony.init_objective_ms",
             per_solve("core.colony.init_objective"), "ms");
  result.add("graph.csr.freeze_ms", per_solve("graph.csr.freeze"), "ms");
  result.add("core.ant.walk_ms", per_solve("core.ant.walk"), "ms");
  result.add("core.ant.walk_ms_p50",
             quantile(recorder.durations_ms("core.ant.walk"), 0.5), "ms");
  result.add("core.ant.walks", static_cast<double>(walks) / solves, "count");
  result.add("core.ant.moves_per_visit",
             visits > 0 ? static_cast<double>(moves) / visits : 0.0, "ratio");
  result.add("core.pheromone.reset_ms", per_solve("core.pheromone.reset"),
             "ms");
  result.add("core.pheromone.update_ms", per_solve("core.pheromone.update"),
             "ms");
  result.add("core.pheromone.bytes", max_matrix_bytes, "B");
  result.add("tracing.overhead_ratio",
             untraced_ms > 0 ? traced_ms / untraced_ms : 0.0, "ratio");
  result.notes.push_back(
      "core.pheromone.bytes is computed as n x L x 8 for the largest graph, "
      "not measured");
  result.notes.push_back(
      "per-layer ms are self time per solve, averaged over " +
      std::to_string(graphs.size()) + " solves");
  const std::string path = options.trace_dir + "/solve_large-" +
                           std::to_string(options.seed) + ".jsonl";
  if (!options.trace_dir.empty() && recorder.write_jsonl(path)) {
    result.notes.push_back("spans written to " + path);
  }
  return result;
}

}  // namespace

Result run_solve_large(const Options& options) {
  const std::vector<LabeledGraph> graphs = make_solve_graphs(options.seed);
  const ac::AcoParams params = solve_params();
  if (options.trace) {
    Result result = run_traced(options, graphs, params);
    complete_layer_metrics(result);
    return result;
  }

  Result result;
  // Set-up: a warm-up solve of each deep 1024-vertex graph (several graphs,
  // so the seed moves it little), repeated; the median is reported.
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    double warm_up_ms = 0.0;
    for (const LabeledGraph& g : graphs) {
      if (g.graph.num_vertices() != 1024 || !g.label.starts_with("deep")) {
        continue;
      }
      double ms = 0.0;
      timed_solve(g.graph, params, ms);
      warm_up_ms += ms;
    }
    setup_s.push_back(warm_up_ms / 1e3);
  }

  // Whole passes over every graph until the time is up, so each run
  // measures the same mix of sizes and families.
  std::vector<double> latency_ms;
  std::vector<std::vector<double>> graph_ms(graphs.size());
  std::vector<double> first_objective(graphs.size(), 0.0);
  std::size_t within_limit = 0;
  double busy_s = 0.0;
  for (int pass = 0; pass == 0 || busy_s < options.seconds; ++pass) {
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      ++result.attempted;
      double ms = 0.0;
      const ac::SolveOutcome outcome = timed_solve(graphs[i].graph, params, ms);
      busy_s += ms / 1e3;
      latency_ms.push_back(ms);
      graph_ms[i].push_back(ms);
      if (!check_outcome(graphs[i], outcome, params, result)) continue;
      const double objective = outcome.result.metrics.objective;
      if (pass == 0) {
        first_objective[i] = objective;
      } else if (objective != first_objective[i]) {
        result.mismatch(graphs[i].label + ": repeated solve differs");
        continue;
      }
      if (ms <= kLimitMs) ++within_limit;
    }
  }

  // Throughput and the latency percentiles are over each graph's median
  // solve time, so one slow solve (a page-fault burst on a 134 MB matrix,
  // a stall on a shared host) moves them no more than any other graph's
  // typical time would. Throughput is one pass at those medians.
  std::vector<double> per_graph_ms;
  double pass_ms = 0.0;
  for (const std::vector<double>& samples : graph_ms) {
    per_graph_ms.push_back(quantile(samples, 0.5));
    pass_ms += per_graph_ms.back();
  }
  const double attempted = static_cast<double>(result.attempted);
  result.add("throughput_ops_s",
             static_cast<double>(graphs.size()) / (pass_ms / 1e3), "ops/s");
  result.add("latency_p50_ms", quantile(per_graph_ms, 0.5), "ms");
  result.add("latency_p99_ms", quantile(per_graph_ms, 0.99), "ms");
  result.add("within_limit_ratio", static_cast<double>(within_limit) / attempted,
             "ratio");
  result.add("objective_mean", mean(first_objective), "f");
  result.add("peak_rss_mb", peak_rss_mb_self(), "MB");
  result.add("setup_s", quantile(setup_s, 0.5), "s");
  result.notes.push_back(describe_latency("solve_large", latency_ms));
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    result.notes.push_back(
        "  " + graphs[i].label + " (" +
        std::to_string(graphs[i].graph.num_vertices()) + " vertices, " +
        std::to_string(graphs[i].graph.num_edges()) + " edges): p50 " +
        std::to_string(quantile(graph_ms[i], 0.5)) + " ms");
  }
  return result;
}

}  // namespace perfbench
