// Per-component microbenchmarks as an acolay_bench suite: the baseline
// layering algorithms, the ACO inner-loop primitives (a full ant walk on
// warm buffers), and the colony end to end — the per-component
// cost behind the paper's Figure 8/9 running-time curves.
//
// Replaces the old google-benchmark binary (micro_components) with the
// harness's own repetition policy, so the numbers land in the same JSON
// report as every other suite (kind = "timing": tracked, never gated).
#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "baselines/longest_path.hpp"
#include "baselines/min_width.hpp"
#include "baselines/network_simplex.hpp"
#include "baselines/promote.hpp"
#include "core/ant.hpp"
#include "core/colony.hpp"
#include "core/stretch.hpp"
#include "gen/random_dag.hpp"
#include "layering/metrics.hpp"
#include "suites/suites.hpp"
#include "support/timer.hpp"

namespace acolay::bench {
namespace {

graph::Digraph micro_graph(std::size_t n) {
  support::Rng rng(n * 2654435761u + 1);
  gen::GnmParams params;
  params.num_vertices = n;
  params.num_edges = static_cast<std::size_t>(1.3 * static_cast<double>(n));
  return gen::random_dag(params, rng);
}

struct Component {
  std::string name;
  std::size_t iterations;
  std::function<void()> op;
};

}  // namespace

harness::Suite micro_suite() {
  harness::Suite suite;
  suite.name = "micro";
  suite.description =
      "per-component microbenchmarks (n=128 G(n,m) DAG) + steady-state "
      "walk throughput across size buckets";
  suite.run = [](const harness::SuiteContext& ctx,
                 harness::SuiteOutput& output) {
    // Iteration counts scale with the corpus size so ci-small stays fast.
    const std::size_t scale =
        ctx.config.corpus == harness::CorpusSize::kCiSmall ? 1
        : ctx.config.corpus == harness::CorpusSize::kSmall ? 4
                                                           : 16;
    const auto g = micro_graph(128);
    const auto lpl = baselines::longest_path_layering(g);
    const core::AcoParams params = ctx.config.aco;
    const auto stretched = core::stretch_layering(g, lpl, params.stretch);
    const int num_layers = std::max(stretched.num_layers, 1);
    const core::PheromoneMatrix tau(g.num_vertices(), num_layers,
                                    params.tau0);

    std::vector<Component> components;
    components.push_back({"longest_path", 200 * scale,
                          [&] { baselines::longest_path_layering(g); }});
    components.push_back({"min_width", 20 * scale,
                          [&] { baselines::min_width_layering(g); }});
    components.push_back({"promote", 50 * scale, [&] {
                            auto l = lpl;
                            baselines::promote_layering(g, l);
                          }});
    components.push_back({"network_simplex", 20 * scale, [&] {
                            baselines::network_simplex_layering(g);
                          }});
    components.push_back({"metrics_bundle", 200 * scale,
                          [&] { layering::compute_metrics(g, lpl); }});
    // The walk the colony runs, with the CSR snapshot and all buffers
    // amortised across iterations (zero allocation after the first walk).
    std::uint64_t walk_seed = 0;
    const graph::CsrView csr(g);
    core::WalkWorkspace walk_ws;
    core::WalkResult walk_result;
    components.push_back(
        {"ant_walk_steady", 50 * scale, [&] {
           core::perform_walk(csr, stretched.layering, num_layers, tau,
                              params, support::Rng(++walk_seed), walk_ws,
                              walk_result);
         }});
    components.push_back({"colony_end_to_end", 2 * scale, [&] {
                            core::AcoParams p = params;
                            p.num_threads = 1;
                            p.record_trace = false;
                            core::AntColony colony(g, p);
                            colony.run();
                          }});

    auto& series = output.add_series("us_per_op", "component",
                                     harness::SeriesKind::kTiming);
    harness::SeriesColumn column{"value", {}, {}};
    for (const auto& component : components) {
      component.op();  // warm caches before timing
      support::Stopwatch stopwatch;
      for (std::size_t i = 0; i < component.iterations; ++i) component.op();
      series.x.push_back(component.name);
      column.mean.push_back(stopwatch.elapsed_us() /
                            static_cast<double>(component.iterations));
      column.stddev.push_back(0.0);
    }
    series.columns.push_back(std::move(column));

    // Walk throughput (ants·vertices per second) across graph-size
    // buckets, through the steady-state zero-allocation hot path — the
    // headline number for the CSR/workspace overhaul. Each bucket reuses
    // one workspace across all iterations, exactly like a colony tour
    // sequence; pair with --repetitions/--warmup for a stable profile
    // (e.g. acolay_bench --suite micro --repetitions 5 --warmup 1).
    auto& throughput = output.add_series("walk_throughput", "vertices",
                                         harness::SeriesKind::kTiming);
    harness::SeriesColumn walks_column{"ant_vertices_per_sec", {}, {}};
    for (const std::size_t bucket : {std::size_t{32}, std::size_t{128},
                                     std::size_t{512}}) {
      const auto bucket_graph = micro_graph(bucket);
      const auto bucket_lpl = baselines::longest_path_layering(bucket_graph);
      const auto bucket_stretched =
          core::stretch_layering(bucket_graph, bucket_lpl, params.stretch);
      const int bucket_layers = std::max(bucket_stretched.num_layers, 1);
      const core::PheromoneMatrix bucket_tau(bucket_graph.num_vertices(),
                                             bucket_layers, params.tau0);
      const graph::CsrView bucket_csr(bucket_graph);
      core::WalkWorkspace ws;
      core::WalkResult result;
      const std::size_t iterations =
          std::max<std::size_t>(8, 25 * scale * 128 / bucket);
      std::uint64_t seed = 0;
      // One warm-up walk brings every buffer to its high-water size.
      core::perform_walk(bucket_csr, bucket_stretched.layering,
                         bucket_layers, bucket_tau, params,
                         support::Rng(++seed), ws, result);
      support::Stopwatch stopwatch;
      for (std::size_t i = 0; i < iterations; ++i) {
        core::perform_walk(bucket_csr, bucket_stretched.layering,
                           bucket_layers, bucket_tau, params,
                           support::Rng(++seed), ws, result);
      }
      const double seconds = stopwatch.elapsed_us() / 1e6;
      throughput.x.push_back(std::to_string(bucket));
      walks_column.mean.push_back(
          static_cast<double>(iterations * bucket) / seconds);
      walks_column.stddev.push_back(0.0);
    }
    throughput.columns.push_back(std::move(walks_column));
  };
  return suite;
}

}  // namespace acolay::bench
