#include "replay.hpp"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "baselines/longest_path.hpp"
#include "core/ant.hpp"
#include "core/stretch.hpp"
#include "graph/csr.hpp"
#include "layering/metrics.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace ac = acolay::core;
namespace al = acolay::layering;

ReplayOutcome replay_colony(const acolay::graph::Digraph& g,
                            const ac::AcoParams& params,
                            ac::ColonyWorkspace& ws,
                            SpanRecorder& recorder, std::int32_t parent,
                            std::uint64_t request) {
  const auto timed = [&](const char* name, auto&& body) {
    const std::int32_t id = recorder.open(name, parent, request);
    body();
    recorder.close(id);
  };
  ReplayOutcome out;
  const std::size_t n = g.num_vertices();

  // --- initialisation (run_validated_colony + run_colony) -----------------
  acolay::graph::CsrView csr;
  timed("graph.csr.freeze", [&] { csr.rebuild(g); });
  al::Layering lpl;
  timed("baselines.longest_path",
        [&] { lpl = acolay::baselines::longest_path_layering(g); });
  ac::StretchResult stretched;
  timed("core.stretch",
        [&] { stretched = ac::stretch_layering(g, lpl, params.stretch); });
  const int num_layers = std::max(stretched.num_layers, 1);
  out.num_layers = static_cast<std::size_t>(num_layers);
  const al::MetricsOptions metric_opts{params.dummy_width};
  timed("core.colony.init_objective", [&] {
    out.initial_objective = al::layering_objective(
        g, al::normalized(stretched.layering), metric_opts);
  });
  timed("core.pheromone.reset",
        [&] { ws.tau.reset(n, num_layers, params.tau0); });

  // --- layering phase (run_tours) ------------------------------------------
  const acolay::support::Rng root(params.seed);
  const auto num_ants = static_cast<std::size_t>(params.num_ants);
  if (ws.ants.size() < num_ants) ws.ants.resize(num_ants);
  if (ws.walks.size() < num_ants) ws.walks.resize(num_ants);
  ws.best = stretched.layering;
  al::LayeringMetrics best_metrics = al::compute_metrics(
      csr, ws.best, metric_opts, ws.ants[0].metrics, /*compact=*/true);
  bool have_walk_result = false;
  double best_objective = 0.0;
  ws.tour_base = stretched.layering;

  std::vector<std::pair<double, double>> walk_times(num_ants);
  int stagnant_tours = 0;
  for (int tour = 1; tour <= params.num_tours; ++tour) {
    const std::int32_t tour_span =
        recorder.open("core.colony.tour", parent, request);
    const auto walk_body = [&](std::size_t ant) {
      const double start = recorder.now();
      ac::perform_walk(csr, ws.tour_base, num_layers, ws.tau, params,
                       root.fork(static_cast<std::uint64_t>(tour), ant),
                       ws.ants[ant], ws.walks[ant]);
      walk_times[ant] = {start, recorder.now()};
    };
    for (std::size_t ant = 0; ant < num_ants; ++ant) walk_body(ant);
    for (const auto& [start, end] : walk_times) {
      recorder.add("core.ant.walk", tour_span, request, start, end);
    }

    const std::int32_t reduce_span =
        recorder.open("core.colony.reduce", tour_span, request);
    std::size_t best_ant = 0;
    int tour_moves = 0;
    for (std::size_t ant = 0; ant < num_ants; ++ant) {
      if (ws.walks[ant].objective > ws.walks[best_ant].objective) {
        best_ant = ant;
      }
      tour_moves += ws.walks[ant].moves;
    }
    recorder.close(reduce_span);
    out.moves += tour_moves;
    out.walks += static_cast<std::int64_t>(num_ants);
    const ac::WalkResult& tour_best = ws.walks[best_ant];

    const std::int32_t update_span =
        recorder.open("core.pheromone.update", tour_span, request);
    const bool clamped =
        params.tau_min > 0.0 ||
        params.tau_max < std::numeric_limits<double>::infinity();
    ws.tau.update(params.rho, tour_best.layering.raw(),
                  params.deposit * tour_best.objective,
                  clamped ? params.tau_min
                          : -std::numeric_limits<double>::infinity(),
                  clamped ? params.tau_max
                          : std::numeric_limits<double>::infinity(),
                  nullptr);
    recorder.close(update_span);

    ws.tour_base = tour_best.layering;
    if (!have_walk_result || tour_best.objective > best_objective) {
      have_walk_result = true;
      best_objective = tour_best.objective;
      ws.best = tour_best.layering;
      best_metrics = tour_best.metrics;
    }
    recorder.close(tour_span);

    stagnant_tours = tour_moves == 0 ? stagnant_tours + 1 : 0;
    if (params.stagnation != ac::StagnationPolicy::kNone &&
        stagnant_tours >= params.stagnation_tours) {
      if (params.stagnation == ac::StagnationPolicy::kStop) break;
      ws.tau.reset(n, num_layers, params.tau0);
      stagnant_tours = 0;
    }
  }

  out.layering = ws.best;
  al::normalize(out.layering, ws.normalize_scratch);
  out.objective = best_metrics.objective;
  return out;
}

}  // namespace perfbench
