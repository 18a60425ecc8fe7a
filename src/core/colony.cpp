#include "core/colony.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/longest_path.hpp"
#include "core/request.hpp"
#include "core/stretch.hpp"
#include "graph/csr.hpp"
#include "support/check.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

namespace acolay::core {

void ColonyWorkspace::reserve(std::size_t num_ants, std::size_t num_vertices,
                              std::size_t num_layers) {
  if (ants.size() < num_ants) ants.resize(num_ants);
  if (walks.size() < num_ants) walks.resize(num_ants);
  tau.reserve(num_vertices, static_cast<int>(num_layers));
  for (auto& ant : ants) ant.reserve(num_vertices, num_layers);
}

AcoResult run_colony(const graph::Digraph& g, const graph::CsrView& csr,
                     const AcoParams& params, ColonyWorkspace& ws,
                     support::ThreadPool* ant_pool, PheromoneMatrix* tau_io) {
  support::Stopwatch stopwatch;
  AcoResult result;
  const auto n = g.num_vertices();
  if (n == 0) {
    result.layering = layering::Layering(0);
    return result;
  }

  // --- Initialisation phase (Alg. 3) -------------------------------------
  const auto lpl = baselines::longest_path_layering(g);
  auto stretched = stretch_layering(g, lpl, params.stretch);
  const int num_layers = std::max(stretched.num_layers, 1);

  // Warm start (serving layer): adopt the caller's matrix only when its
  // shape matches this run exactly — a stale snapshot from a differently
  // stretched (or different) graph falls back to the cold tau0 reset.
  const bool warm = tau_io != nullptr &&
                    tau_io->num_vertices() == n &&
                    tau_io->num_layers() == num_layers;
  if (warm) {
    ws.tau = *tau_io;
  } else {
    ws.tau.reset(n, num_layers, params.tau0);
  }

  run_tours(csr, params, stretched.layering, num_layers, ws, ant_pool,
            result);

  result.seconds = stopwatch.elapsed_seconds();
  if (tau_io != nullptr) *tau_io = ws.tau;
  return result;
}

void run_tours(const graph::CsrView& csr, const AcoParams& params,
               const layering::Layering& start, int num_layers,
               ColonyWorkspace& ws, support::ThreadPool* ant_pool,
               AcoResult& result) {
  const auto n = csr.num_vertices();
  result.trace.clear();
  const layering::MetricsOptions metric_opts{params.dummy_width};
  const auto num_ants = static_cast<std::size_t>(params.num_ants);
  // One workspace and result slot per ant, reused across all tours (and
  // across runs — buffers only ever grow): walks allocate only until every
  // buffer reaches its high-water size, so steady state is allocation-free.
  // Slot i is only ever touched by the task running ant i, so the slots
  // need no synchronisation, and keying by ant rather than by worker
  // thread keeps results independent of scheduling.
  if (ws.ants.size() < num_ants) ws.ants.resize(num_ants);
  if (ws.walks.size() < num_ants) ws.walks.resize(num_ants);

  // Global best across tours. Starts as the caller's start layering but is
  // replaced by the first tour's best walk: the paper reports the ants'
  // layering (whose emergent behaviour is trading height for width), not
  // max(start, walks) — see Fig. 6's "20 to 30% higher than LPL". The
  // compact evaluation is the copy-free equivalent of metrics over
  // normalized(start) (bit-identical; layering/metrics.hpp), and it is
  // also the reported initial objective.
  ws.best = start;
  layering::LayeringMetrics best_metrics = layering::compute_metrics(
      csr, ws.best, metric_opts, ws.ants[0].metrics, /*compact=*/true);
  result.initial_objective = best_metrics.objective;
  if (n == 0) {
    result.layering = layering::Layering(0);
    result.metrics = layering::LayeringMetrics{};
    return;
  }

  support::Rng root(params.seed);
  bool have_walk_result = false;
  double best_objective = 0.0;

  // Tour base (paper: "Every tour inherits the layering of its
  // predecessor").
  ws.tour_base = start;

  // --- Layering phase (Alg. 4) --------------------------------------------
  int stagnant_tours = 0;
  for (int tour = 1; tour <= params.num_tours; ++tour) {
    const auto walk_body = [&](std::size_t ant) {
      perform_walk(csr, ws.tour_base, num_layers, ws.tau, params,
                   root.fork(static_cast<std::uint64_t>(tour), ant),
                   ws.ants[ant], ws.walks[ant]);
    };
    if (ant_pool != nullptr) {
      support::parallel_for(*ant_pool, num_ants, walk_body);
    } else {
      for (std::size_t ant = 0; ant < num_ants; ++ant) walk_body(ant);
    }

    // Tour-best ant: max objective, ties to the lowest index (deterministic
    // reduction regardless of scheduling).
    std::size_t best_ant = 0;
    for (std::size_t ant = 1; ant < num_ants; ++ant) {
      if (ws.walks[ant].objective > ws.walks[best_ant].objective) {
        best_ant = ant;
      }
    }
    const WalkResult& tour_best = ws.walks[best_ant];

    if (params.record_trace) {
      TourStats stats;
      stats.tour = tour;
      stats.best_objective = tour_best.objective;
      double sum = 0.0;
      int moves = 0;
      for (std::size_t ant = 0; ant < num_ants; ++ant) {
        sum += ws.walks[ant].objective;
        moves += ws.walks[ant].moves;
      }
      stats.mean_objective = sum / static_cast<double>(num_ants);
      stats.best_width = tour_best.metrics.width_incl_dummies;
      stats.best_height = tour_best.metrics.height;
      stats.best_dummies = tour_best.metrics.dummy_count;
      stats.total_moves = moves;
      result.trace.push_back(stats);
    }

    // Evaporation + tour-best deposit (Alg. 4 lines 16–17) on every run of
    // every row (bit-identical to the discrete evaporate/deposit/clamp
    // sequence; infinite bounds disable clamping exactly).
    const double amount = params.deposit * tour_best.objective;
    const bool clamped =
        params.tau_min > 0.0 ||
        params.tau_max < std::numeric_limits<double>::infinity();
    ws.tau.update(params.rho, tour_best.layering.raw(), amount,
                  clamped ? params.tau_min
                          : -std::numeric_limits<double>::infinity(),
                  clamped ? params.tau_max
                          : std::numeric_limits<double>::infinity());

    // The tour-best layering (hence its width profile / heuristic state)
    // seeds the next tour (Alg. 4 line 18).
    ws.tour_base = tour_best.layering;

    if (!have_walk_result || tour_best.objective > best_objective) {
      have_walk_result = true;
      best_objective = tour_best.objective;
      ws.best = tour_best.layering;
      best_metrics = tour_best.metrics;
    }

    // Stagnation handling (acolay extension; kNone = paper behaviour).
    int tour_moves = 0;
    for (std::size_t ant = 0; ant < num_ants; ++ant) {
      tour_moves += ws.walks[ant].moves;
    }
    stagnant_tours = tour_moves == 0 ? stagnant_tours + 1 : 0;
    if (params.stagnation != StagnationPolicy::kNone &&
        stagnant_tours >= params.stagnation_tours) {
      if (params.stagnation == StagnationPolicy::kStop) break;
      // kResetPheromone: wipe the trail so the heuristic term re-explores.
      ws.tau.reset(n, num_layers, params.tau0);
      stagnant_tours = 0;
    }
  }

  result.layering = ws.best;
  layering::normalize(result.layering, ws.normalize_scratch);
  result.metrics = best_metrics;
}

AntColony::AntColony(const graph::Digraph& g, AcoParams params)
    : AntColony(g, params, CyclePolicy::kReject) {}

AntColony::AntColony(const graph::Digraph& g, AcoParams params,
                     CyclePolicy policy) {
  SolveRequest request;
  request.graph = &g;
  request.params = params;
  request.cycle_policy = policy;
  auto admitted = std::make_shared<AdmittedRequest>();
  std::string message;
  const AdmissionError error = admit(request, *admitted, &message);
  ACOLAY_CHECK_MSG(error == AdmissionError::kNone,
                   "AntColony: " << admission_error_code(error) << ": "
                                 << message);
  admitted_ = std::move(admitted);
}

AcoResult AntColony::run() const { return solve(*admitted_).result; }

const AcoParams& AntColony::params() const {
  return admitted_->request.params;
}

const std::vector<graph::Edge>& AntColony::reversed_edges() const {
  return admitted_->reversed_edges;
}

}  // namespace acolay::core
