#include "core/incremental.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "support/thread_pool.hpp"
#include "support/timer.hpp"

namespace acolay::core {

IncrementalSolver::IncrementalSolver(graph::Digraph g, AcoParams params,
                                     IncrementalOptions options)
    : params_(params), options_(options) {
  ACOLAY_CHECK(options_.update_tours >= 0);
  ACOLAY_CHECK(options_.churn_threshold >= 0.0);
  SolveRequest request;
  request.graph = &g;
  request.params = params_;
  request.cycle_policy = options_.cycle_policy;
  AdmittedRequest admitted;
  std::string message;
  const AdmissionError error = admit(request, admitted, &message);
  ACOLAY_CHECK_MSG(error == AdmissionError::kNone,
                   "IncrementalSolver: " << admission_error_code(error)
                                         << ": " << message);
  // The session's evolving instance is the DAG admission produced.
  graph_ = admitted.reoriented ? std::move(*admitted.reoriented)
                               : std::move(g);
  initial_reversed_ = std::move(admitted.reversed_edges);
  csr_ = std::move(admitted.csr);
  fingerprint_ = csr_.fingerprint();
  if (params_.num_threads != 1) {
    pool_ = std::make_unique<support::ThreadPool>(
        params_.num_threads <= 0
            ? 0
            : static_cast<std::size_t>(params_.num_threads));
  }
  ws_.reserve(static_cast<std::size_t>(params_.num_ants),
              graph_.num_vertices(),
              static_cast<std::size_t>(num_layers()));
}

IncrementalSolver::~IncrementalSolver() = default;

int IncrementalSolver::num_layers() const {
  // The stretch modes' layer budget: |V| layers guarantee every layering
  // (all minimum-width ones included) stays inside the search space.
  return std::max(static_cast<int>(graph_.num_vertices()), 1);
}

const SolveOutcome& IncrementalSolver::solve() {
  // Cold full-budget run. run_colony leaves the final pheromone matrix in
  // ws_.tau, which is exactly the warm state update() builds on.
  outcome_.error = AdmissionError::kNone;
  outcome_.message.clear();
  outcome_.reversed_edges = initial_reversed_;
  outcome_.result = run_colony(graph_, csr_, params_, ws_, pool_.get());
  has_state_ = true;
  return outcome_;
}

void IncrementalSolver::adopt(const PheromoneMatrix& tau,
                              const layering::Layering& best) {
  ACOLAY_CHECK_MSG(best.num_vertices() == graph_.num_vertices(),
                   "adopt: layering covers " << best.num_vertices()
                                             << " vertices, graph has "
                                             << graph_.num_vertices());
  const std::size_t n = graph_.num_vertices();
  const int layers = num_layers();
  if (tau.num_vertices() == n && tau.num_layers() == layers) {
    ws_.tau = tau;
  } else {
    // Shape mismatch (different stretch mode, or no warm matrix at all):
    // start the trail uniform; the best layering still seeds the base.
    ws_.tau.reset(n, layers, params_.tau0);
  }
  outcome_.error = AdmissionError::kNone;
  outcome_.message.clear();
  outcome_.reversed_edges.clear();
  outcome_.result.layering = best;
  outcome_.result.trace.clear();
  outcome_.result.seconds = 0.0;
  const layering::MetricsOptions mopts{params_.dummy_width};
  outcome_.result.metrics =
      layering::compute_metrics(csr_, best, mopts, metrics_ws_,
                                /*compact=*/true);
  outcome_.result.initial_objective = outcome_.result.metrics.objective;
  has_state_ = true;
}

bool IncrementalSolver::topo_order_into(const graph::Digraph& g) {
  // In-place Kahn: order_ doubles as the FIFO work queue, so a DAG ends
  // with order_ holding a complete topological order (sources first) and
  // a cycle leaves it short. Deterministic: vertices enter in id order,
  // successors are decremented in adjacency order.
  const std::size_t n = g.num_vertices();
  order_.clear();
  indegree_.resize(n);
  for (graph::VertexId v = 0; static_cast<std::size_t>(v) < n; ++v) {
    const auto d = static_cast<std::int32_t>(g.in_degree(v));
    indegree_[static_cast<std::size_t>(v)] = d;
    if (d == 0) order_.push_back(v);
  }
  std::size_t head = 0;
  while (head < order_.size()) {
    const graph::VertexId v = order_[head++];
    for (const graph::VertexId w : g.successors(v)) {
      if (--indegree_[static_cast<std::size_t>(w)] == 0) order_.push_back(w);
    }
  }
  return order_.size() == n;
}

void IncrementalSolver::remap_pheromone(
    const graph::GraphDelta& delta, std::size_t n_old,
    std::span<const graph::Edge> reoriented) {
  const std::size_t n = graph_.num_vertices();
  const int layers = num_layers();

  // A coupling is stale when the delta changed its vertex's neighbourhood
  // or width; those rows restart from tau0 (new-id space flags).
  touched_.assign(n, 0);
  for (const graph::Edge& e : delta.add_edges) {
    touched_[static_cast<std::size_t>(e.source)] = 1;
    touched_[static_cast<std::size_t>(e.target)] = 1;
  }
  for (const graph::WidthChange& c : delta.set_widths) {
    touched_[static_cast<std::size_t>(c.vertex)] = 1;
  }
  for (const graph::Edge& e : delta.remove_edges) {
    const graph::VertexId s = remap_.map(e.source);
    if (s != graph::DeltaRemap::kRemoved) {
      touched_[static_cast<std::size_t>(s)] = 1;
    }
    const graph::VertexId t = remap_.map(e.target);
    if (t != graph::DeltaRemap::kRemoved) {
      touched_[static_cast<std::size_t>(t)] = 1;
    }
  }
  // Cycle-breaking reversals rewire neighbourhoods beyond the delta
  // itself; their endpoints are stale too (already new-id space).
  for (const graph::Edge& e : reoriented) {
    touched_[static_cast<std::size_t>(e.source)] = 1;
    touched_[static_cast<std::size_t>(e.target)] = 1;
  }

  // Surviving rows keep their runs over the layers both budgets share
  // (copy_cols); the layers a grown budget adds start at tau0.
  tau_scratch_.reset(n, layers, params_.tau0);
  if (ws_.tau.num_vertices() == n_old) {
    const int copy_cols = std::min(layers, ws_.tau.num_layers());
    for (graph::VertexId v = 0; static_cast<std::size_t>(v) < n_old; ++v) {
      const graph::VertexId nv = remap_.map(v);
      if (nv == graph::DeltaRemap::kRemoved) continue;
      if (touched_[static_cast<std::size_t>(nv)] != 0) continue;
      tau_scratch_.copy_row(nv, ws_.tau, v, copy_cols, params_.tau0);
    }
  }
  std::swap(ws_.tau, tau_scratch_);
}

void IncrementalSolver::repair_base(const graph::GraphDelta&) {
  // Seed every surviving vertex with its previous best layer, new
  // vertices with layer 1, then lift along the (already computed) reverse
  // Kahn order: layer(u) = max(floor(u), 1 + max over successors). This
  // is longest-path layering with per-vertex floors — valid by
  // construction, and the identity on a still-valid previous best.
  const std::size_t n = graph_.num_vertices();
  const layering::Layering& prev = outcome_.result.layering;
  base_.reset(n, 1);
  if (remap_.is_identity()) {
    const std::size_t keep = std::min(n, prev.num_vertices());
    for (graph::VertexId v = 0; static_cast<std::size_t>(v) < keep; ++v) {
      base_.set_layer(v, prev.layer(v));
    }
  } else {
    const std::size_t n_old = remap_.old_to_new.size();
    const std::size_t keep = std::min(n_old, prev.num_vertices());
    for (graph::VertexId v = 0; static_cast<std::size_t>(v) < keep; ++v) {
      const graph::VertexId nv = remap_.map(v);
      if (nv != graph::DeltaRemap::kRemoved) {
        base_.set_layer(nv, prev.layer(v));
      }
    }
  }

  const auto lift = [&] {
    int max_layer = 0;
    for (std::size_t i = order_.size(); i-- > 0;) {
      const graph::VertexId v = order_[i];
      int layer = base_.layer(v);
      for (const graph::VertexId w : graph_.successors(v)) {
        layer = std::max(layer, base_.layer(w) + 1);
      }
      base_.set_layer(v, layer);
      max_layer = std::max(max_layer, layer);
    }
    return max_layer;
  };

  if (lift() > num_layers()) {
    // The floors pushed the repair past the layer budget (possible after
    // vertex removals shrank |V| below the previous height): drop them
    // and take the pure longest-path layering, whose height is always
    // <= |V|.
    base_.reset(n, 1);
    lift();
  }
}

const SolveOutcome& IncrementalSolver::update(const graph::GraphDelta& delta) {
  support::Stopwatch stopwatch;
  if (!has_state_) {
    outcome_.error = AdmissionError::kBadRequest;
    outcome_.message = "update() requires prior state (solve() or adopt())";
    return outcome_;
  }

  // Transactional apply: mutate a scratch copy, commit only once the
  // delta is known to be well-formed and acyclic. The copy-assign reuses
  // scratch capacity, so the steady state allocates nothing.
  scratch_graph_ = graph_;
  std::string err = apply_delta(scratch_graph_, delta, &remap_);
  if (!err.empty()) {
    outcome_.error = AdmissionError::kBadRequest;
    outcome_.message = std::move(err);
    return outcome_;
  }
  outcome_.reversed_edges.clear();
  bool cycle_broken = false;
  if (!topo_order_into(scratch_graph_)) {
    if (options_.cycle_policy == CyclePolicy::kReject) {
      outcome_.error = AdmissionError::kCycle;
      outcome_.message = "delta introduces a cycle";
      return outcome_;
    }
    // Phase 0 on the post-delta graph, seeded like the update run below so
    // the session stays a pure function of (initial graph, params, deltas).
    CycleResolution phase0;
    // lint:allow-next-line(one-admission-path) -- the session was admitted
    // at construction; this breaks only the cycles a delta introduced
    resolve_cycles(scratch_graph_, options_.cycle_policy,
                   params_.seed + static_cast<std::uint64_t>(num_updates_) + 1,
                   phase0);
    scratch_graph_ = std::move(phase0.owned);
    outcome_.reversed_edges = std::move(phase0.reversed_edges);
    ACOLAY_CHECK(topo_order_into(scratch_graph_));
    cycle_broken = true;
  }
  const std::size_t n_old = graph_.num_vertices();
  std::swap(graph_, scratch_graph_);
  // The constructor's reversals describe the graph just replaced.
  initial_reversed_.clear();

  if (cycle_broken) {
    // The reversals rewrote edges beyond the delta, so the copy-with-patch
    // refreeze would mis-describe the mutation: take the full rebuild.
    csr_.rebuild(graph_);
    last_refreeze_ = graph::RefreezeKind::kFull;
  } else {
    last_refreeze_ = csr_.refreeze(graph_, delta, options_.churn_threshold);
  }
  remap_pheromone(delta, n_old, outcome_.reversed_edges);
  repair_base(delta);
  ws_.reserve(static_cast<std::size_t>(params_.num_ants),
              graph_.num_vertices(),
              static_cast<std::size_t>(num_layers()));

  // Shortened warm budget; kStop makes a converged re-solve exit after its
  // first quiet tour. The seed advances per update so successive re-solves
  // explore fresh streams while the whole sequence stays a pure function
  // of (initial graph, params, deltas).
  AcoParams run_params = params_;
  run_params.num_tours = options_.update_tours;
  run_params.stagnation = StagnationPolicy::kStop;
  run_params.stagnation_tours = 1;
  run_params.seed =
      params_.seed + static_cast<std::uint64_t>(num_updates_) + 1;

  run_tours(csr_, run_params, base_, num_layers(), ws_, pool_.get(),
            outcome_.result);
  // Monotone guard: the shortened budget starts the ants from the repaired
  // base but, per the paper's semantics, reports the best *walk* — which a
  // handful of tours may leave short of an already-good base. Never return
  // worse than the base we started from (whose objective run_tours reports
  // as the initial one). Ant 0's metrics scratch already evaluated base_
  // at the start of run_tours, so re-evaluating it there cannot allocate.
  if (outcome_.result.initial_objective > outcome_.result.metrics.objective) {
    outcome_.result.layering = base_;
    layering::normalize(outcome_.result.layering, ws_.normalize_scratch);
    outcome_.result.metrics = layering::compute_metrics(
        csr_, base_, layering::MetricsOptions{params_.dummy_width},
        ws_.ants[0].metrics, /*compact=*/true);
  }
  outcome_.result.seconds = stopwatch.elapsed_seconds();
  outcome_.error = AdmissionError::kNone;
  outcome_.message.clear();
  fingerprint_ = csr_.fingerprint();
  ++num_updates_;
  return outcome_;
}

}  // namespace acolay::core
