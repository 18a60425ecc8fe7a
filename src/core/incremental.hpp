// Incremental re-layering (the dynamic-graph path, ROADMAP "incremental
// re-layering for dynamic graphs").
//
// Interactive editors and CI systems mutate a DAG edge-by-edge; a cold
// colony run throws away everything the previous solve learned. An
// IncrementalSolver owns one evolving graph and carries the colony's
// learned state across a graph::GraphDelta:
//
//   * the frozen CSR is re-frozen incrementally (CsrView::refreeze — a
//     copy-with-patch for small edge churn, full rebuild past a
//     threshold), keeping the fingerprint delta-composed;
//   * the pheromone matrix survives the delta: rows of untouched
//     surviving vertices are remapped/copied, and only couplings the
//     delta touched (endpoints of changed edges, width changes, new
//     vertices) are re-initialised to tau0;
//   * the tour base is the previous best layering repaired by a
//     longest-path pass (old layers as floors, lifted just enough to
//     restore validity), instead of a from-scratch LPL + stretch;
//   * the re-solve runs a shortened tour budget with
//     StagnationPolicy::kStop, so converged updates exit early.
//
// Every workspace (ColonyWorkspace, the repair/remap scratch, the result
// buffers) is reused across updates: the steady-state update() performs no
// heap allocation (pinned with ACOLAY_ASSERT_NO_ALLOC in
// tests/core_incremental_test.cpp for the serial path).
//
// Determinism: an update's result is a pure function of (initial graph,
// params, options, the delta sequence) — bit-identical across reruns and
// thread counts, via the same per-(tour, ant) RNG streams and index
// reduction as run_colony. Quality is pinned the house way: within the
// versioned tolerances below of a from-scratch solve over random edit
// scripts (tests + the relayer_latency bench suite).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/colony.hpp"
#include "core/params.hpp"
#include "core/pheromone.hpp"
#include "core/request.hpp"
#include "graph/csr.hpp"
#include "graph/delta.hpp"
#include "graph/digraph.hpp"
#include "layering/layering.hpp"
#include "layering/metrics.hpp"

namespace acolay::support {
class ThreadPool;
}  // namespace acolay::support

namespace acolay::core {

/// Tunables of the incremental re-solve path.
struct IncrementalOptions {
  /// Tour budget per update (the cold budget is AcoParams::num_tours).
  /// An update stops early after its first tour in which no ant moved a
  /// vertex (StagnationPolicy::kStop with one stagnant tour).
  int update_tours = 3;
  /// Edge churn fraction above which refreeze falls back to a full
  /// rebuild (forwarded to CsrView::refreeze).
  double churn_threshold = 0.25;
  /// What to do with cycles (Phase 0, see core::CyclePolicy): under
  /// kReject the constructor requires a DAG and a cycle-introducing delta
  /// is rejected transactionally with kCycle; the other policies admit a
  /// cyclic initial graph and break delta-introduced cycles by reversing
  /// a feedback arc set — the session's evolving graph is always the
  /// reoriented DAG (subsequent deltas reference its edge orientations),
  /// and each update's reversals land in SolveOutcome::reversed_edges.
  CyclePolicy cycle_policy = CyclePolicy::kReject;
};

/// Version of the incremental-quality tolerance contract below. Bump it
/// whenever either constant changes so downstream consumers (tests, the
/// relayer_latency suite, CI baselines) can tell which contract a number
/// was measured under.
inline constexpr int kIncrementalToleranceVersion = 1;

/// Per-update floor: an update's objective must be >= (1 - this) times
/// the objective of a from-scratch full-budget solve of the same graph.
/// Calibrated at version 1 over 4 x 200 random edit-script updates
/// (random_dag n in [12, 32), default EditScriptParams): the worst
/// observed step ratio was 0.667 and the monotone guard bounds every
/// update from below by its repaired warm base, so 0.55 holds with
/// margin.
inline constexpr double kIncrementalStepTolerance = 0.45;

/// Aggregate floor over a whole edit script: the mean update objective
/// must be >= (1 - this) times the mean from-scratch objective. Same
/// calibration as above: observed mean ratios were 0.973..0.993.
inline constexpr double kIncrementalMeanTolerance = 0.08;

/// A solver bound to one evolving graph: solve() (or adopt()) establishes
/// the learned state, then each update(delta) mutates the graph and
/// re-solves warm. See the file comment for the full mechanism.
class IncrementalSolver {
 public:
  /// Takes ownership of `g` (the evolving instance) and admits it through
  /// core::admit: the params ranges and — under CyclePolicy::kReject —
  /// acyclicity are checked (support::CheckError on violation, like
  /// AntColony's constructor); the other policies reorient a cyclic `g`
  /// here, Phase 0 style, and solve() reports the reversal. Per-delta
  /// problems are reported as structured outcomes instead.
  IncrementalSolver(graph::Digraph g, AcoParams params,
                    IncrementalOptions options = {});

  ~IncrementalSolver();
  IncrementalSolver(IncrementalSolver&&) = delete;
  IncrementalSolver& operator=(IncrementalSolver&&) = delete;

  /// The current (post-delta) graph.
  const graph::Digraph& graph() const { return graph_; }
  /// The validated search parameters (updates override the tour budget
  /// and stagnation policy per IncrementalOptions).
  const AcoParams& params() const { return params_; }
  /// The incremental tunables.
  const IncrementalOptions& options() const { return options_; }
  /// Canonical fingerprint of the current graph (CsrView::fingerprint,
  /// delta-composed across updates) — the serving layer's session key.
  std::uint64_t fingerprint() const { return fingerprint_; }
  /// Number of successful update() calls so far.
  int num_updates() const { return num_updates_; }
  /// Which CSR path the last successful update took.
  graph::RefreezeKind last_refreeze() const { return last_refreeze_; }
  /// Whether solve()/adopt() has established state for update() to build
  /// on.
  bool has_state() const { return has_state_; }

  /// Cold full-budget solve of the current graph, retaining the final
  /// pheromone matrix and best layering as the warm state for subsequent
  /// updates. Until the first update() commits, its reversed_edges are
  /// the ones the constructor's Phase 0 reversed (graph() is the
  /// reoriented instance); after that they are empty, since an update
  /// replaces the graph those reversals described. Returns a borrowed
  /// outcome, valid until the next call.
  const SolveOutcome& solve();

  /// Adopts externally-computed warm state instead of solve(): `tau` is
  /// taken when its shape matches this graph exactly (otherwise the state
  /// starts from the uniform tau0 matrix), `best` must be a valid
  /// layering of the current graph. This is how the serving layer turns a
  /// finished warm solve into an incremental session without re-running
  /// it.
  void adopt(const PheromoneMatrix& tau, const layering::Layering& best);

  /// Applies `delta` and re-solves warm. On a structurally invalid delta
  /// (kBadRequest) or — under CyclePolicy::kReject — one that introduces
  /// a cycle (kCycle) the solver state, graph included, is untouched.
  /// Under the other policies a cycle-introducing delta is admitted: the
  /// post-delta graph gets a feedback arc set reversed (seeded like the
  /// update run itself, so the whole sequence stays a pure function of
  /// (initial graph, params, options, deltas)), the reversal is reported
  /// in the outcome's reversed_edges, and the session's graph becomes the
  /// reoriented DAG. Requires prior state (solve()/adopt()); returns
  /// kBadRequest otherwise. The returned outcome is borrowed and valid
  /// until the next call; its result holds `initial_objective` = the
  /// repaired warm base's objective, so callers can report the warm head
  /// start.
  const SolveOutcome& update(const graph::GraphDelta& delta);

 private:
  /// Layer budget of the incremental search space (= |V|, matching the
  /// stretch modes' budget; 1 for the empty graph).
  int num_layers() const;
  /// Kahn order of `g` into order_ (sources first). False on a cycle.
  bool topo_order_into(const graph::Digraph& g);
  /// Remaps ws_.tau across the delta (see the file comment), using
  /// `n_old` pre-delta rows. `reoriented` lists extra edges (new-id
  /// space) whose endpoints' neighbourhoods changed beyond the delta —
  /// the Phase 0 reversals of a cycle-breaking update.
  void remap_pheromone(const graph::GraphDelta& delta, std::size_t n_old,
                       std::span<const graph::Edge> reoriented);
  /// Builds the repaired warm base into base_ from the previous best.
  void repair_base(const graph::GraphDelta& delta);

  graph::Digraph graph_;
  AcoParams params_;
  IncrementalOptions options_;
  graph::CsrView csr_;
  ColonyWorkspace ws_;
  std::unique_ptr<support::ThreadPool> pool_;  // null when num_threads == 1
  SolveOutcome outcome_;  // persistent: result buffers reused across calls
  std::uint64_t fingerprint_ = 0;
  int num_updates_ = 0;
  bool has_state_ = false;
  graph::RefreezeKind last_refreeze_ = graph::RefreezeKind::kFull;
  /// Constructor-time Phase 0 reversal, reported by solve() until the
  /// first update() commits.
  std::vector<graph::Edge> initial_reversed_;

  // Update scratch, persisted for allocation-free steady state.
  graph::Digraph scratch_graph_;
  graph::DeltaRemap remap_;
  layering::Layering base_;
  layering::MetricsWorkspace metrics_ws_;
  PheromoneMatrix tau_scratch_;
  std::vector<graph::VertexId> order_;      // Kahn order (doubles as queue)
  std::vector<std::int32_t> indegree_;      // Kahn scratch
  std::vector<std::uint8_t> touched_;       // per-new-vertex touched flag
};

}  // namespace acolay::core
