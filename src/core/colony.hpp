// The AntColony (paper §V, §VI): orchestrates the search.
//
//   initialisation (Alg. 3): LPL layering -> stretch to n layers ->
//     uniform pheromone tau0;
//   layering phase (Alg. 4): num_tours tours; each tour runs every ant's
//     walk from the tour-base layering, then evaporates the pheromone,
//     lets the tour-best ant deposit on its couplings, and promotes the
//     tour-best layering (and thereby its width profile / heuristic state)
//     to tour base;
//   the returned layering is the best seen across all tours, compacted
//     (empty layers removed, paper §VI note).
//
// Ants within a tour are independent given the shared read-only pheromone
// matrix, so they run on a thread pool; every (tour, ant) pair owns a
// forked RNG stream and the reduction is by objective with index
// tie-breaking, making the result bit-identical for any thread count.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "core/ant.hpp"
#include "core/params.hpp"
#include "core/pheromone.hpp"
#include "graph/csr.hpp"
#include "graph/digraph.hpp"
#include "layering/layering.hpp"
#include "layering/metrics.hpp"

namespace acolay::support {
class ThreadPool;
}  // namespace acolay::support

namespace acolay::core {

/// Per-tour statistics (recorded when AcoParams::record_trace).
struct TourStats {
  int tour = 0;                 ///< 1-based tour number
  double best_objective = 0.0;  ///< best f in this tour
  double mean_objective = 0.0;  ///< mean f over the colony
  double best_width = 0.0;      ///< width (incl. dummies) of tour best
  int best_height = 0;          ///< height of the tour-best layering
  std::int64_t best_dummies = 0;  ///< dummy count of the tour-best layering
  int total_moves = 0;          ///< vertex moves across all ants
};

/// Everything a colony run produces.
struct AcoResult {
  /// Best layering found, normalized (layers 1..h, no empty layers).
  layering::Layering layering;
  /// Metrics of `layering` (dummy_width per the params).
  layering::LayeringMetrics metrics;
  /// Per-tour trace (empty when record_trace is false).
  std::vector<TourStats> trace;
  /// Wall-clock spent in run().
  double seconds = 0.0;
  /// Objective of the starting (stretched LPL) layering, for
  /// improvement-over-baseline reporting.
  double initial_objective = 0.0;
};

/// A whole colony's reusable working set: one WalkWorkspace per ant slot,
/// the per-ant walk results the tour reduction reads, and the pheromone
/// matrix — everything run_colony resets in place, so a workspace reused
/// across runs (BatchSolver's per-worker pools, an IncrementalSolver
/// session) allocates only until each buffer reaches its high-water size.
struct ColonyWorkspace {
  std::vector<WalkWorkspace> ants;  ///< one walk workspace per ant slot
  std::vector<WalkResult> walks;    ///< per-ant results of the current tour
  PheromoneMatrix tau;              ///< the shared pheromone matrix
  layering::Layering tour_base;     ///< run_tours' tour-base scratch
  layering::Layering best;          ///< run_tours' global-best scratch
  std::vector<int> normalize_scratch;  ///< finalize-normalize scratch

  /// Pre-grows every buffer for colonies of up to `num_ants` ants over
  /// graphs of up to `num_vertices` vertices and `num_layers` layers
  /// (BatchSolver sizes worker workspaces to the largest admitted graph;
  /// the stretched layer count never exceeds the vertex count). Monotonic
  /// and idempotent; never shrinks.
  void reserve(std::size_t num_ants, std::size_t num_vertices,
               std::size_t num_layers);
};

/// The colony engine behind core::solve (hence AntColony::run()),
/// BatchSolver and IncrementalSolver: runs the full search (paper
/// runColony()) over a frozen CSR snapshot of `g`, with all reusable state
/// in `ws`. Initialisation (longest-path layering and stretch) reads `g`;
/// every tour reads only `csr`. When `ant_pool` is non-null the ants of a
/// tour are distributed over it; null runs them serially on the calling
/// thread — bit-identical either way (per-(tour, ant) RNG streams, index
/// reduction), which is what lets BatchSolver run whole colonies as
/// single-threaded pool tasks.
///
/// Preconditions (established by core::admit): `g` is a DAG, `csr` is a
/// snapshot of `g`, and `params` passes validate_request.
///
/// `tau_io` is the warm-pheromone hook for the serving layer: when
/// non-null and already sized exactly (n, stretched layer count), the run
/// starts from that matrix instead of the uniform tau0 reset, and on
/// return `*tau_io` receives the final matrix either way (sized to this
/// graph). The result is still a pure function of (graph, params, tau-in)
/// — but a caller chaining runs through one matrix makes each result
/// depend on the chain order, which is why warm reuse is explicitly
/// outside the bit-identity serving contract (docs/SERVING.md). Null (the
/// default everywhere but the server's warm path) changes nothing.
AcoResult run_colony(const graph::Digraph& g, const graph::CsrView& csr,
                     const AcoParams& params, ColonyWorkspace& ws,
                     support::ThreadPool* ant_pool,
                     PheromoneMatrix* tau_io = nullptr);

/// The layering phase (Alg. 4) alone: runs `params.num_tours` tours from
/// the `start` layering against whatever pheromone matrix `ws.tau`
/// currently holds, and writes the best layering/metrics/trace and the
/// start layering's objective (`initial_objective`) into `result` in place
/// (buffers reused; `seconds` is left untouched). This is run_colony minus
/// the initialisation phase — run_colony delegates here, and the
/// incremental solve path (core::IncrementalSolver) calls it directly with
/// a remapped warm matrix and a repaired start layering, so both paths
/// share one tour loop and stay bit-identical by construction.
///
/// Preconditions: `start` is a valid layering of the graph `csr` snapshots,
/// within [1, num_layers]; `ws.tau` is sized exactly
/// (csr.num_vertices(), num_layers); and `params` passes
/// validate_request. Allocation-free once `ws` and `result` have reached
/// their high-water sizes.
void run_tours(const graph::CsrView& csr, const AcoParams& params,
               const layering::Layering& start, int num_layers,
               ColonyWorkspace& ws, support::ThreadPool* ant_pool,
               AcoResult& result);

struct AdmittedRequest;  // core/request.hpp

/// The paper's colony, bound to one graph: a facade over core::admit and
/// core::solve. The constructor admits (validation, Phase 0, CSR freeze),
/// throwing support::CheckError where admit would return an
/// AdmissionError code; run() only runs the colony. Copies share the
/// immutable admitted request, so they stay valid after the source is
/// gone. The caller's graph is borrowed: it must outlive every copy and
/// stay unchanged.
class AntColony {
 public:
  /// Requires a DAG (CyclePolicy::kReject).
  AntColony(const graph::Digraph& g, AcoParams params);

  /// Admits any digraph per `policy`: kReject requires a DAG; the other
  /// policies run Phase 0 (graph/cycle_removal.hpp) once at construction,
  /// reverse a feedback arc set, and run every run() on the reoriented
  /// DAG. The reversal is reported by reversed_edges().
  AntColony(const graph::Digraph& g, AcoParams params, CyclePolicy policy);

  /// Runs the full search (paper runColony()): the result of core::solve
  /// on this colony's graph, params and cycle policy.
  AcoResult run() const;

  /// The validated parameters this colony runs with.
  const AcoParams& params() const;

  /// The edges Phase 0 reversed at construction, original orientation
  /// (empty for DAG inputs and under CyclePolicy::kReject).
  const std::vector<graph::Edge>& reversed_edges() const;

 private:
  std::shared_ptr<const AdmittedRequest> admitted_;
};

}  // namespace acolay::core
