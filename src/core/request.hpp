// The unified request/response surface of the solver (PR 7 API redesign).
//
// Every entry point into the colony engine — the one-shot solve() below
// (and the AntColony facade over it), BatchSolver::submit, and the serving
// layer's wire protocol — consumes one core::SolveRequest and reports
// admission failures as structured AdmissionError codes in a
// core::SolveOutcome, instead of the three call sites each throwing bare
// exceptions with inconsistent messages. Only AntColony's constructor
// still throws (support::CheckError), for the paper-facing API.
//
// A request carries the full scheduling envelope (deadline, priority,
// warm-start hook). The core solvers deliberately ignore the scheduling
// fields — they are honored by the serving layer's request queue
// (src/server/, docs/SERVING.md) — so the same struct travels unchanged
// from the wire to the colony.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/colony.hpp"
#include "core/params.hpp"
#include "graph/digraph.hpp"

namespace acolay::core {

/// Structured admission verdict shared by every solver entry point. The
/// first two are produced by validate_request(); the remaining codes are
/// produced by the serving layer's queue and framing (they are defined
/// here so one enum travels the whole stack).
enum class AdmissionError {
  kNone = 0,         ///< admitted
  kCycle,            ///< the graph is not a DAG
  kBadParam,         ///< AcoParams outside the validated ranges
  kBadRequest,       ///< malformed or oversized frame (serving layer)
  kOverloaded,       ///< request queue full — backpressure (serving layer)
  kDeadlineExpired,  ///< deadline passed before dispatch (serving layer)
  kInternal,         ///< unexpected solver failure (serving layer)
  kUnknownFingerprint,  ///< delta frame references no live warm state
                        ///< (serving layer)
};

/// Stable wire identifier of an AdmissionError ("cycle", "bad_param",
/// "bad_request", "overloaded", "deadline_expired", "internal",
/// "unknown_fingerprint"; "ok" for kNone) — part of the response schema in
/// docs/SERVING.md.
const char* admission_error_code(AdmissionError error);

/// One layering request: the graph, the search parameters, and the
/// scheduling envelope. The graph is borrowed — the caller keeps it alive
/// until the outcome has been produced (BatchSolver: until collected).
struct SolveRequest {
  /// The graph to layer. Must be non-null at every entry point. Must be a
  /// DAG under CyclePolicy::kReject; the other policies admit any digraph.
  const graph::Digraph* graph = nullptr;

  /// Search tunables, seed included (validated by validate_request).
  AcoParams params;

  /// What to do when `graph` is cyclic (Phase 0, see CyclePolicy). The
  /// non-reject policies reverse a feedback arc set before the colony runs
  /// and report it in SolveOutcome::reversed_edges; results are still a
  /// pure function of (graph, params, policy) — the FAS search is serial
  /// and seeded from params.seed, so the reversal set and the layering are
  /// bit-identical at any thread count.
  CyclePolicy cycle_policy = CyclePolicy::kReject;

  /// Relative deadline in seconds from admission; <= 0 means none. Only
  /// the serving layer's queue honors it (expired requests are shed
  /// before solving, never mid-solve); the core solvers ignore it.
  double deadline_seconds = 0.0;

  /// Queue priority: higher dispatches first, ties in arrival order.
  /// Honored by the serving layer's queue; the core solvers ignore it.
  int priority = 0;

  /// Warm-pheromone hook (see run_colony's tau_io contract): when
  /// non-null the run starts from this matrix if its shape matches and
  /// writes the final matrix back. The caller must not share one matrix
  /// between concurrent solves. Warm chains are excluded from the
  /// bit-identity serving contract (docs/SERVING.md).
  PheromoneMatrix* warm_tau = nullptr;
};

/// What a request produced: either a result (error == kNone) or a
/// structured admission/solve error with a human-readable message.
struct SolveOutcome {
  /// Admission verdict; kNone means `result` is valid.
  AdmissionError error = AdmissionError::kNone;
  /// Human-readable detail for failed requests (empty on success).
  std::string message;
  /// The colony's result; default-constructed unless error == kNone.
  AcoResult result;
  /// The edges Phase 0 reversed to make a cyclic input acyclic, in their
  /// original (pre-reversal) orientation and the input's edge order. Empty
  /// for DAG inputs and under CyclePolicy::kReject. The layering in
  /// `result` layers the reoriented DAG (reversing these edges in the
  /// input reconstructs it).
  std::vector<graph::Edge> reversed_edges;

  /// Whether the request was admitted and solved.
  bool ok() const { return error == AdmissionError::kNone; }
};

/// The shared admission gate: checks the graph (present; acyclic unless
/// the cycle policy admits cycles) and the params ranges. Returns the
/// verdict and, when `message` is non-null, fills it with the failure
/// detail (cleared on success). Never throws.
AdmissionError validate_request(const SolveRequest& request,
                                std::string* message);

/// Phase 0 outcome for one admitted graph (resolve_cycles below).
struct CycleResolution {
  /// The DAG the colony should run on: `&owned` when a reversal happened,
  /// otherwise the borrowed input graph.
  const graph::Digraph* graph = nullptr;
  /// Storage for the reoriented graph (unused when the input was a DAG).
  graph::Digraph owned;
  /// The reversed edges, original orientation (empty for DAG inputs).
  std::vector<graph::Edge> reversed_edges;
};

/// Phase 0 of every solve path: makes an admitted graph acyclic per the
/// policy. DAG inputs (and kReject, whose admission gate already
/// guaranteed a DAG) pass through borrowed and unchanged; cyclic inputs
/// get a feedback arc set reversed — greedy (graph::make_acyclic) under
/// kGreedyReverse, ACO-guided (graph::make_acyclic_aco, seeded from
/// `seed`) under kAcoFas. Deterministic and serial; `out` is overwritten.
void resolve_cycles(const graph::Digraph& g, CyclePolicy policy,
                    std::uint64_t seed, CycleResolution& out);

/// One-shot structured solve, the single way into the colony for one
/// graph: validates, runs Phase 0, freezes a CSR snapshot, and runs the
/// colony with serial ants (params.num_threads == 1) or on a transient
/// pool of params.num_threads workers (0 = hardware concurrency). Admission
/// failures come back as codes, never exceptions; AntColony is the
/// throwing facade over this call. Request streams go through BatchSolver
/// and edit sessions through IncrementalSolver.
SolveOutcome solve(const SolveRequest& request);

}  // namespace acolay::core
