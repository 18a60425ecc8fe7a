// The request/response surface of the solver and its one admission path.
//
// Every solver admits a core::SolveRequest through core::admit: the shared
// validation gate (validate_request), then Phase 0 (resolve_cycles, the
// cycle policy), then the CSR freeze of the DAG the colony runs on. The
// one-shot core::solve, BatchSolver::submit and the AntColony and
// IncrementalSolver constructors all call it, so a check added to admit
// covers every solver. Admission failures come back as structured
// AdmissionError codes in a core::SolveOutcome, never as exceptions; only
// the AntColony and IncrementalSolver constructors turn them into
// support::CheckError.
//
// The serving layer's scheduling envelope (deadline, priority) is not part
// of the request: the daemon parses it into server::ParsedRequest and its
// queue honors it before the request reaches admit (docs/SERVING.md).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/colony.hpp"
#include "core/params.hpp"
#include "graph/csr.hpp"
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

/// One layering request: the graph, the search parameters, the cycle
/// policy and the warm-start hook. The graph is borrowed — the caller
/// keeps it alive until the outcome has been produced (BatchSolver: until
/// collected).
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

/// The validation gate, admit()'s first step: checks the graph (present;
/// acyclic unless the cycle policy admits cycles) and the params ranges.
/// Returns the verdict and, when `message` is non-null, fills it with the
/// failure detail (cleared on success). Never throws. The serving layer
/// also calls it alone at push time, so an invalid frame never occupies a
/// queue slot.
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

/// Phase 0, admit()'s second step: makes a validated graph acyclic per the
/// policy. DAG inputs (and kReject, whose validation already guaranteed a
/// DAG) pass through borrowed and unchanged; cyclic inputs get a feedback
/// arc set reversed — greedy (graph::make_acyclic) under kGreedyReverse,
/// ACO-guided (graph::make_acyclic_aco, seeded from `seed`) under kAcoFas.
/// Deterministic and serial; `out` is overwritten. Solvers enter through
/// admit(); the only other caller is IncrementalSolver::update, which
/// breaks the cycles a delta introduces.
void resolve_cycles(const graph::Digraph& g, CyclePolicy policy,
                    std::uint64_t seed, CycleResolution& out);

/// A request that passed admission: the request as submitted, Phase 0's
/// output and the frozen CSR of the DAG the colony runs on. It holds no
/// pointer into itself, so copies and moves are independent of their
/// source; `request.graph` (and `request.warm_tau`) stay borrowed, and the
/// caller keeps them alive and unchanged while the admitted request is in
/// use.
struct AdmittedRequest {
  /// The request as admitted.
  SolveRequest request;
  /// Phase 0's reoriented DAG when the input was cyclic; empty otherwise.
  std::optional<graph::Digraph> reoriented;
  /// The edges Phase 0 reversed, original orientation and input edge
  /// order (empty for DAG inputs and under CyclePolicy::kReject).
  std::vector<graph::Edge> reversed_edges;
  /// Frozen snapshot of dag(): every walk and metrics evaluation of the
  /// run reads it.
  graph::CsrView csr;

  /// The DAG the colony layers: Phase 0's reoriented graph if there is
  /// one, otherwise the caller's graph.
  const graph::Digraph& dag() const {
    return reoriented ? *reoriented : *request.graph;
  }
};

/// The one way into the colony: validate_request, then Phase 0
/// (resolve_cycles under the request's policy, seeded from params.seed),
/// then the CSR freeze of the resulting DAG. Returns validate_request's
/// verdict and, when `message` is non-null, its message. `out` is
/// overwritten, and left empty on a rejection. Never throws for a bad
/// request.
AdmissionError admit(const SolveRequest& request, AdmittedRequest& out,
                     std::string* message);

/// Runs the colony on an admitted request with serial ants
/// (params.num_threads == 1) or on a transient pool of params.num_threads
/// workers (0 = hardware concurrency). No validation and no freeze: the
/// admitted request already carries both. The outcome reports the
/// admitted request's reversed_edges.
SolveOutcome solve(const AdmittedRequest& admitted);

/// One-shot structured solve: admit() followed by solve(admitted).
/// Admission failures come back as codes, never exceptions; AntColony is
/// the throwing facade over the same two steps. Request streams go through
/// BatchSolver and edit sessions through IncrementalSolver.
SolveOutcome solve(const SolveRequest& request);

}  // namespace acolay::core
