#include "core/request.hpp"

#include <utility>

#include "graph/algorithms.hpp"
#include "graph/cycle_removal.hpp"
#include "support/check.hpp"
#include "support/thread_pool.hpp"

namespace acolay::core {

namespace {

/// The AcoParams ranges the colony requires; throws support::CheckError on
/// the first violated bound (validate_request turns it into kBadParam).
void validate_aco_params(const AcoParams& params) {
  ACOLAY_CHECK(params.num_ants >= 1);
  ACOLAY_CHECK(params.num_tours >= 0);
  ACOLAY_CHECK(params.alpha >= 0.0);
  ACOLAY_CHECK(params.beta >= 0.0);
  ACOLAY_CHECK(params.rho >= 0.0 && params.rho <= 1.0);
  ACOLAY_CHECK(params.dummy_width >= 0.0);
  ACOLAY_CHECK(params.eta_epsilon > 0.0);
  // Ranges the run would only trip over mid-search (PheromoneMatrix /
  // deposit / clamp contract checks) fail fast here instead, so every
  // parameter is checked at admission.
  ACOLAY_CHECK(params.tau0 > 0.0);
  ACOLAY_CHECK(params.deposit >= 0.0);
  ACOLAY_CHECK(params.tau_min <= params.tau_max);
}

}  // namespace

const char* cycle_policy_name(CyclePolicy policy) {
  switch (policy) {
    case CyclePolicy::kReject:
      return "reject";
    case CyclePolicy::kGreedyReverse:
      return "greedy_reverse";
    case CyclePolicy::kAcoFas:
      return "aco_fas";
  }
  return "reject";
}

const char* admission_error_code(AdmissionError error) {
  switch (error) {
    case AdmissionError::kNone:
      return "ok";
    case AdmissionError::kCycle:
      return "cycle";
    case AdmissionError::kBadParam:
      return "bad_param";
    case AdmissionError::kBadRequest:
      return "bad_request";
    case AdmissionError::kOverloaded:
      return "overloaded";
    case AdmissionError::kDeadlineExpired:
      return "deadline_expired";
    case AdmissionError::kInternal:
      return "internal";
    case AdmissionError::kUnknownFingerprint:
      return "unknown_fingerprint";
  }
  return "internal";
}

AdmissionError validate_request(const SolveRequest& request,
                                std::string* message) {
  if (message != nullptr) message->clear();
  if (request.graph == nullptr) {
    if (message != nullptr) *message = "request carries no graph";
    return AdmissionError::kBadRequest;
  }
  if (request.cycle_policy == CyclePolicy::kReject &&
      !graph::is_dag(*request.graph)) {
    if (message != nullptr) *message = "graph is not a DAG";
    return AdmissionError::kCycle;
  }
  try {
    validate_aco_params(request.params);
  } catch (const support::CheckError& e) {
    if (message != nullptr) {
      // CheckError's text ends in "at <abs-path>:<line>"; strip that so
      // the wire message is stable across checkouts (golden transcripts
      // diff these bytes).
      std::string what = e.what();
      if (const auto pos = what.rfind(" at /"); pos != std::string::npos) {
        what.resize(pos);
      }
      *message = std::move(what);
    }
    return AdmissionError::kBadParam;
  }
  return AdmissionError::kNone;
}

void resolve_cycles(const graph::Digraph& g, CyclePolicy policy,
                    std::uint64_t seed, CycleResolution& out) {
  out.owned = graph::Digraph();
  out.reversed_edges.clear();
  if (policy == CyclePolicy::kReject || graph::is_dag(g)) {
    out.graph = &g;
    return;
  }
  graph::AcyclicResult acyclic;
  if (policy == CyclePolicy::kGreedyReverse) {
    acyclic = graph::make_acyclic(g);
  } else {
    graph::FasOptions options;
    options.seed = seed;
    acyclic = graph::make_acyclic_aco(g, options);
  }
  out.owned = std::move(acyclic.dag);
  out.reversed_edges = std::move(acyclic.reversed_edges);
  out.graph = &out.owned;
}

AdmissionError admit(const SolveRequest& request, AdmittedRequest& out,
                     std::string* message) {
  out = AdmittedRequest{};
  const AdmissionError error = validate_request(request, message);
  if (error != AdmissionError::kNone) return error;
  out.request = request;
  CycleResolution phase0;
  resolve_cycles(*request.graph, request.cycle_policy, request.params.seed,
                 phase0);
  if (phase0.graph != request.graph) out.reoriented = std::move(phase0.owned);
  out.reversed_edges = std::move(phase0.reversed_edges);
  // One frozen CSR snapshot serves every walk and metrics evaluation of
  // the run: the ants only read the topology.
  out.csr.rebuild(out.dag());
  return AdmissionError::kNone;
}

SolveOutcome solve(const AdmittedRequest& admitted) {
  SolveOutcome outcome;
  outcome.reversed_edges = admitted.reversed_edges;
  const graph::Digraph& g = admitted.dag();
  const AcoParams& params = admitted.request.params;
  PheromoneMatrix* warm_tau = admitted.request.warm_tau;
  ColonyWorkspace ws;
  if (params.num_threads == 1 || g.num_vertices() == 0) {
    // Serial ants need no pool; spawning a one-worker pool here would
    // create and join an OS thread that parallel_for's single-thread
    // shortcut never hands a walk anyway.
    outcome.result = run_colony(g, admitted.csr, params, ws,
                                /*ant_pool=*/nullptr, warm_tau);
  } else {
    support::ThreadPool pool(params.num_threads <= 0
                                 ? 0
                                 : static_cast<std::size_t>(params.num_threads));
    outcome.result = run_colony(g, admitted.csr, params, ws, &pool, warm_tau);
  }
  return outcome;
}

SolveOutcome solve(const SolveRequest& request) {
  AdmittedRequest admitted;
  SolveOutcome outcome;
  outcome.error = admit(request, admitted, &outcome.message);
  if (!outcome.ok()) return outcome;
  return solve(admitted);
}

}  // namespace acolay::core
