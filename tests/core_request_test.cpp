// The unified SolveRequest/SolveOutcome surface: one admission path
// (core::admit) for every entry point, structured errors instead of
// exceptions, and the guarantee that the structured paths produce
// bit-identical results to the throwing AntColony facade.
#include "core/request.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "core/batch.hpp"
#include "core/colony.hpp"
#include "graph/algorithms.hpp"
#include "graph/csr.hpp"
#include "support/check.hpp"
#include "test_util.hpp"

namespace acolay::core {
namespace {

graph::Digraph cyclic() {
  graph::Digraph g(2);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  return g;
}

TEST(AdmissionErrorCode, StableWireStrings) {
  // Part of the response schema (docs/SERVING.md) — changing any of these
  // is a wire-protocol break.
  EXPECT_STREQ(admission_error_code(AdmissionError::kNone), "ok");
  EXPECT_STREQ(admission_error_code(AdmissionError::kCycle), "cycle");
  EXPECT_STREQ(admission_error_code(AdmissionError::kBadParam), "bad_param");
  EXPECT_STREQ(admission_error_code(AdmissionError::kBadRequest),
               "bad_request");
  EXPECT_STREQ(admission_error_code(AdmissionError::kOverloaded),
               "overloaded");
  EXPECT_STREQ(admission_error_code(AdmissionError::kDeadlineExpired),
               "deadline_expired");
  EXPECT_STREQ(admission_error_code(AdmissionError::kInternal), "internal");
}

TEST(ValidateRequest, AdmitsAValidRequest) {
  const auto g = test::diamond();
  SolveRequest request;
  request.graph = &g;
  std::string message = "stale";
  EXPECT_EQ(validate_request(request, &message), AdmissionError::kNone);
  EXPECT_TRUE(message.empty());  // cleared on success
}

TEST(ValidateRequest, RejectsMissingGraphCycleAndBadParams) {
  std::string message;

  SolveRequest no_graph;
  EXPECT_EQ(validate_request(no_graph, &message),
            AdmissionError::kBadRequest);
  EXPECT_FALSE(message.empty());

  const auto loop = cyclic();
  SolveRequest cyclic_request;
  cyclic_request.graph = &loop;
  EXPECT_EQ(validate_request(cyclic_request, &message),
            AdmissionError::kCycle);

  const auto g = test::diamond();
  SolveRequest bad_params;
  bad_params.graph = &g;
  bad_params.params.rho = 2.0;
  EXPECT_EQ(validate_request(bad_params, &message),
            AdmissionError::kBadParam);
  EXPECT_NE(message.find("rho"), std::string::npos);
  // Golden transcripts diff these bytes: no absolute source paths.
  EXPECT_EQ(message.find(" at /"), std::string::npos) << message;

  // The message pointer is optional.
  EXPECT_EQ(validate_request(bad_params, nullptr),
            AdmissionError::kBadParam);
}

/// 0 -> 1 -> 2 -> 0 plus 2 -> 3: one cycle for Phase 0 to break.
graph::Digraph cycle_with_tail() {
  graph::Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  g.add_edge(2, 3);
  return g;
}

TEST(Admit, DagInputIsBorrowedAndFrozenUnderEveryPolicy) {
  const auto g = test::small_dag();
  for (const CyclePolicy policy :
       {CyclePolicy::kReject, CyclePolicy::kGreedyReverse,
        CyclePolicy::kAcoFas}) {
    SolveRequest request;
    request.graph = &g;
    request.cycle_policy = policy;
    AdmittedRequest admitted;
    std::string message = "stale";
    ASSERT_EQ(admit(request, admitted, &message), AdmissionError::kNone);
    EXPECT_TRUE(message.empty());
    EXPECT_FALSE(admitted.reoriented.has_value());
    EXPECT_EQ(&admitted.dag(), request.graph);
    EXPECT_TRUE(admitted.reversed_edges.empty());
    EXPECT_EQ(admitted.csr.fingerprint(), graph::CsrView(g).fingerprint());
  }
}

TEST(Admit, CyclicInputFreezesPhaseZerosDag) {
  const auto g = cycle_with_tail();
  for (const CyclePolicy policy :
       {CyclePolicy::kGreedyReverse, CyclePolicy::kAcoFas}) {
    SolveRequest request;
    request.graph = &g;
    request.params.seed = 5;
    request.cycle_policy = policy;
    AdmittedRequest admitted;
    ASSERT_EQ(admit(request, admitted, nullptr), AdmissionError::kNone);

    CycleResolution phase0;
    resolve_cycles(g, policy, request.params.seed, phase0);
    ASSERT_NE(phase0.graph, &g);
    EXPECT_EQ(admitted.reversed_edges, phase0.reversed_edges);
    ASSERT_TRUE(admitted.reoriented.has_value());
    EXPECT_EQ(&admitted.dag(), &*admitted.reoriented);
    EXPECT_TRUE(graph::is_dag(admitted.dag()));
    // The snapshot is of the reoriented DAG, edge order included.
    const graph::CsrView expected(*phase0.graph);
    EXPECT_EQ(admitted.csr.fingerprint(), expected.fingerprint());
    EXPECT_TRUE(std::ranges::equal(admitted.csr.edges(), expected.edges()));
  }
}

TEST(Admit, RejectsExactlyAsValidateRequestAndLeavesNothingBehind) {
  const auto loop = cyclic();
  const auto g = test::diamond();
  SolveRequest no_graph;
  SolveRequest cycle;  // CyclePolicy::kReject
  cycle.graph = &loop;
  SolveRequest bad_params;
  bad_params.graph = &g;
  bad_params.params.rho = 2.0;

  for (const SolveRequest* request : {&no_graph, &cycle, &bad_params}) {
    std::string want;
    const AdmissionError verdict = validate_request(*request, &want);
    ASSERT_NE(verdict, AdmissionError::kNone);

    // Start from a filled admitted request: a rejection must empty it.
    SolveRequest valid;
    valid.graph = &g;
    AdmittedRequest admitted;
    ASSERT_EQ(admit(valid, admitted, nullptr), AdmissionError::kNone);
    std::string got;
    EXPECT_EQ(admit(*request, admitted, &got), verdict);
    EXPECT_EQ(got, want);
    EXPECT_EQ(admitted.request.graph, nullptr);
    EXPECT_EQ(admitted.csr.num_vertices(), 0u);
  }
}

TEST(Admit, CopiesAndMovesOutliveTheSource) {
  // An admitted request that owns a reoriented DAG holds no pointer into
  // itself: copies and moves solve after the source is gone (ASan flags
  // any read through it) and still equal core::solve.
  const auto g = cycle_with_tail();
  for (const CyclePolicy policy :
       {CyclePolicy::kGreedyReverse, CyclePolicy::kAcoFas}) {
    SolveRequest request;
    request.graph = &g;
    request.params.num_tours = 3;
    request.params.num_threads = 1;
    request.cycle_policy = policy;
    auto source = std::make_unique<AdmittedRequest>();
    ASSERT_EQ(admit(request, *source, nullptr), AdmissionError::kNone);
    ASSERT_TRUE(source->reoriented.has_value());
    const AdmittedRequest copied = *source;
    const AdmittedRequest moved = std::move(*source);
    source.reset();

    const SolveOutcome direct = solve(request);
    ASSERT_TRUE(direct.ok());
    for (const AdmittedRequest* admitted : {&copied, &moved}) {
      EXPECT_EQ(&admitted->dag(), &*admitted->reoriented);
      const SolveOutcome outcome = solve(*admitted);
      ASSERT_TRUE(outcome.ok());
      EXPECT_EQ(outcome.reversed_edges, direct.reversed_edges);
      EXPECT_EQ(outcome.result.layering, direct.result.layering);
      EXPECT_EQ(outcome.result.metrics.objective,
                direct.result.metrics.objective);
      EXPECT_EQ(outcome.result.initial_objective,
                direct.result.initial_objective);
    }
  }
}

TEST(StructuredSolve, NeverThrowsAndMatchesAntColonyBitExactly) {
  const auto g = test::small_dag();
  AcoParams params;
  params.num_tours = 4;
  params.seed = 99;

  SolveRequest request;
  request.graph = &g;
  request.params = params;
  const SolveOutcome outcome = solve(request);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.error, AdmissionError::kNone);
  EXPECT_TRUE(outcome.message.empty());

  AntColony colony(g, params);
  const AcoResult direct = colony.run();
  EXPECT_EQ(outcome.result.layering.raw(), direct.layering.raw());
  EXPECT_EQ(outcome.result.metrics.objective, direct.metrics.objective);
  EXPECT_EQ(outcome.result.initial_objective, direct.initial_objective);
}

TEST(StructuredSolve, ReportsFailuresAsCodes) {
  const auto loop = cyclic();
  SolveRequest request;
  request.graph = &loop;
  const SolveOutcome outcome = solve(request);
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error, AdmissionError::kCycle);
}

TEST(StructuredSolve, EmptyGraphSolves) {
  const graph::Digraph g;
  SolveRequest request;
  request.graph = &g;
  const SolveOutcome outcome = solve(request);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.result.layering.num_vertices(), 0u);
}

TEST(StructuredSolve, WarmTauRoundTripsThroughTheRun) {
  const auto g = test::diamond();
  SolveRequest request;
  request.graph = &g;
  request.params.num_tours = 2;

  PheromoneMatrix tau;  // empty: first run is cold but must write back
  request.warm_tau = &tau;
  const SolveOutcome cold = solve(request);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(tau.num_vertices(), g.num_vertices());
  EXPECT_GE(tau.num_layers(), 1);

  // Second run adopts the matrix (shape matches) — it must still succeed
  // and produce a valid layering; warm results are deliberately outside
  // the bit-identity contract.
  const SolveOutcome warm = solve(request);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm.result.layering.num_vertices(), g.num_vertices());
}

TEST(BatchSolverRequests, AdmissionFailuresAreOutcomesNotExceptions) {
  BatchSolver solver(2);
  const auto loop = cyclic();
  const auto g = test::diamond();

  SolveRequest bad;
  bad.graph = &loop;
  const BatchJobId rejected = solver.submit(bad);  // must not throw
  EXPECT_TRUE(solver.done(rejected));              // born finished
  const SolveOutcome outcome = solver.collect_outcome(rejected);
  EXPECT_EQ(outcome.error, AdmissionError::kCycle);

  SolveRequest good;
  good.graph = &g;
  const BatchJobId ok = solver.submit(good);
  const SolveOutcome solved = solver.collect_outcome(ok);
  ASSERT_TRUE(solved.ok());
  EXPECT_EQ(solved.result.layering.num_vertices(), g.num_vertices());
}

TEST(BatchSolverRequests, CollectOutcomeShedsAndGuardsDoubleCollect) {
  BatchSolver solver(1);
  const auto g = test::diamond();
  SolveRequest request;
  request.graph = &g;
  const BatchJobId id = solver.submit(request);
  const SolveOutcome outcome = solver.collect_outcome(id);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(solver.done(id));  // stays done after collection
  EXPECT_THROW(solver.collect_outcome(id), support::CheckError);
}

}  // namespace
}  // namespace acolay::core
