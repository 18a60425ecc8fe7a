// The unified SolveRequest/SolveOutcome surface: one admission gate for
// every entry point, structured errors instead of exceptions, and the
// guarantee that the structured paths produce bit-identical results to
// the throwing AntColony facade.
#include "core/request.hpp"

#include <gtest/gtest.h>

#include <string>

#include "core/batch.hpp"
#include "core/colony.hpp"
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
  BatchSolver solver(BatchOptions{.num_threads = 2});
  const auto loop = cyclic();
  const auto g = test::diamond();

  SolveRequest bad;
  bad.graph = &loop;
  const BatchJobId rejected = solver.submit(bad);  // must not throw
  EXPECT_TRUE(solver.done(rejected));              // born finished
  const SolveOutcome& outcome = solver.wait_outcome(rejected);
  EXPECT_EQ(outcome.error, AdmissionError::kCycle);

  SolveRequest good;
  good.graph = &g;
  const BatchJobId ok = solver.submit(good);
  const SolveOutcome& solved = solver.wait_outcome(ok);
  ASSERT_TRUE(solved.ok());
  EXPECT_EQ(solved.result.layering.num_vertices(), g.num_vertices());
}

TEST(BatchSolverRequests, CollectOutcomeShedsAndGuardsDoubleCollect) {
  BatchSolver solver(BatchOptions{.num_threads = 1});
  const auto g = test::diamond();
  SolveRequest request;
  request.graph = &g;
  const BatchJobId id = solver.submit(request);
  const SolveOutcome outcome = solver.collect_outcome(id);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(solver.done(id));  // stays done after collection
  EXPECT_THROW(solver.collect_outcome(id), support::CheckError);
  EXPECT_THROW(solver.poll_outcome(id), support::CheckError);
}

TEST(BatchSolverRequests, DeriveSeedsAppliesToStructuredSubmits) {
  const auto g = test::diamond();
  AcoParams params;
  params.num_tours = 3;
  params.seed = 7;

  BatchSolver derived(BatchOptions{.num_threads = 1, .derive_seeds = true});
  SolveRequest request;
  request.graph = &g;
  request.params = params;
  const BatchJobId first = derived.submit(request);   // effective seed 7
  const BatchJobId second = derived.submit(request);  // effective seed 8

  AcoParams direct = params;
  direct.seed = 8;
  AntColony colony(g, direct);
  EXPECT_EQ(derived.wait_outcome(second).result.layering.raw(),
            colony.run().layering.raw());
  (void)first;
}

}  // namespace
}  // namespace acolay::core
