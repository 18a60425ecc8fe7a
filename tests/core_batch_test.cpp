// core::BatchSolver: API contract, equivalence to the sequential
// AntColony::run() loop it is documented to be bit-identical to, and the
// per-worker workspace pooling (no cross-graph leakage, no state carried
// between jobs beyond buffer capacity). Thread-count and permutation
// determinism at corpus scale lives in tests/determinism_test.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <span>
#include <vector>

#include "core/batch.hpp"
#include "core/colony.hpp"
#include "layering/layering.hpp"
#include "support/check.hpp"
#include "test_util.hpp"

namespace acolay {
namespace {

core::AcoParams small_params(std::uint64_t seed = 42) {
  core::AcoParams params;
  params.num_ants = 4;
  params.num_tours = 4;
  params.seed = seed;
  return params;
}

/// Full-result equality: layering, metrics doubles, and the per-tour
/// trace (same search path, not merely the same endpoint).
void expect_same_result(const core::AcoResult& a, const core::AcoResult& b) {
  EXPECT_EQ(a.layering, b.layering);
  EXPECT_EQ(a.metrics.objective, b.metrics.objective);
  EXPECT_EQ(a.metrics.width_incl_dummies, b.metrics.width_incl_dummies);
  EXPECT_EQ(a.metrics.width_excl_dummies, b.metrics.width_excl_dummies);
  EXPECT_EQ(a.metrics.height, b.metrics.height);
  EXPECT_EQ(a.metrics.dummy_count, b.metrics.dummy_count);
  EXPECT_EQ(a.initial_objective, b.initial_objective);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t t = 0; t < a.trace.size(); ++t) {
    EXPECT_EQ(a.trace[t].best_objective, b.trace[t].best_objective);
    EXPECT_EQ(a.trace[t].mean_objective, b.trace[t].mean_objective);
    EXPECT_EQ(a.trace[t].total_moves, b.trace[t].total_moves);
  }
}

TEST(BatchSolver, SolveAllMatchesSequentialColonyLoop) {
  const auto graphs = test::random_battery(8);
  const auto params = small_params();

  core::BatchSolver solver;
  const auto batch = solver.solve_all(graphs, params);

  ASSERT_EQ(batch.size(), graphs.size());
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const auto sequential = core::AntColony(graphs[i], params).run();
    expect_same_result(batch[i], sequential);
  }
}

TEST(BatchSolver, PerGraphParamsVariantMatchesSequentialLoop) {
  const auto graphs = test::random_battery(6);
  std::vector<core::AcoParams> params;
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    auto p = small_params(100 + i);
    p.num_ants = 2 + static_cast<int>(i % 3);
    params.push_back(p);
  }

  core::BatchSolver solver;
  const auto batch = solver.solve_all(graphs, params);

  ASSERT_EQ(batch.size(), graphs.size());
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const auto sequential = core::AntColony(graphs[i], params[i]).run();
    expect_same_result(batch[i], sequential);
  }
}

TEST(BatchSolver, SubmitDoneCollectLifecycle) {
  const auto graphs = test::random_battery(5);
  core::BatchSolver solver;

  std::vector<core::BatchJobId> ids;
  for (const auto& g : graphs) ids.push_back(test::submit_request(solver, g, small_params()));
  EXPECT_EQ(solver.num_jobs(), graphs.size());

  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto result = test::wait_result(solver, ids[i]);
    EXPECT_TRUE(solver.done(ids[i]));  // stays done once collected
    EXPECT_TRUE(layering::is_valid_layering(graphs[i], result.layering));
  }
}

TEST(BatchSolver, WaitAllFinishesEveryJob) {
  const auto graphs = test::random_battery(6);
  core::BatchSolver solver;
  std::vector<core::BatchJobId> ids;
  for (const auto& g : graphs) ids.push_back(test::submit_request(solver, g, small_params()));
  solver.wait_all();
  for (const auto id : ids) EXPECT_TRUE(solver.done(id));
}

TEST(BatchSolver, ResultsStableUnderSubmissionOrderPermutation) {
  const auto graphs = test::random_battery(7);
  core::BatchSolver forward;
  core::BatchSolver backward;

  std::vector<core::BatchJobId> forward_ids;
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    forward_ids.push_back(
        test::submit_request(forward, graphs[i], small_params(10 + i)));
  }
  std::vector<core::BatchJobId> backward_ids(graphs.size());
  for (std::size_t i = graphs.size(); i-- > 0;) {
    backward_ids[i] =
        test::submit_request(backward, graphs[i], small_params(10 + i));
  }

  for (std::size_t i = 0; i < graphs.size(); ++i) {
    expect_same_result(test::wait_result(forward, forward_ids[i]),
                       test::wait_result(backward, backward_ids[i]));
  }
}

TEST(BatchSolver, WorkspaceReuseHasNoCrossGraphLeakage) {
  // One solver's workers carry their (warm) workspaces from job to job;
  // re-submitting a graph after the workspaces have been dirtied by other
  // graphs must reproduce the cold-solver result bit for bit.
  const auto graphs = test::random_battery(6);
  const auto& probe = graphs.front();
  const auto params = small_params(5);

  core::BatchSolver cold;
  const auto reference =
      test::wait_result(cold, test::submit_request(cold, probe, params));

  core::BatchSolver warm;
  const auto first = test::submit_request(warm, probe, params);
  std::vector<core::BatchJobId> dirty;
  for (std::size_t i = 1; i < graphs.size(); ++i) {
    dirty.push_back(test::submit_request(warm, graphs[i], params));
  }
  const auto again = test::submit_request(warm, probe, params);
  expect_same_result(test::wait_result(warm, first), reference);
  expect_same_result(test::wait_result(warm, again), reference);
  for (const auto id : dirty) {
    test::wait_result(warm, id);  // all must still finish
  }
}

TEST(BatchSolver, CollectMovesTheResultAndReleasesTheJob) {
  const auto graphs = test::random_battery(4);
  const auto params = small_params(8);
  core::BatchSolver reference_solver;
  core::BatchSolver solver;

  std::vector<core::BatchJobId> ids;
  for (const auto& g : graphs) {
    ids.push_back(test::submit_request(solver, g, params));
  }

  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto collected = solver.collect_outcome(ids[i]);
    ASSERT_TRUE(collected.ok());
    const auto reference = test::wait_result(
        reference_solver, test::submit_request(reference_solver, graphs[i], params));
    expect_same_result(collected.result, reference);
    // The job stays done but its stored state is gone: collecting it again
    // is a contract violation, not a silent empty.
    EXPECT_TRUE(solver.done(ids[i]));
    EXPECT_THROW(solver.collect_outcome(ids[i]), support::CheckError);
  }
  // Collecting early jobs must not disturb later ones.
  const auto late = test::submit_request(solver, graphs.front(), params);
  const auto late_collected = solver.collect_outcome(late);
  ASSERT_TRUE(late_collected.ok());
  expect_same_result(
      late_collected.result,
      test::wait_result(reference_solver, test::submit_request(
                                              reference_solver,
                                              graphs.front(), params)));
}

TEST(BatchSolver, CollectedIdsStayDoneAfterTheirRecordsAreFreed) {
  const auto graphs = test::random_battery(4);
  const auto params = small_params(9);
  core::BatchSolver solver;
  std::vector<core::BatchJobId> ids;
  for (const auto& g : graphs) {
    ids.push_back(test::submit_request(solver, g, params));
  }

  // Out of order: job 1's record waits for job 0, then both are freed.
  ASSERT_TRUE(solver.collect_outcome(ids[1]).ok());
  ASSERT_TRUE(solver.collect_outcome(ids[0]).ok());
  for (const auto id : {ids[0], ids[1]}) {
    EXPECT_TRUE(solver.done(id));
    EXPECT_THROW(solver.collect_outcome(id), support::CheckError);
  }
  // Ids stay submission indices: the live jobs and new ones are unmoved.
  EXPECT_EQ(solver.num_jobs(), 4u);
  const auto next = test::submit_request(solver, graphs[0], params);
  EXPECT_EQ(next, 4u);
  EXPECT_EQ(solver.num_jobs(), 5u);
  EXPECT_THROW(solver.done(5), support::CheckError);
  for (const auto id : {ids[2], ids[3], next}) {
    EXPECT_TRUE(solver.collect_outcome(id).ok());
  }
  EXPECT_TRUE(solver.done(next));
}

TEST(BatchSolver, JobDoneHookFiresOncePerJobRejectionsIncluded) {
  const auto graphs = test::random_battery(6);
  graph::Digraph cyclic(2);
  cyclic.add_edge(0, 1);
  cyclic.add_edge(1, 0);
  auto bad = small_params();
  bad.num_ants = 0;
  std::atomic<std::size_t> calls{0};
  {
    core::BatchSolver solver(2);
    solver.set_on_job_done([&calls] { calls.fetch_add(1); });
    for (const auto& g : graphs) {
      test::submit_request(solver, g, small_params());
    }
    test::submit_request(solver, cyclic, small_params());
    test::submit_request(solver, graphs[0], bad);
    // The hook is wiring, not a late option: it cannot change mid-stream.
    EXPECT_THROW(solver.set_on_job_done([] {}), support::CheckError);
  }
  // Counted after the destructor joined the workers, so every call made.
  EXPECT_EQ(calls.load(), graphs.size() + 2);
}

TEST(BatchSolver, RejectsCyclicGraphsAtAdmission) {
  graph::Digraph cyclic(3);
  cyclic.add_edge(0, 1);
  cyclic.add_edge(1, 2);
  cyclic.add_edge(2, 0);
  core::BatchSolver solver;
  // The rejection is a born-finished outcome, not a throw.
  const auto id = test::submit_request(solver, cyclic, small_params());
  EXPECT_TRUE(solver.done(id));
  EXPECT_EQ(solver.collect_outcome(id).error, core::AdmissionError::kCycle);
}

TEST(BatchSolver, RejectsInvalidParamsAtAdmission) {
  const auto g = test::diamond();
  core::BatchSolver solver;
  const auto expect_bad_param = [&](const core::AcoParams& params) {
    const auto id = test::submit_request(solver, g, params);
    EXPECT_TRUE(solver.done(id));  // born finished, colony never ran
    EXPECT_EQ(solver.collect_outcome(id).error,
              core::AdmissionError::kBadParam);
  };
  auto params = small_params();
  params.num_ants = 0;
  expect_bad_param(params);
  params = small_params();
  params.rho = 1.5;
  expect_bad_param(params);
  // Mid-search contract ranges fail at admission too, not asynchronously.
  params = small_params();
  params.tau0 = 0.0;
  expect_bad_param(params);
  params = small_params();
  params.deposit = -1.0;
  expect_bad_param(params);
}

TEST(BatchSolver, UnknownJobIdThrows) {
  core::BatchSolver solver;
  EXPECT_THROW(solver.done(0), support::CheckError);
  EXPECT_THROW(solver.collect_outcome(1), support::CheckError);
}

TEST(BatchSolver, EmptyBatchAndEmptyGraph) {
  core::BatchSolver solver;
  const auto none =
      solver.solve_all(std::span<const graph::Digraph>{}, small_params());
  EXPECT_TRUE(none.empty());

  const graph::Digraph empty;
  const auto result =
      test::wait_result(solver, test::submit_request(solver, empty, small_params()));
  EXPECT_EQ(result.layering.num_vertices(), 0u);
}

TEST(BatchSolver, DestructorDrainsOutstandingJobs) {
  // Destroying the solver with jobs still queued must block until they
  // have run (the pool drains its queue), not abandon or crash them.
  const auto graphs = test::random_battery(6);
  {
    core::BatchSolver solver(2);
    for (const auto& g : graphs) test::submit_request(solver, g, small_params());
    // No wait: the destructor owns the drain.
  }
  SUCCEED();
}

TEST(BatchSolver, SolveAllSizeMismatchThrows) {
  const auto graphs = test::random_battery(3);
  std::vector<core::AcoParams> params(2, small_params());
  core::BatchSolver solver;
  EXPECT_THROW(solver.solve_all(graphs, params), support::CheckError);
}

}  // namespace
}  // namespace acolay
