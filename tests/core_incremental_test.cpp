// core::IncrementalSolver — the warm re-layering path. Pins the versioned
// quality contract (every update within kIncrementalStepTolerance of a
// cold full-budget solve, script means within kIncrementalMeanTolerance,
// over 40 random edit scripts x 5 updates = 200 updates), the house
// determinism rules (bit-identical across thread counts and reruns), the
// monotone guard (an update never returns worse than its repaired warm
// base), the transactional failure semantics of update(), and the
// allocation-free steady state of the serial update loop.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/colony.hpp"
#include "core/incremental.hpp"
#include "core/pheromone.hpp"
#include "gen/edit_script.hpp"
#include "gen/random_dag.hpp"
#include "graph/csr.hpp"
#include "graph/delta.hpp"
#include "graph/digraph.hpp"
#include "layering/metrics.hpp"
#include "support/alloc_guard.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace acolay::core {
namespace {

AcoParams quick_params(std::uint64_t seed = 1) {
  AcoParams params;
  params.num_ants = 10;
  params.num_tours = 10;
  params.seed = seed;
  params.num_threads = 1;
  return params;
}

/// A base instance in the calibrated size range (n in [12, 32)).
graph::Digraph random_base(support::Rng& rng) {
  gen::GnmParams shape;
  shape.num_vertices =
      12 + static_cast<std::size_t>(rng.uniform_int(0, 19));
  shape.num_edges = 2 * shape.num_vertices;
  return gen::random_dag(shape, rng);
}

TEST(IncrementalSolver, ColdSolveMatchesAntColonyBitExactly) {
  const graph::Digraph g = test::small_dag();
  const AcoParams params = quick_params();
  IncrementalSolver solver(g, params);
  const SolveOutcome& outcome = solver.solve();
  ASSERT_TRUE(outcome.ok());
  const AcoResult direct = AntColony(g, params).run();
  EXPECT_EQ(outcome.result.layering.raw(), direct.layering.raw());
  EXPECT_EQ(outcome.result.metrics.objective, direct.metrics.objective);
  EXPECT_EQ(solver.fingerprint(), graph::CsrView(g).fingerprint());
}

TEST(IncrementalSolver, UpdateBeforeStateIsRejected) {
  IncrementalSolver solver(test::small_dag(), quick_params());
  graph::GraphDelta delta;
  delta.set_widths.push_back(graph::WidthChange{0, 2.0});
  const SolveOutcome& outcome = solver.update(delta);
  EXPECT_EQ(outcome.error, AdmissionError::kBadRequest);
  EXPECT_FALSE(solver.has_state());
}

TEST(IncrementalSolver, InvalidDeltaLeavesSolverUntouched) {
  IncrementalSolver solver(test::small_dag(), quick_params());
  ASSERT_TRUE(solver.solve().ok());
  const std::uint64_t fingerprint = solver.fingerprint();
  const graph::Digraph before = solver.graph();

  graph::GraphDelta missing;  // structurally invalid: edge does not exist
  missing.remove_edges.push_back(graph::Edge{0, 5});
  EXPECT_EQ(solver.update(missing).error, AdmissionError::kBadRequest);
  EXPECT_EQ(solver.fingerprint(), fingerprint);
  EXPECT_EQ(solver.graph(), before);
  EXPECT_EQ(solver.num_updates(), 0);

  graph::GraphDelta cycle;  // valid ops, but 0 -> 2 closes 2 -> 0
  cycle.add_edges.push_back(graph::Edge{0, 2});
  EXPECT_EQ(solver.update(cycle).error, AdmissionError::kCycle);
  EXPECT_EQ(solver.fingerprint(), fingerprint);
  EXPECT_EQ(solver.graph(), before);

  // The solver still works after rejected deltas.
  graph::GraphDelta valid;
  valid.set_widths.push_back(graph::WidthChange{2, 3.0});
  EXPECT_TRUE(solver.update(valid).ok());
  EXPECT_EQ(solver.num_updates(), 1);
}

TEST(IncrementalSolver, FingerprintStaysDeltaComposedAcrossUpdates) {
  support::Rng rng(4242);
  graph::Digraph base = random_base(rng);
  gen::EditScriptParams script_params;
  script_params.num_deltas = 6;
  const auto script = gen::random_edit_script(base, script_params, rng);

  IncrementalSolver solver(base, quick_params());
  ASSERT_TRUE(solver.solve().ok());
  for (const auto& delta : script) {
    ASSERT_TRUE(solver.update(delta).ok());
    // The composed fingerprint equals a cold freeze of the evolving graph
    // — the serving layer's session key never drifts from the truth.
    EXPECT_EQ(solver.fingerprint(),
              graph::CsrView(solver.graph()).fingerprint());
  }
  EXPECT_EQ(solver.num_updates(), 6);
}

TEST(IncrementalSolver, AdoptSeedsStateWithoutASolve) {
  const graph::Digraph g = test::small_dag();
  const AcoParams params = quick_params();
  const AcoResult cold = AntColony(g, params).run();

  IncrementalSolver solver(g, params);
  PheromoneMatrix tau;  // empty: shape mismatch falls back to tau0
  solver.adopt(tau, cold.layering);
  EXPECT_TRUE(solver.has_state());

  graph::GraphDelta delta;
  delta.add_edges.push_back(graph::Edge{5, 2});
  const SolveOutcome& outcome = solver.update(delta);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(layering::validate_layering(solver.graph(),
                                        outcome.result.layering),
            "");
}

TEST(IncrementalSolver, UpdateNeverReturnsWorseThanItsWarmBase) {
  // The monotone guard: result.initial_objective is the repaired base's
  // objective, and the returned layering must match or beat it.
  support::Rng rng(515151);
  for (int script_index = 0; script_index < 8; ++script_index) {
    support::Rng fork = rng.fork(static_cast<std::uint64_t>(script_index));
    graph::Digraph base = random_base(fork);
    gen::EditScriptParams script_params;
    script_params.num_deltas = 5;
    const auto script = gen::random_edit_script(base, script_params, fork);
    IncrementalSolver solver(
        base, quick_params(9000 + static_cast<std::uint64_t>(script_index)));
    ASSERT_TRUE(solver.solve().ok());
    for (const auto& delta : script) {
      const SolveOutcome& outcome = solver.update(delta);
      ASSERT_TRUE(outcome.ok());
      EXPECT_GE(outcome.result.metrics.objective,
                outcome.result.initial_objective);
      EXPECT_EQ(layering::validate_layering(solver.graph(),
                                            outcome.result.layering),
                "");
    }
  }
}

TEST(IncrementalSolver, QualityWithinVersionedToleranceOver200Updates) {
  // The version-1 contract of core/incremental.hpp, re-measured the way it
  // was calibrated: 40 random edit scripts x 5 updates, each update's
  // objective compared against a cold full-budget AntColony solve of the
  // identical post-delta graph.
  ASSERT_EQ(kIncrementalToleranceVersion, 1)
      << "tolerances re-versioned: recalibrate this test's expectations";
  support::Rng rng(1000);
  double warm_sum = 0.0;
  double cold_sum = 0.0;
  int updates = 0;
  for (int script_index = 0; script_index < 40; ++script_index) {
    support::Rng fork = rng.fork(static_cast<std::uint64_t>(script_index));
    graph::Digraph base = random_base(fork);
    gen::EditScriptParams script_params;
    script_params.num_deltas = 5;
    const auto script = gen::random_edit_script(base, script_params, fork);

    const AcoParams params =
        quick_params(1000 + static_cast<std::uint64_t>(script_index));
    IncrementalSolver solver(base, params);
    ASSERT_TRUE(solver.solve().ok());
    graph::Digraph mirror = base;
    for (const auto& delta : script) {
      const SolveOutcome& warm = solver.update(delta);
      ASSERT_TRUE(warm.ok());
      ASSERT_EQ(graph::apply_delta(mirror, delta), "");
      const AcoResult cold = AntColony(mirror, params).run();
      warm_sum += warm.result.metrics.objective;
      cold_sum += cold.metrics.objective;
      ++updates;
      if (cold.metrics.objective > 0.0) {
        EXPECT_GE(warm.result.metrics.objective,
                  (1.0 - kIncrementalStepTolerance) * cold.metrics.objective)
            << "script " << script_index << ", update "
            << solver.num_updates();
      }
    }
  }
  ASSERT_EQ(updates, 200);
  EXPECT_GE(warm_sum, (1.0 - kIncrementalMeanTolerance) * cold_sum);
}

TEST(IncrementalSolver, BitIdenticalAcrossThreadCountsAndReruns) {
  support::Rng rng(777);
  graph::Digraph base = random_base(rng);
  gen::EditScriptParams script_params;
  script_params.num_deltas = 6;
  const auto script = gen::random_edit_script(base, script_params, rng);

  const auto run_script = [&](int num_threads) {
    AcoParams params = quick_params(42);
    params.num_threads = num_threads;
    IncrementalSolver solver(base, params);
    EXPECT_TRUE(solver.solve().ok());
    std::vector<std::vector<int>> layerings;
    for (const auto& delta : script) {
      const SolveOutcome& outcome = solver.update(delta);
      EXPECT_TRUE(outcome.ok());
      layerings.push_back(outcome.result.layering.raw());
    }
    return layerings;
  };

  const auto serial = run_script(1);
  EXPECT_EQ(run_script(1), serial);  // rerun
  EXPECT_EQ(run_script(4), serial);  // fixed pool
  EXPECT_EQ(run_script(0), serial);  // hardware concurrency
}

TEST(IncrementalSolver, SolveReportsOnlyCurrentReversals) {
  // The constructor's Phase 0 reversal belongs to the constructor's graph:
  // once an update replaces that graph, a cold solve() of the new one has
  // reversed nothing.
  graph::Digraph cyclic(4);
  cyclic.add_edge(0, 1);
  cyclic.add_edge(1, 2);
  cyclic.add_edge(2, 0);
  cyclic.add_edge(2, 3);
  IncrementalOptions options;
  options.cycle_policy = CyclePolicy::kGreedyReverse;
  IncrementalSolver solver(cyclic, quick_params(), options);
  const SolveOutcome& first = solver.solve();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.reversed_edges, (std::vector<graph::Edge>{{2, 0}}));

  graph::GraphDelta clear;
  clear.remove_edges = solver.graph().edges();
  ASSERT_TRUE(solver.update(clear).ok());
  EXPECT_EQ(solver.graph().num_edges(), 0u);
  const SolveOutcome& second = solver.solve();
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.reversed_edges.empty());
}

TEST(IncrementalSolver, SteadyStateUpdateIsAllocationFree) {
  // Serial path, capacities warmed by one full remove/re-add cycle; the
  // second cycle — refreeze, pheromone remap, base repair, tours, the
  // monotone guard's normalize — must not touch the heap.
  IncrementalSolver solver(test::small_dag(), quick_params());
  ASSERT_TRUE(solver.solve().ok());

  graph::GraphDelta remove;
  remove.remove_edges.push_back(graph::Edge{6, 1});
  graph::GraphDelta add;
  add.add_edges.push_back(graph::Edge{6, 1});

  ASSERT_TRUE(solver.update(remove).ok());  // warm-up cycle
  ASSERT_TRUE(solver.update(add).ok());

  ACOLAY_ASSERT_NO_ALLOC({
    EXPECT_TRUE(solver.update(remove).ok());
    EXPECT_TRUE(solver.update(add).ok());
  });
}

}  // namespace
}  // namespace acolay::core
