// Tests for the AntColony (paper §V–§VI): end-to-end search behaviour,
// determinism across thread counts, trace integrity, improvement over the
// stretched-LPL start, and small-instance optimality.
#include "core/colony.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "baselines/brute_force.hpp"
#include "baselines/longest_path.hpp"
#include "core/request.hpp"
#include "layering/metrics.hpp"
#include "test_util.hpp"

namespace acolay::core {
namespace {

AcoParams fast_params(std::uint64_t seed = 1) {
  AcoParams params;
  params.num_ants = 6;
  params.num_tours = 6;
  params.seed = seed;
  return params;
}

TEST(Colony, ProducesValidNormalizedLayerings) {
  for (const auto& g : test::random_battery(12)) {
    AntColony colony(g, fast_params());
    const auto result = colony.run();
    EXPECT_TRUE(layering::is_valid_layering(g, result.layering))
        << layering::validate_layering(g, result.layering);
    EXPECT_EQ(result.layering.max_layer(),
              result.layering.occupied_layer_count());
  }
}

TEST(Colony, MetricsMatchReturnedLayering) {
  const auto g = test::random_battery(1, 5).front();
  AntColony colony(g, fast_params());
  const auto result = colony.run();
  const auto recomputed = layering::compute_metrics(
      g, result.layering, layering::MetricsOptions{1.0});
  EXPECT_EQ(result.metrics.height, recomputed.height);
  EXPECT_DOUBLE_EQ(result.metrics.width_incl_dummies,
                   recomputed.width_incl_dummies);
  EXPECT_EQ(result.metrics.dummy_count, recomputed.dummy_count);
  EXPECT_DOUBLE_EQ(result.metrics.objective, recomputed.objective);
}

TEST(Colony, ReturnsBestTourObjective) {
  // The result is the best walk across all tours (the paper reports the
  // ants' layering, not max(start, walks) — the ACO trades height for
  // width, so the start can have a higher objective).
  for (const auto& g : test::random_battery(12)) {
    AntColony colony(g, fast_params(17));
    const auto result = colony.run();
    double best_traced = 0.0;
    for (const auto& tour : result.trace) {
      best_traced = std::max(best_traced, tour.best_objective);
    }
    EXPECT_DOUBLE_EQ(result.metrics.objective, best_traced);
  }
}

TEST(Colony, DeterministicForFixedSeed) {
  const auto g = test::random_battery(1, 77).front();
  const auto a = AntColony(g, fast_params(123)).run();
  const auto b = AntColony(g, fast_params(123)).run();
  EXPECT_EQ(a.layering, b.layering);
  EXPECT_DOUBLE_EQ(a.metrics.objective, b.metrics.objective);
}

TEST(Colony, SeedChangesSearchTrajectory) {
  // Different seeds explore differently; on a 30-vertex graph the traces
  // should diverge (final layerings may coincide on easy instances).
  const auto g = test::random_battery(1, 99).front();
  const auto a = AntColony(g, fast_params(1)).run();
  const auto b = AntColony(g, fast_params(2)).run();
  ASSERT_FALSE(a.trace.empty());
  ASSERT_FALSE(b.trace.empty());
  bool any_difference = false;
  for (std::size_t t = 0; t < a.trace.size(); ++t) {
    if (a.trace[t].best_objective != b.trace[t].best_objective ||
        a.trace[t].total_moves != b.trace[t].total_moves) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(Colony, ThreadCountDoesNotChangeResult) {
  // The reduction is deterministic: 1 worker vs 4 workers must be
  // bit-identical.
  for (const auto& g : test::random_battery(6)) {
    auto serial_params = fast_params(55);
    serial_params.num_threads = 1;
    auto parallel_params = fast_params(55);
    parallel_params.num_threads = 4;
    const auto serial = AntColony(g, serial_params).run();
    const auto parallel = AntColony(g, parallel_params).run();
    EXPECT_EQ(serial.layering, parallel.layering);
    EXPECT_DOUBLE_EQ(serial.metrics.objective, parallel.metrics.objective);
  }
}

TEST(Colony, TraceHasOneEntryPerTour) {
  const auto g = test::small_dag();
  auto params = fast_params();
  params.num_tours = 7;
  const auto result = AntColony(g, params).run();
  ASSERT_EQ(result.trace.size(), 7u);
  for (std::size_t t = 0; t < result.trace.size(); ++t) {
    const auto& stats = result.trace[t];
    EXPECT_EQ(stats.tour, static_cast<int>(t) + 1);
    EXPECT_GT(stats.best_objective, 0.0);
    EXPECT_LE(stats.mean_objective, stats.best_objective + 1e-12);
    EXPECT_GT(stats.best_height, 0);
    EXPECT_GT(stats.best_width, 0.0);
  }
}

TEST(Colony, TraceDisabledWhenRequested) {
  auto params = fast_params();
  params.record_trace = false;
  const auto result = AntColony(test::small_dag(), params).run();
  EXPECT_TRUE(result.trace.empty());
}

TEST(Colony, ZeroToursReturnsStretchedLplBaseline) {
  auto params = fast_params();
  params.num_tours = 0;
  const auto g = test::small_dag();
  const auto result = AntColony(g, params).run();
  EXPECT_EQ(result.layering, baselines::longest_path_layering(g));
  EXPECT_DOUBLE_EQ(result.metrics.objective, result.initial_objective);
}

TEST(Colony, FindsOptimumOnTinyInstances) {
  // On <= 7-vertex graphs the colony should reach the brute-force optimum
  // objective most of the time; require it on the clean hand-built shapes.
  const auto check = [](const graph::Digraph& g) {
    auto params = fast_params(3);
    params.num_ants = 10;
    params.num_tours = 10;
    const auto result = AntColony(g, params).run();
    const auto optimal = baselines::brute_force_max_objective(
        g, static_cast<int>(g.num_vertices()));
    EXPECT_DOUBLE_EQ(result.metrics.objective,
                     layering::layering_objective(g, optimal));
  };
  check(test::diamond());
  check(test::triangle_with_long_edge());
  check(gen::path_dag(5));
}

TEST(Colony, RejectsCyclicInput) {
  graph::Digraph g(2);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  EXPECT_THROW(AntColony(g, fast_params()), support::CheckError);
}

TEST(Colony, RejectsInvalidParams) {
  const auto g = test::diamond();
  auto bad = fast_params();
  bad.num_ants = 0;
  EXPECT_THROW(AntColony(g, bad), support::CheckError);
  bad = fast_params();
  bad.rho = 1.5;
  EXPECT_THROW(AntColony(g, bad), support::CheckError);
  bad = fast_params();
  bad.eta_epsilon = 0.0;
  EXPECT_THROW(AntColony(g, bad), support::CheckError);
}

TEST(Colony, EmptyGraph) {
  graph::Digraph g;
  const auto result = AntColony(g, fast_params()).run();
  EXPECT_EQ(result.layering.num_vertices(), 0u);
}

TEST(Colony, SingleVertex) {
  graph::Digraph g(1);
  const auto result = AntColony(g, fast_params()).run();
  EXPECT_EQ(result.layering.layer(0), 1);
  EXPECT_EQ(result.metrics.height, 1);
}

TEST(Colony, CopiesOutliveTheSourceUnderCyclePolicies) {
  // Under a non-reject policy the colony owns Phase 0's reoriented DAG.
  // Copies and moves must carry their own: run after the source is gone
  // (ASan flags any read through it) and still equal core::solve.
  graph::Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  for (const CyclePolicy policy :
       {CyclePolicy::kGreedyReverse, CyclePolicy::kAcoFas}) {
    auto source = std::make_unique<AntColony>(g, fast_params(), policy);
    const AntColony copied = *source;
    const AntColony moved = std::move(*source);
    source.reset();

    SolveRequest request;
    request.graph = &g;
    request.params = fast_params();
    request.cycle_policy = policy;
    const SolveOutcome direct = solve(request);
    ASSERT_TRUE(direct.ok());
    for (const AntColony* colony : {&copied, &moved}) {
      const AcoResult result = colony->run();
      EXPECT_EQ(colony->reversed_edges(), direct.reversed_edges);
      EXPECT_EQ(result.layering, direct.result.layering);
      EXPECT_EQ(result.metrics.objective, direct.result.metrics.objective);
      EXPECT_EQ(result.initial_objective, direct.result.initial_objective);
    }
  }
}

/// Stretch-mode sweep: the colony must be valid and no worse than its start
/// under every stretch strategy (the ablation bench quantifies the quality
/// differences).
class ColonyStretchModes : public ::testing::TestWithParam<StretchMode> {};

TEST_P(ColonyStretchModes, ValidResults) {
  auto params = fast_params(13);
  params.stretch = GetParam();
  for (const auto& g : test::random_battery(8)) {
    const auto result = AntColony(g, params).run();
    EXPECT_TRUE(layering::is_valid_layering(g, result.layering));
    EXPECT_GT(result.metrics.objective, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, ColonyStretchModes,
                         ::testing::Values(StretchMode::kBetweenLayers,
                                           StretchMode::kTopBottom,
                                           StretchMode::kNone));

}  // namespace
}  // namespace acolay::core
