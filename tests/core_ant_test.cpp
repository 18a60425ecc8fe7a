// Tests for a single ant's walk (paper §IV-E, §VI, Alg. 4 inner loop).
#include "core/ant.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "baselines/longest_path.hpp"
#include "core/stretch.hpp"
#include "layering/metrics.hpp"
#include "support/alloc_guard.hpp"
#include "test_util.hpp"

namespace acolay::core {
namespace {

/// A graph's frozen CSR view, its stretched-LPL start layering, and one
/// reusable walk workspace — the state a colony hands each ant.
struct WalkFixture {
  graph::Digraph g;
  graph::CsrView csr;
  layering::Layering base;
  int num_layers = 0;
  WalkWorkspace ws;

  explicit WalkFixture(const graph::Digraph& graph,
                       StretchMode mode = StretchMode::kBetweenLayers)
      : g(graph), csr(g) {
    const auto lpl = baselines::longest_path_layering(g);
    auto stretched = stretch_layering(g, lpl, mode);
    base = stretched.layering;
    num_layers = std::max(stretched.num_layers, 1);
  }

  /// One walk from `base` on the rng stream `seed`.
  WalkResult walk(const PheromoneMatrix& tau, const AcoParams& params,
                  std::uint64_t seed) {
    WalkResult result;
    perform_walk(csr, base, num_layers, tau, params, support::Rng(seed), ws,
                 result);
    return result;
  }
};

TEST(AntWalk, ProducesValidLayeringOnBattery) {
  AcoParams params;
  params.seed = 5;
  for (const auto& g : test::random_battery()) {
    WalkFixture fx(g);
    const PheromoneMatrix tau(g.num_vertices(), fx.num_layers, params.tau0);
    const auto walk = fx.walk(tau, params, 11);
    EXPECT_TRUE(layering::is_valid_layering(g, walk.layering))
        << layering::validate_layering(g, walk.layering);
    EXPECT_GT(walk.objective, 0.0);
  }
}

TEST(AntWalk, ObjectiveMatchesCompactedMetrics) {
  const auto g = test::small_dag();
  WalkFixture fx(g);
  const AcoParams params;
  const PheromoneMatrix tau(g.num_vertices(), fx.num_layers, params.tau0);
  const auto walk = fx.walk(tau, params, 3);
  const auto compact = layering::normalized(walk.layering);
  const auto metrics = layering::compute_metrics(
      g, compact, layering::MetricsOptions{params.dummy_width});
  EXPECT_DOUBLE_EQ(walk.objective, metrics.objective);
  EXPECT_DOUBLE_EQ(walk.objective,
                   1.0 / (metrics.height + metrics.width_incl_dummies));
}

TEST(AntWalk, DeterministicGivenRngStream) {
  const auto g = test::random_battery(1, 42).front();
  WalkFixture fx(g);
  const AcoParams params;
  const PheromoneMatrix tau(g.num_vertices(), fx.num_layers, params.tau0);
  const auto a = fx.walk(tau, params, 9);
  const auto b = fx.walk(tau, params, 9);
  EXPECT_EQ(a.layering, b.layering);
  EXPECT_DOUBLE_EQ(a.objective, b.objective);
  EXPECT_EQ(a.moves, b.moves);
}

TEST(AntWalk, PureHeuristicPrefersEmptierLayers) {
  // alpha = 0 turns the rule into the stochastic greedy width heuristic
  // (paper §IV-D): starting from a one-layer-heavy stretched layering the
  // ant must spread vertices out, reducing max width.
  const auto g = gen::complete_bipartite_dag(3, 3);
  WalkFixture fx(g);
  AcoParams params;
  params.alpha = 0.0;
  params.beta = 3.0;
  const PheromoneMatrix tau(g.num_vertices(), fx.num_layers, params.tau0);
  const layering::MetricsOptions opts{params.dummy_width};
  const double base_width =
      layering::layering_width(g, layering::normalized(fx.base), opts);
  const auto walk = fx.walk(tau, params, 1);
  EXPECT_LE(walk.metrics.width_incl_dummies, base_width);
}

TEST(AntWalk, PurePheromoneFollowsTrail) {
  // beta = 0, tau sharply concentrated on the base coupling: the greedy
  // rule must keep every vertex on its base layer.
  const auto g = test::small_dag();
  WalkFixture fx(g);
  AcoParams params;
  params.alpha = 2.0;
  params.beta = 0.0;
  params.tie_break = TieBreak::kFirst;
  PheromoneMatrix tau(g.num_vertices(), fx.num_layers, 0.001);
  // rho = 0 keeps every value: the update only deposits on the base.
  tau.update(0.0, fx.base.raw(), 10.0,
             -std::numeric_limits<double>::infinity(),
             std::numeric_limits<double>::infinity());
  const auto walk = fx.walk(tau, params, 2);
  EXPECT_EQ(walk.layering, fx.base);
  EXPECT_EQ(walk.moves, 0);
}

TEST(AntWalk, RouletteSelectionStaysValid) {
  AcoParams params;
  params.selection = SelectionRule::kRoulette;
  for (const auto& g : test::random_battery(10)) {
    WalkFixture fx(g);
    const PheromoneMatrix tau(g.num_vertices(), fx.num_layers, params.tau0);
    const auto walk = fx.walk(tau, params, 21);
    EXPECT_TRUE(layering::is_valid_layering(g, walk.layering));
  }
}

TEST(AntWalk, MaxWidthConstraintRespectedWhenFeasible) {
  // Capacity W = 2 on a wide bipartite graph: the walk must never move a
  // vertex onto a layer whose width would exceed W (the current layer is
  // exempt, so the *final* widths can exceed W only where the base already
  // did).
  const auto g = gen::complete_bipartite_dag(4, 4);
  WalkFixture fx(g);
  AcoParams params;
  params.alpha = 0.0;
  params.beta = 2.0;
  params.max_width = 6.0;
  const PheromoneMatrix tau(g.num_vertices(), fx.num_layers, params.tau0);
  const auto walk = fx.walk(tau, params, 7);
  EXPECT_TRUE(layering::is_valid_layering(g, walk.layering));
}

TEST(AntWalk, FixedPointWhenNoLayersAvailable) {
  // On a path graph every span is a single layer: the ant cannot move
  // anything.
  const auto g = gen::path_dag(6);
  WalkFixture fx(g);
  const AcoParams params;
  const PheromoneMatrix tau(g.num_vertices(), fx.num_layers, params.tau0);
  const auto walk = fx.walk(tau, params, 4);
  EXPECT_EQ(walk.moves, 0);
  EXPECT_EQ(walk.layering, fx.base);
}

TEST(AntWalk, EmptyGraph) {
  WalkFixture fx{graph::Digraph{}};
  const AcoParams params;
  const PheromoneMatrix tau(0, fx.num_layers, params.tau0);
  const auto walk = fx.walk(tau, params, 1);
  EXPECT_EQ(walk.layering.num_vertices(), 0u);
}

TEST(AntWalk, SteadyStateWalkIsAllocationFree) {
  // Pins the zero-allocation claim on the walk's contract: once the
  // workspace is reserved for (num_vertices, num_layers), walks are
  // heap-silent — for any rng stream, not just a replay. (Warm-up alone is
  // not enough: a different stream evolves different layer spans, so the
  // per-vertex score buffer's high-water mark is stream-dependent; that is
  // why the batch solver reserves for the largest admitted graph.) The
  // guard is a no-op in release/sanitizer builds; the debug CI leg
  // enforces it.
  const auto g = test::random_battery(1, 42).front();
  WalkFixture fx(g);
  const AcoParams params;
  const PheromoneMatrix tau(g.num_vertices(), fx.num_layers, params.tau0);
  fx.ws.reserve(g.num_vertices(), static_cast<std::size_t>(fx.num_layers));
  WalkResult result;
  perform_walk(fx.csr, fx.base, fx.num_layers, tau, params, support::Rng(9),
               fx.ws, result);
  const auto expected = result.layering;

  ACOLAY_ASSERT_NO_ALLOC(perform_walk(fx.csr, fx.base, fx.num_layers, tau,
                                      params, support::Rng(9), fx.ws, result));
  EXPECT_EQ(result.layering, expected);

  // A *different* rng stream visits vertices in another order and makes
  // different moves, but the reserved buffers bound every stream.
  ACOLAY_ASSERT_NO_ALLOC(perform_walk(fx.csr, fx.base, fx.num_layers, tau,
                                      params, support::Rng(1234), fx.ws,
                                      result));
  EXPECT_TRUE(layering::is_valid_layering(g, result.layering));
}

/// Selection-rule sweep over the battery: both rules, both tie-breaks.
class AntWalkRules
    : public ::testing::TestWithParam<std::tuple<SelectionRule, TieBreak>> {};

TEST_P(AntWalkRules, AlwaysValidAndReproducible) {
  const auto [rule, tie] = GetParam();
  AcoParams params;
  params.selection = rule;
  params.tie_break = tie;
  for (const auto& g : test::random_battery(8)) {
    WalkFixture fx(g);
    const PheromoneMatrix tau(g.num_vertices(), fx.num_layers, params.tau0);
    const auto a = fx.walk(tau, params, 33);
    const auto b = fx.walk(tau, params, 33);
    EXPECT_TRUE(layering::is_valid_layering(g, a.layering));
    EXPECT_EQ(a.layering, b.layering);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RuleMatrix, AntWalkRules,
    ::testing::Combine(::testing::Values(SelectionRule::kGreedyMax,
                                         SelectionRule::kRoulette),
                       ::testing::Values(TieBreak::kRandom,
                                         TieBreak::kFirst)));

}  // namespace
}  // namespace acolay::core
