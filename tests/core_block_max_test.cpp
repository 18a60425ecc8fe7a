// The greedy walk's block-max argmax against the full scan it replaces.
// max_width = DBL_MAX routes a walk through the full scan (a capacity is
// set) but excludes no layer, so every walk and every colony run must
// come out bit-identical to max_width = 0, which takes the block
// summaries: the same layering, moves, objective and, through the tie
// count, the same rng stream. Covered: random and wide layered DAGs,
// every cycle policy, both tie-breaks, alpha 0 / 1 / 2.5, rho 0.3 / 0.5,
// warm pheromone with many runs, an edgeless graph whose layers all tie
// (the k-th tie lands blocks away), and widths that differ only in their
// last bits, where rounding merges the runner-up into the block maximum.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "baselines/longest_path.hpp"
#include "core/ant.hpp"
#include "core/request.hpp"
#include "core/stretch.hpp"
#include "gen/random_dag.hpp"
#include "graph/csr.hpp"
#include "support/rng.hpp"

namespace acolay::core {
namespace {

constexpr double kNoCapacity = std::numeric_limits<double>::max();
constexpr double kInf = std::numeric_limits<double>::infinity();

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

graph::Digraph deep_graph(std::size_t n, support::Rng& rng) {
  gen::GnmParams shape;
  shape.num_vertices = n;
  shape.num_edges = n + 3 * n / 10;
  return gen::random_dag(shape, rng);
}

graph::Digraph wide_graph(std::size_t n, support::Rng& rng) {
  gen::LayeredParams shape;
  shape.num_layers = 8;
  shape.min_per_layer = static_cast<int>(n / 8);
  shape.max_per_layer = shape.min_per_layer;
  shape.adjacent_edge_prob = 9.0 / static_cast<double>(n);
  shape.long_edge_prob = 0.9 / static_cast<double>(n);
  return gen::random_layered_dag(shape, rng);
}

/// One walk through each argmax from the same state; both must agree.
void expect_same_walk(const graph::CsrView& csr,
                      const layering::Layering& base, int num_layers,
                      const PheromoneMatrix& tau, AcoParams params,
                      std::uint64_t seed, const char* what) {
  WalkWorkspace ws;
  WalkResult block_max;
  params.max_width = 0.0;
  perform_walk(csr, base, num_layers, tau, params, support::Rng(seed), ws,
               block_max);
  WalkResult full_scan;
  params.max_width = kNoCapacity;
  perform_walk(csr, base, num_layers, tau, params, support::Rng(seed), ws,
               full_scan);
  EXPECT_EQ(block_max.layering, full_scan.layering) << what;
  EXPECT_EQ(block_max.moves, full_scan.moves) << what;
  EXPECT_EQ(bits(block_max.objective), bits(full_scan.objective)) << what;
}

/// A warm matrix: `tours` colony-shaped updates with deposits that wander
/// across the layers, so rows hold many runs, some of them short.
PheromoneMatrix warm_tau(std::size_t n, int num_layers, const AcoParams& params,
                         int tours, support::Rng& rng) {
  PheromoneMatrix tau(n, num_layers, params.tau0);
  std::vector<int> deposit_layers(n);
  for (auto& layer : deposit_layers) {
    layer = static_cast<int>(rng.uniform_int(1, num_layers));
  }
  for (int tour = 0; tour < tours; ++tour) {
    for (auto& layer : deposit_layers) {
      if (rng.bernoulli(0.3)) {
        layer = static_cast<int>(rng.uniform_int(1, num_layers));
      }
    }
    tau.update(params.rho, deposit_layers, rng.uniform(0.0, 0.5), -kInf,
               kInf);
  }
  return tau;
}

TEST(BlockMaxWalk, WalksMatchFullScanOnRandomAndWideDags) {
  support::Rng rng(20);
  for (int round = 0; round < 12; ++round) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(40, 260));
    const graph::Digraph g =
        round % 2 == 0 ? deep_graph(n, rng) : wide_graph(n, rng);
    const graph::CsrView csr(g);
    const auto lpl = baselines::longest_path_layering(g);
    const auto stretched =
        stretch_layering(g, lpl, StretchMode::kBetweenLayers);
    const int num_layers = std::max(stretched.num_layers, 1);
    for (const double alpha : {0.0, 1.0, 2.5}) {
      for (const double rho : {0.3, 0.5}) {
        for (const TieBreak tie : {TieBreak::kRandom, TieBreak::kFirst}) {
          AcoParams params;
          params.alpha = alpha;
          params.rho = rho;
          params.tie_break = tie;
          const PheromoneMatrix cold(g.num_vertices(), num_layers,
                                     params.tau0);
          expect_same_walk(csr, stretched.layering, num_layers, cold, params,
                           rng(), "cold tau");
          const PheromoneMatrix warm =
              warm_tau(g.num_vertices(), num_layers, params, 12, rng);
          expect_same_walk(csr, stretched.layering, num_layers, warm, params,
                           rng(), "warm tau");
        }
      }
    }
    if (HasFailure()) {
      ADD_FAILURE() << "round " << round << " (n=" << n << ")";
      return;
    }
  }
}

TEST(BlockMaxWalk, ColoniesMatchFullScanUnderEveryCyclePolicy) {
  support::Rng rng(21);
  struct Case {
    graph::Digraph g;
    CyclePolicy policy;
  };
  std::vector<Case> cases;
  cases.push_back({deep_graph(180, rng), CyclePolicy::kReject});
  cases.push_back({wide_graph(200, rng), CyclePolicy::kReject});
  for (const CyclePolicy policy :
       {CyclePolicy::kGreedyReverse, CyclePolicy::kAcoFas}) {
    gen::PlantedCycleParams planted;
    planted.base.num_vertices = 150;
    planted.base.num_edges = 195;
    planted.num_cycles = 4;
    cases.push_back({gen::random_planted_cycles(planted, rng).graph, policy});
  }
  for (const Case& c : cases) {
    for (const double alpha : {0.0, 1.0, 2.5}) {
      for (const double rho : {0.3, 0.5}) {
        for (const TieBreak tie : {TieBreak::kRandom, TieBreak::kFirst}) {
          SolveRequest request;
          request.graph = &c.g;
          request.cycle_policy = c.policy;
          request.params.alpha = alpha;
          request.params.rho = rho;
          request.params.tie_break = tie;
          request.params.seed = rng();
          request.params.max_width = 0.0;
          const SolveOutcome block_max = solve(request);
          request.params.max_width = kNoCapacity;
          const SolveOutcome full_scan = solve(request);
          ASSERT_TRUE(block_max.ok()) << block_max.message;
          ASSERT_TRUE(full_scan.ok()) << full_scan.message;
          EXPECT_EQ(block_max.result.layering, full_scan.result.layering);
          EXPECT_EQ(bits(block_max.result.metrics.objective),
                    bits(full_scan.result.metrics.objective));
          ASSERT_EQ(block_max.result.trace.size(),
                    full_scan.result.trace.size());
          for (std::size_t t = 0; t < block_max.result.trace.size(); ++t) {
            EXPECT_EQ(bits(block_max.result.trace[t].mean_objective),
                      bits(full_scan.result.trace[t].mean_objective));
            EXPECT_EQ(block_max.result.trace[t].total_moves,
                      full_scan.result.trace[t].total_moves);
          }
          if (HasFailure()) {
            ADD_FAILURE() << "policy " << cycle_policy_name(c.policy)
                          << ", alpha " << alpha << ", rho " << rho;
            return;
          }
        }
      }
    }
  }
}

TEST(BlockMaxWalk, EdgelessGraphTiesAcrossBlocks) {
  // No edges: every span is all L = n layers. The stretched start puts
  // every vertex on one layer, so the empty layers all hold the maximal
  // eta and the tie count runs into the hundreds; the k-th tie of the
  // random draw lies blocks after the first.
  const graph::Digraph g(200);
  const graph::CsrView csr(g);
  const auto lpl = baselines::longest_path_layering(g);
  const auto stretched = stretch_layering(g, lpl, StretchMode::kBetweenLayers);
  const int num_layers = std::max(stretched.num_layers, 1);
  ASSERT_GE(num_layers, 4 * kEtaBlockLayers);
  for (const TieBreak tie : {TieBreak::kRandom, TieBreak::kFirst}) {
    AcoParams params;
    params.tie_break = tie;
    const PheromoneMatrix tau(g.num_vertices(), num_layers, params.tau0);
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      expect_same_walk(csr, stretched.layering, num_layers, tau, params, seed,
                       "edgeless");
    }
    SolveRequest request;
    request.graph = &g;
    request.params = params;
    const SolveOutcome block_max = solve(request);
    request.params.max_width = kNoCapacity;
    const SolveOutcome full_scan = solve(request);
    EXPECT_EQ(block_max.result.layering, full_scan.result.layering);
  }
}

TEST(BlockMaxWalk, RoundingMergedMaximumFallsBackToTheFullScan) {
  // One vertex per layer, no edges. Layers 1 and 2 hold widths a few ulps
  // apart whose eta = 1 / (0.1 + w) are adjacent doubles; every other
  // layer is wider. A pheromone factor p in (1.1, 2) can round p * eta
  // of both to the same score, so the first block holds two maximal
  // layers although its summary counts one: the walk must score that
  // block layer by layer, and the tie draw must see both.
  const AcoParams defaults;
  const auto eta = [&](double width) {
    return 1.0 / (defaults.eta_epsilon + width);
  };
  double narrow = 0.0;
  double near = 0.0;
  for (int m = 0; m < 1000 && narrow == 0.0; ++m) {
    const double a = 1.0 + std::ldexp(static_cast<double>(m), -52);
    const double b = std::nextafter(a, 2.0);
    if (std::nextafter(eta(a), 0.0) == eta(b)) {
      narrow = a;
      near = b;
    }
  }
  ASSERT_GT(narrow, 0.0) << "no width pair with adjacent eta";
  double tau0 = 0.0;
  for (int k = 103; k < 1024 && tau0 == 0.0; ++k) {
    const double p = 1.0 + k / 1024.0;
    if (p * eta(near) == p * eta(narrow)) tau0 = p;
  }
  ASSERT_GT(tau0, 0.0) << "no pheromone factor merges the two";

  const std::size_t n = 4 * kEtaBlockLayers;
  graph::Digraph g(n);
  layering::Layering base(n);
  for (graph::VertexId v = 0; static_cast<std::size_t>(v) < n; ++v) {
    g.set_width(v, v == 0 ? narrow : v == 1 ? near : 2.0);
    base.set_layer(v, static_cast<int>(v) + 1);
  }
  const graph::CsrView csr(g);
  AcoParams params;
  params.beta = 1.0;
  params.tau0 = tau0;
  const PheromoneMatrix tau(n, static_cast<int>(n), tau0);
  for (const TieBreak tie : {TieBreak::kRandom, TieBreak::kFirst}) {
    params.tie_break = tie;
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
      expect_same_walk(csr, base, static_cast<int>(n), tau, params, seed,
                       "merged maximum");
    }
  }
}

}  // namespace
}  // namespace acolay::core
