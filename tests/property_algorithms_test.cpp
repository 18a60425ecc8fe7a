// Cross-cutting property sweep: every layering algorithm, on every
// generator model, at several sizes and seeds, must produce a valid
// layering whose metrics satisfy the structural invariants. This is the
// suite that catches interface drift between the substrates.
#include <gtest/gtest.h>

#include "baselines/coffman_graham.hpp"
#include "baselines/longest_path.hpp"
#include "baselines/min_width.hpp"
#include "baselines/network_simplex.hpp"
#include "baselines/promote.hpp"
#include "core/colony.hpp"
#include "core/refine.hpp"
#include "gen/random_dag.hpp"
#include "graph/algorithms.hpp"
#include "harness/algorithms.hpp"
#include "layering/metrics.hpp"
#include "layering/proper.hpp"
#include "test_util.hpp"

namespace acolay {
namespace {

enum class Model { kGnm, kNorth, kLayered, kTree, kSeriesParallel };

std::string model_name(Model model) {
  switch (model) {
    case Model::kGnm: return "gnm";
    case Model::kNorth: return "north";
    case Model::kLayered: return "layered";
    case Model::kTree: return "tree";
    case Model::kSeriesParallel: return "series_parallel";
  }
  return "?";
}

graph::Digraph make_graph(Model model, std::size_t size,
                          support::Rng& rng) {
  switch (model) {
    case Model::kGnm: {
      gen::GnmParams params;
      params.num_vertices = size;
      params.num_edges = static_cast<std::size_t>(
          1.5 * static_cast<double>(size));
      return gen::random_dag(params, rng);
    }
    case Model::kNorth: {
      gen::NorthParams params;
      params.num_vertices = size;
      params.num_edges = static_cast<std::size_t>(
          1.3 * static_cast<double>(size));
      return gen::random_north_dag(params, rng);
    }
    case Model::kLayered: {
      gen::LayeredParams params;
      params.num_layers = 2 + static_cast<int>(size / 8);
      params.max_per_layer = 5;
      return gen::random_layered_dag(params, rng);
    }
    case Model::kTree:
      return gen::random_tree_dag(size, rng, 2.0);
    case Model::kSeriesParallel:
      return gen::random_series_parallel(size, rng);
  }
  return graph::Digraph{};
}

struct Case {
  Model model;
  harness::Algorithm algorithm;
};

class AlgorithmModelSweep : public ::testing::TestWithParam<Case> {};

TEST_P(AlgorithmModelSweep, ValidLayeringsWithSoundMetrics) {
  const auto [model, algorithm] = GetParam();
  harness::RunOptions run;
  run.aco.num_ants = 4;
  run.aco.num_tours = 3;
  support::Rng root(0xFEEDu);
  for (const std::size_t size : {6u, 18u, 40u}) {
    for (int repeat = 0; repeat < 2; ++repeat) {
      support::Rng rng = root.fork(static_cast<std::uint64_t>(size),
                                   static_cast<std::uint64_t>(repeat),
                                   static_cast<std::uint64_t>(model));
      const auto g = make_graph(model, size, rng);
      ASSERT_TRUE(graph::is_dag(g)) << model_name(model);
      run.aco.seed = size * 31 + static_cast<std::size_t>(repeat);
      const auto result = harness::run_algorithm(algorithm, g, run);
      ASSERT_TRUE(layering::is_valid_layering(g, result.layering))
          << model_name(model) << "/" << harness::algorithm_label(algorithm)
          << ": " << layering::validate_layering(g, result.layering);

      const auto m = layering::compute_metrics(g, result.layering);
      // Universal invariants of any valid layering.
      EXPECT_GE(m.height, baselines::minimum_height(g));
      EXPECT_GE(m.width_incl_dummies, m.width_excl_dummies);
      EXPECT_EQ(m.dummy_count,
                m.total_span - static_cast<std::int64_t>(g.num_edges()));
      EXPECT_GE(m.dummy_count, 0);
      EXPECT_LE(m.edge_density, static_cast<std::int64_t>(g.num_edges()));
      EXPECT_GT(m.objective, 0.0);
      // Height x max-real-width covers all vertices.
      EXPECT_GE(static_cast<double>(m.height) * m.width_excl_dummies,
                static_cast<double>(g.num_vertices()) /
                    std::max(1.0, g.total_vertex_width() /
                                      static_cast<double>(std::max<std::size_t>(
                                          g.num_vertices(), 1))) *
                    0.99);
      // The proper graph materialisation agrees with the dummy count.
      const auto proper = layering::make_proper(g, result.layering);
      EXPECT_EQ(static_cast<std::int64_t>(proper.dummy_origin.size()),
                m.dummy_count);
    }
  }
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (const auto model :
       {Model::kGnm, Model::kNorth, Model::kLayered, Model::kTree,
        Model::kSeriesParallel}) {
    for (const auto algorithm :
         {harness::Algorithm::kLongestPath,
          harness::Algorithm::kLongestPathPromoted,
          harness::Algorithm::kMinWidth,
          harness::Algorithm::kMinWidthPromoted,
          harness::Algorithm::kAntColony,
          harness::Algorithm::kNetworkSimplex,
          harness::Algorithm::kCoffmanGraham}) {
      cases.push_back({model, algorithm});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AlgorithmModelSweep, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<Case>& param_info) {
      std::string name = model_name(param_info.param.model) + "_" +
                         harness::algorithm_label(param_info.param.algorithm);
      // gtest parameter names must be alphanumeric ('+' appears in labels).
      for (char& ch : name) {
        if (std::isalnum(static_cast<unsigned char>(ch)) == 0) ch = '_';
      }
      return name;
    });

// Cross-algorithm relations that must hold on every graph, whatever the
// model: LPL minimal height; PL never increases dummies; network simplex
// minimises total span among all algorithms.
class CrossAlgorithmRelations : public ::testing::TestWithParam<Model> {};

TEST_P(CrossAlgorithmRelations, OrderingsHold) {
  const auto model = GetParam();
  support::Rng root(0xBEEFu);
  for (int repeat = 0; repeat < 4; ++repeat) {
    support::Rng rng = root.fork(static_cast<std::uint64_t>(repeat),
                                 static_cast<std::uint64_t>(model));
    const auto g = make_graph(model, 24, rng);
    const auto lpl = baselines::longest_path_layering(g);
    const auto ns = baselines::network_simplex_layering(g);
    const auto pl = baselines::promoted(g, lpl);
    const auto mw = baselines::min_width_layering_best(g);

    EXPECT_LE(layering::layering_height(lpl),
              layering::layering_height(ns));
    EXPECT_LE(layering::layering_height(lpl),
              layering::layering_height(mw));
    EXPECT_LE(layering::dummy_vertex_count(g, pl),
              layering::dummy_vertex_count(g, lpl));
    EXPECT_LE(layering::total_edge_span(g, ns),
              layering::total_edge_span(g, pl));
    EXPECT_LE(layering::total_edge_span(g, ns),
              layering::total_edge_span(g, mw));
  }
}

INSTANTIATE_TEST_SUITE_P(Models, CrossAlgorithmRelations,
                         ::testing::Values(Model::kGnm, Model::kNorth,
                                           Model::kLayered, Model::kTree,
                                           Model::kSeriesParallel),
                         [](const ::testing::TestParamInfo<Model>& param_info) {
                           return model_name(param_info.param);
                         });

}  // namespace
}  // namespace acolay
