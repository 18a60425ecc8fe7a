// End-to-end integration tests spanning every subsystem: corpus ->
// algorithms -> metrics -> proper graph -> ordering -> coordinates -> SVG,
// plus the I/O round trips on corpus graphs and the experiment harness
// feeding the figure emitters. These are the tests that fail when two
// modules disagree about an invariant.
#include <gtest/gtest.h>

#include <sstream>

#include "core/refine.hpp"
#include "gen/corpus.hpp"
#include "graph/algorithms.hpp"
#include "harness/experiment.hpp"
#include "harness/figures.hpp"
#include "io/dot.hpp"
#include "io/gml.hpp"
#include "io/json.hpp"
#include "layering/proper.hpp"
#include "sugiyama/ascii.hpp"
#include "sugiyama/pipeline.hpp"
#include "test_util.hpp"

namespace acolay {
namespace {

gen::Corpus small_corpus() {
  gen::CorpusParams params;
  params.total_graphs = 38;  // two per group
  return gen::make_corpus(params);
}

TEST(Integration, CorpusGraphsSurviveTheWholePipeline) {
  const auto corpus = small_corpus();
  sugiyama::LayoutOptions opts;
  opts.aco.num_ants = 4;
  opts.aco.num_tours = 3;
  int drawn = 0;
  for (std::size_t i = 0; i < corpus.graphs.size(); i += 7) {
    const auto& g = corpus.graphs[i];
    opts.aco.seed = i;
    const auto layout = sugiyama::compute_layout(g, opts);
    ASSERT_TRUE(layering::is_valid_layering(layout.dag, layout.layering));
    ASSERT_TRUE(layering::is_valid_layering(layout.proper.graph,
                                            layout.proper.layering));
    // Coordinates exist for every proper vertex and layers share y.
    ASSERT_EQ(layout.coords.x.size(), layout.proper.graph.num_vertices());
    for (const auto& layer : layout.orders) {
      for (std::size_t k = 1; k < layer.size(); ++k) {
        EXPECT_DOUBLE_EQ(
            layout.coords.y[static_cast<std::size_t>(layer[k])],
            layout.coords.y[static_cast<std::size_t>(layer[k - 1])]);
      }
    }
    const auto svg = sugiyama::render_svg(layout.proper, layout.coords);
    EXPECT_NE(svg.find("</svg>"), std::string::npos);
    ++drawn;
  }
  EXPECT_GE(drawn, 5);
}

TEST(Integration, CorpusRoundTripsThroughEveryFormat) {
  const auto corpus = small_corpus();
  for (std::size_t i = 0; i < corpus.graphs.size(); i += 9) {
    const auto& g = corpus.graphs[i];
    const auto via_dot = io::from_dot(io::to_dot(g));
    const auto via_gml = io::from_gml(io::to_gml(g));
    EXPECT_EQ(via_dot.num_edges(), g.num_edges());
    EXPECT_EQ(via_gml.num_edges(), g.num_edges());
    for (const auto& [u, v] : g.edges()) {
      EXPECT_TRUE(via_dot.has_edge(u, v));
      EXPECT_TRUE(via_gml.has_edge(u, v));
    }
  }
}

TEST(Integration, JsonReportForAcoResultIsBalanced) {
  const auto g = test::small_dag();
  core::AcoParams params;
  params.num_ants = 4;
  params.num_tours = 3;
  const auto result = core::hybrid_aco_layering(g, params);
  const auto json = io::layering_report_json(g, result.layering);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  EXPECT_NE(json.find("\"objective\":"), std::string::npos);
}

TEST(Integration, AsciiAndSvgAgreeOnLayerStructure) {
  const auto g = test::random_battery(1, 55).front();
  core::AcoParams params;
  params.num_ants = 4;
  params.num_tours = 3;
  const auto l = core::AntColony(g, params).run().layering;
  const auto ascii = sugiyama::render_ascii(g, l);
  // One "Lk|" row per occupied layer.
  std::size_t rows = 0, pos = 0;
  while ((pos = ascii.find("L", pos)) != std::string::npos) {
    ++rows;
    ++pos;
  }
  EXPECT_EQ(static_cast<int>(rows), layering::layering_height(l));
}

TEST(Integration, HarnessFiguresConsistentWithDirectRuns) {
  // The harness's aggregated mean for a single-graph group must equal a
  // direct measurement of that graph.
  gen::CorpusParams params;
  params.total_graphs = 19;
  const auto corpus = gen::make_corpus(params);
  harness::ExperimentOptions opts;
  opts.num_threads = 2;
  const auto result = harness::run_corpus_experiment(
      corpus, {harness::Algorithm::kLongestPath}, opts);
  for (std::size_t group = 0; group < corpus.num_groups(); ++group) {
    const auto members = corpus.group_members(static_cast<int>(group));
    ASSERT_EQ(members.size(), 1u);
    const auto& g = corpus.graphs[members.front()];
    const auto direct = harness::run_algorithm(
        harness::Algorithm::kLongestPath, g, opts.run);
    const auto metrics = layering::compute_metrics(g, direct.layering);
    EXPECT_DOUBLE_EQ(
        harness::criterion_mean(result.cells[group][0],
                                harness::Criterion::kWidthInclDummies),
        metrics.width_incl_dummies);
    EXPECT_DOUBLE_EQ(
        harness::criterion_mean(result.cells[group][0],
                                harness::Criterion::kHeight),
        static_cast<double>(metrics.height));
  }
}

TEST(Integration, StretchedWalkStateStaysConsistentOverLongRuns) {
  // Failure-injection style soak: a long colony run on a graph with heavy
  // vertex-width variance — widths, spans, and validity must hold up.
  auto g = test::random_battery(1, 66).front();
  support::Rng rng(8);
  for (graph::VertexId v = 0;
       static_cast<std::size_t>(v) < g.num_vertices(); ++v) {
    g.set_width(v, rng.uniform(0.25, 4.0));
  }
  core::AcoParams params;
  params.num_ants = 6;
  params.num_tours = 15;
  params.stagnation = core::StagnationPolicy::kResetPheromone;
  params.dummy_width = 0.7;
  const auto result = core::AntColony(g, params).run();
  EXPECT_TRUE(layering::is_valid_layering(g, result.layering));
  const auto recomputed = layering::compute_metrics(
      g, result.layering, layering::MetricsOptions{0.7});
  EXPECT_DOUBLE_EQ(result.metrics.objective, recomputed.objective);
}

TEST(Integration, CyclicInputEndToEndThroughDotTooling) {
  // DOT text with a cycle -> parse -> pipeline -> ranked DOT out.
  const std::string dot = R"(digraph m {
    a -> b; b -> c; c -> a;  // cycle
    c -> d; d -> e;
  })";
  const auto g = io::from_dot(dot);
  EXPECT_FALSE(graph::is_dag(g));
  sugiyama::LayoutOptions opts;
  opts.aco.num_ants = 4;
  opts.aco.num_tours = 3;
  const auto layout = sugiyama::compute_layout(g, opts);
  EXPECT_EQ(layout.reversed_edges.size(), 1u);
  io::DotWriteOptions dot_opts;
  dot_opts.layering = &layout.layering;
  const auto out = io::to_dot(layout.dag, dot_opts);
  EXPECT_NE(out.find("rank=same"), std::string::npos);
}

}  // namespace
}  // namespace acolay
