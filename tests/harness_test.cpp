// Tests for the experiment harness: algorithm registry, corpus runner,
// figure emission.
#include "harness/experiment.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "harness/figures.hpp"
#include "layering/metrics.hpp"
#include "test_util.hpp"

namespace acolay::harness {
namespace {

TEST(Registry, NamesAndLabelsAreDistinct) {
  const std::vector<Algorithm> all{
      Algorithm::kLongestPath,    Algorithm::kLongestPathPromoted,
      Algorithm::kMinWidth,       Algorithm::kMinWidthPromoted,
      Algorithm::kAntColony,      Algorithm::kNetworkSimplex,
      Algorithm::kCoffmanGraham};
  std::set<std::string> names, labels;
  for (const auto alg : all) {
    names.insert(algorithm_name(alg));
    labels.insert(algorithm_label(alg));
  }
  EXPECT_EQ(names.size(), all.size());
  EXPECT_EQ(labels.size(), all.size());
}

TEST(Registry, PaperSetMatchesFigureLegends) {
  const auto algs = paper_algorithms();
  ASSERT_EQ(algs.size(), 5u);
  EXPECT_EQ(algorithm_name(algs[0]), "Longest Path Layering (LPL)");
  EXPECT_EQ(algorithm_name(algs[1]), "LPL with Promote Layering");
  EXPECT_EQ(algorithm_name(algs[4]), "Ant Colony");
}

TEST(Registry, EveryAlgorithmProducesValidLayerings) {
  RunOptions opts;
  opts.aco.num_ants = 4;
  opts.aco.num_tours = 3;
  const std::vector<Algorithm> all{
      Algorithm::kLongestPath,    Algorithm::kLongestPathPromoted,
      Algorithm::kMinWidth,       Algorithm::kMinWidthPromoted,
      Algorithm::kAntColony,      Algorithm::kNetworkSimplex,
      Algorithm::kCoffmanGraham};
  for (const auto& g : test::random_battery(4)) {
    for (const auto alg : all) {
      const auto result = run_algorithm(alg, g, opts);
      EXPECT_TRUE(layering::is_valid_layering(g, result.layering))
          << algorithm_label(alg);
      EXPECT_GE(result.seconds, 0.0);
    }
  }
}

gen::Corpus tiny_corpus() {
  gen::CorpusParams params;
  params.total_graphs = 19;  // one per group
  return gen::make_corpus(params);
}

ExperimentResult tiny_experiment() {
  ExperimentOptions opts;
  opts.run.aco.num_ants = 4;
  opts.run.aco.num_tours = 3;
  opts.num_threads = 2;
  return run_corpus_experiment(
      tiny_corpus(),
      {Algorithm::kLongestPath, Algorithm::kAntColony}, opts);
}

TEST(Experiment, AggregatesEveryGroupAndAlgorithm) {
  const auto result = tiny_experiment();
  ASSERT_EQ(result.group_vertices.size(), 19u);
  ASSERT_EQ(result.algorithms.size(), 2u);
  for (const auto& group : result.cells) {
    ASSERT_EQ(group.size(), 2u);
    for (const auto& cell : group) {
      EXPECT_EQ(cell.height.count(), 1u);  // one graph per group
      EXPECT_GT(cell.height.mean(), 0.0);
      EXPECT_GT(cell.width_incl.mean(), 0.0);
      EXPECT_GE(cell.width_incl.mean(), cell.width_excl.mean());
    }
  }
}

TEST(Experiment, DeterministicAcrossThreadCounts) {
  ExperimentOptions serial;
  serial.run.aco.num_ants = 4;
  serial.run.aco.num_tours = 3;
  serial.num_threads = 1;
  ExperimentOptions parallel = serial;
  parallel.num_threads = 4;
  const auto corpus = tiny_corpus();
  const std::vector<Algorithm> algs{Algorithm::kAntColony};
  const auto a = run_corpus_experiment(corpus, algs, serial);
  const auto b = run_corpus_experiment(corpus, algs, parallel);
  for (std::size_t group = 0; group < a.cells.size(); ++group) {
    EXPECT_DOUBLE_EQ(a.cells[group][0].width_incl.mean(),
                     b.cells[group][0].width_incl.mean());
    EXPECT_DOUBLE_EQ(a.cells[group][0].objective.mean(),
                     b.cells[group][0].objective.mean());
  }
}

TEST(Figures, CriterionMeanSelectsTheRightAccumulator) {
  GroupStats cell;
  cell.width_incl.add(4.0);
  cell.height.add(7.0);
  cell.runtime_ms.add(1.5);
  EXPECT_DOUBLE_EQ(criterion_mean(cell, Criterion::kWidthInclDummies), 4.0);
  EXPECT_DOUBLE_EQ(criterion_mean(cell, Criterion::kHeight), 7.0);
  EXPECT_DOUBLE_EQ(criterion_mean(cell, Criterion::kRuntimeMs), 1.5);
}

TEST(Figures, PrintSeriesHasOneRowPerGroup) {
  const auto result = tiny_experiment();
  std::ostringstream os;
  print_series(os, result, Criterion::kHeight, "Test series");
  const auto text = os.str();
  EXPECT_NE(text.find("Test series"), std::string::npos);
  EXPECT_NE(text.find("LPL"), std::string::npos);
  EXPECT_NE(text.find("AntColony"), std::string::npos);
  // 19 data rows: every group's vertex count appears.
  EXPECT_NE(text.find("\n10"), std::string::npos);
  EXPECT_NE(text.find("\n100"), std::string::npos);
}

TEST(Figures, OverallMeanRejectsForeignAlgorithm) {
  const auto result = tiny_experiment();
  EXPECT_GT(overall_mean(result, Algorithm::kLongestPath,
                         Criterion::kHeight),
            0.0);
  EXPECT_THROW(overall_mean(result, Algorithm::kMinWidth,
                            Criterion::kHeight),
               support::CheckError);
}

TEST(Figures, PaperOrderingsHoldOnTinyCorpus) {
  // Even on the 19-graph corpus, the structural orderings the paper's
  // figures rely on must hold: LPL has minimal height; ACO has smaller
  // width than LPL.
  const auto result = tiny_experiment();
  EXPECT_LE(overall_mean(result, Algorithm::kLongestPath,
                         Criterion::kHeight),
            overall_mean(result, Algorithm::kAntColony, Criterion::kHeight));
  EXPECT_LE(overall_mean(result, Algorithm::kAntColony,
                         Criterion::kWidthInclDummies),
            overall_mean(result, Algorithm::kLongestPath,
                         Criterion::kWidthInclDummies));
}

}  // namespace
}  // namespace acolay::harness
