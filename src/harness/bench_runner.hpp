// The acolay_bench runner: the single entry point for every experiment.
//
// A Suite is a named registration (the 13 former bench/*.cpp binaries are
// now thin Suite definitions under bench/suites/); the runner owns what
// they used to duplicate — corpus construction and caching, thread policy,
// repetition/warmup timing, claim bookkeeping, console reporting, and the
// versioned JSON result (bench_schema.hpp) that CI diffs across commits
// with scripts/bench_diff.py.
//
// CLI (see bench_main):
//   acolay_bench --suite fig6 --corpus small --threads 4 --json out.json
#pragma once

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "gen/corpus.hpp"
#include "harness/bench_schema.hpp"

namespace acolay::harness {

/// Corpus scale: ci-small finishes in seconds on one core (the CI smoke
/// gate), small is the interactive default, full is the paper's 1277-graph
/// evaluation.
enum class CorpusSize { kCiSmall, kSmall, kFull };

struct BenchConfig {
  CorpusSize corpus = CorpusSize::kSmall;
  gen::CorpusParams corpus_params;  ///< seed & shape shared by all suites
  /// Worker threads (0 = hardware concurrency). Results are identical for
  /// any value; see tests/determinism_test.cpp.
  int num_threads = 0;
  /// Timed repetitions per suite; wall/cpu_seconds report the best one.
  /// Corpus-experiment suites hit the runner's shared experiment cache
  /// after their first repetition, so cold-path repetition timing is
  /// meaningful for the sweep/micro suites; the figures' per-graph
  /// runtime_ms series are measured inside the experiment and are
  /// unaffected by caching.
  int repetitions = 1;
  /// Discarded warm-up runs per suite before the timed repetitions.
  int warmup = 0;
  core::AcoParams aco;  ///< base ACO params; suites derive per-graph seeds

  /// Stratified subsample size per vertex-count group; 0 = full corpus.
  std::size_t per_group() const;
  std::string corpus_name() const;
};

/// Lazily built, memoized corpora keyed by per-group subsample size, so
/// suites sharing a scale share one corpus (and measure the same graphs).
/// Returned references stay valid for the cache's lifetime (node-based
/// map), which ExperimentCache relies on for identity keying.
class CorpusCache {
 public:
  explicit CorpusCache(const gen::CorpusParams& params) : params_(params) {}

  /// per_group = 0 returns the full corpus.
  const gen::Corpus& get(std::size_t per_group);

  /// Whether get(per_group) has been called (i.e. some suite used it).
  bool contains(std::size_t per_group) const {
    return cache_.count(per_group) > 0;
  }

 private:
  gen::CorpusParams params_;
  std::map<std::size_t, gen::Corpus> cache_;
};

/// Memoized corpus experiments keyed by algorithm set (at the run's corpus
/// scale): several figure suites need byte-identical experiments (fig4/6/8
/// the LPL family, fig5/7/9 the MinWidth family), and one experiment —
/// every algorithm on every corpus graph — dominates a full run's cost.
/// Sharing changes no emitted numbers; the first suite needing an
/// experiment pays its wall-clock (suite wall_seconds is the incremental
/// cost given the runner's shared caches).
class ExperimentCache {
 public:
  const ExperimentResult& get(const gen::Corpus& corpus,
                              const std::vector<Algorithm>& algs,
                              const ExperimentOptions& opts);

 private:
  std::map<std::string, ExperimentResult> cache_;
};

struct SuiteContext {
  const BenchConfig& config;
  CorpusCache& corpora;
  ExperimentCache& experiments;

  /// The corpus at the configured scale.
  const gen::Corpus& corpus() const {
    return corpora.get(config.per_group());
  }

  /// The (cached) corpus experiment for `algs` under the run's config.
  const ExperimentResult& experiment(
      const std::vector<Algorithm>& algs) const;
};

struct Suite {
  std::string name;         ///< CLI name ("fig4", "param-alpha-beta", ...)
  std::string description;  ///< one line, shown by --list and in the JSON
  std::function<void(const SuiteContext&, SuiteOutput&)> run;
};

/// Runs the suites under the config's repetition/warmup policy and
/// assembles the full report (provenance, config, per-suite results, ACO
/// trace summary). Progress and claim verdicts go to `log`.
BenchReport run_suites(const std::vector<Suite>& suites,
                       const BenchConfig& config, std::ostream& log);

/// Renders a suite's series as console tables.
void print_suite_series(std::ostream& os, const SuiteOutput& suite);

/// Full CLI: parses argv, selects suites, runs them, writes the --json
/// output. Returns the process exit code (0 ok, 1 failed claims under
/// --strict-claims, 2 usage error).
int bench_main(int argc, const char* const* argv,
               const std::vector<Suite>& suites, std::ostream& out,
               std::ostream& err);

}  // namespace acolay::harness
