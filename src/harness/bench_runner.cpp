#include "harness/bench_runner.hpp"

#include <algorithm>
#include <chrono>
// lint:allow-next-line(no-wall-clock) -- std::tm/strftime for the report
// timestamp formatter below, which carries its own justification.
#include <ctime>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <type_traits>

#include "core/colony.hpp"
#include "support/check.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

// Provenance: the git SHA comes from a header regenerated on every build
// (cmake/GenerateProvenance.cmake) so it tracks HEAD without a
// reconfigure; build type/compiler are injected per source file by
// src/CMakeLists.txt. The fallbacks keep non-CMake builds (e.g. a bare
// compiler invocation) compiling.
#if defined(ACOLAY_HAS_PROVENANCE_HEADER)
#include "acolay_provenance.hpp"
#endif
#ifndef ACOLAY_GIT_SHA
#define ACOLAY_GIT_SHA "unknown"
#endif
#ifndef ACOLAY_BUILD_TYPE
#define ACOLAY_BUILD_TYPE "unknown"
#endif
#ifndef ACOLAY_COMPILER
#define ACOLAY_COMPILER "unknown"
#endif

namespace acolay::harness {

std::size_t BenchConfig::per_group() const {
  switch (corpus) {
    case CorpusSize::kCiSmall: return 2;
    case CorpusSize::kSmall: return 6;
    case CorpusSize::kFull: return 0;
  }
  ACOLAY_CHECK_MSG(false, "unknown corpus size");
  return 0;
}

std::string BenchConfig::corpus_name() const {
  switch (corpus) {
    case CorpusSize::kCiSmall: return "ci-small";
    case CorpusSize::kSmall: return "small";
    case CorpusSize::kFull: return "full";
  }
  ACOLAY_CHECK_MSG(false, "unknown corpus size");
  return {};
}

const gen::Corpus& CorpusCache::get(std::size_t per_group) {
  auto it = cache_.find(per_group);
  if (it == cache_.end()) {
    it = cache_
             .emplace(per_group,
                      per_group == 0
                          ? gen::make_corpus(params_)
                          : gen::make_corpus_subsample(params_, per_group))
             .first;
  }
  return it->second;
}

const ExperimentResult& ExperimentCache::get(
    const gen::Corpus& corpus, const std::vector<Algorithm>& algs,
    const ExperimentOptions& opts) {
  // Key on the corpus identity (CorpusCache hands out stable references)
  // and the option fields that influence results, not just the algorithm
  // set — a future suite comparing corpus scales or param overrides must
  // not collide with another suite's cache entry.
  std::ostringstream key;
  key << static_cast<const void*>(&corpus) << '#' << opts.run.aco.seed
      << '#' << opts.run.aco.alpha << '#' << opts.run.aco.beta << '#'
      << opts.run.dummy_width << '#';
  for (const auto alg : algs) key << algorithm_label(alg) << '|';
  auto it = cache_.find(key.str());
  if (it == cache_.end()) {
    it = cache_.emplace(key.str(), run_corpus_experiment(corpus, algs, opts))
             .first;
  }
  return it->second;
}

const ExperimentResult& SuiteContext::experiment(
    const std::vector<Algorithm>& algs) const {
  ExperimentOptions opts;
  opts.run.aco = config.aco;
  opts.num_threads = config.num_threads;
  return experiments.get(corpus(), algs, opts);
}

namespace {

std::string utc_timestamp() {
  // lint:allow-next-line(no-wall-clock) -- report provenance header only;
  // no seed, result or control flow ever reads the wall clock.
  const auto wall = std::chrono::system_clock::now();
  const std::time_t now = std::chrono::system_clock::to_time_t(wall);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buffer[32];
  std::strftime(buffer, sizeof buffer, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buffer;
}

TraceSummary record_trace_summary(const BenchConfig& config,
                                  const gen::Corpus& corpus) {
  TraceSummary trace;
  if (corpus.graphs.empty()) return trace;
  // Representative graph: the first member of the largest vertex-count
  // group — the regime where the paper's curves diverge.
  const int last_group = static_cast<int>(corpus.num_groups()) - 1;
  const auto members = corpus.group_members(last_group);
  const auto& g = corpus.graphs[members.empty() ? 0 : members.front()];
  core::AcoParams params = config.aco;
  params.record_trace = true;
  params.num_threads = config.num_threads;
  core::AntColony colony(g, params);
  const auto result = colony.run();
  trace.graph_vertices = static_cast<int>(g.num_vertices());
  trace.graph_edges = g.num_edges();
  trace.initial_objective = result.initial_objective;
  trace.tours = result.trace;
  return trace;
}

void log_claims(std::ostream& log, const SuiteOutput& suite) {
  for (const auto& claim : suite.claims) {
    log << (claim.pass ? "  [shape PASS] " : "  [shape DIVERGES] ")
        << claim.description << "  ("
        << support::ConsoleTable::num(claim.lhs, 3) << ' ' << claim.relation
        << ' ' << support::ConsoleTable::num(claim.rhs, 3) << ")\n";
  }
}

}  // namespace

BenchReport run_suites(const std::vector<Suite>& suites,
                       const BenchConfig& config, std::ostream& log) {
  BenchReport report;
  report.git_sha = ACOLAY_GIT_SHA;
  report.build_type = ACOLAY_BUILD_TYPE;
  report.compiler = ACOLAY_COMPILER;
  report.timestamp_utc = utc_timestamp();
  report.corpus = config.corpus_name();
  report.per_group = config.per_group();
  report.corpus_seed = config.corpus_params.seed;
  report.num_threads = config.num_threads;
  // Record what actually runs: the loops below clamp the same way, so two
  // behaviourally identical runs never differ in recorded config.
  report.repetitions = std::max(config.repetitions, 1);
  report.warmup = std::max(config.warmup, 0);
  report.aco = config.aco;

  CorpusCache corpora(config.corpus_params);
  ExperimentCache experiments;
  const SuiteContext context{config, corpora, experiments};

  for (const auto& suite : suites) {
    log << "=== " << suite.name << ": " << suite.description << " ===\n";
    for (int w = 0; w < config.warmup; ++w) {
      SuiteOutput discard;
      suite.run(context, discard);
    }
    SuiteOutput output;
    double best_wall = 0.0;
    double best_cpu = 0.0;
    const int repetitions = std::max(config.repetitions, 1);
    for (int rep = 0; rep < repetitions; ++rep) {
      SuiteOutput attempt;
      const double cpu_before = support::process_cpu_seconds();
      support::Stopwatch stopwatch;
      suite.run(context, attempt);
      const double wall = stopwatch.elapsed_seconds();
      const double cpu = support::process_cpu_seconds() - cpu_before;
      if (rep == 0 || wall < best_wall) {
        best_wall = wall;
        best_cpu = cpu;
        output = std::move(attempt);
      }
    }
    output.name = suite.name;
    output.description = suite.description;
    output.repetitions = repetitions;
    output.wall_seconds = best_wall;
    output.cpu_seconds = best_cpu;
    log << "  " << output.graphs << " graphs, "
        << support::ConsoleTable::num(best_wall, 2) << " s wall, "
        << support::ConsoleTable::num(best_cpu, 2) << " s cpu\n";
    log_claims(log, output);
    report.suites.push_back(std::move(output));
  }

  // The trace appendix reuses the suites' corpus; when none of the
  // selected suites touched it (e.g. `--suite micro`), don't build a
  // corpus and run a colony just for the appendix.
  if (corpora.contains(config.per_group())) {
    report.trace = record_trace_summary(config, context.corpus());
  }
  return report;
}

void print_suite_series(std::ostream& os, const SuiteOutput& suite) {
  for (const auto& series : suite.series) {
    os << "\n" << suite.name << " — " << series.name << "\n";
    std::vector<std::string> header{series.x_label};
    for (const auto& column : series.columns) header.push_back(column.name);
    support::ConsoleTable table(header);
    for (std::size_t row = 0; row < series.x.size(); ++row) {
      std::vector<std::string> cells{series.x[row]};
      for (const auto& column : series.columns) {
        cells.push_back(support::ConsoleTable::num(column.mean[row], 3));
      }
      table.add_row(std::move(cells));
    }
    table.print(os);
  }
}

namespace {

void print_usage(std::ostream& os, const std::vector<Suite>& suites) {
  os << "usage: acolay_bench [options]\n"
        "\n"
        "Runs registered benchmark suites and emits a schema-versioned\n"
        "JSON report (compare two reports with scripts/bench_diff.py).\n"
        "\n"
        "options:\n"
        "  --suite NAME       run one suite (repeatable; comma lists ok;\n"
        "                     default: all suites)\n"
        "  --corpus SIZE      ci-small | small | full (default: small)\n"
        "  --threads N        worker threads, 0 = hardware (default: 0)\n"
        "  --repetitions N    timed repetitions per suite, best kept "
        "(default: 1)\n"
        "  --warmup N         discarded warm-up runs per suite (default: 0)\n"
        "  --seed S           base ACO seed (default: 1)\n"
        "  --json PATH        write the JSON report to PATH\n"
        "  --print-series     print every series as a console table\n"
        "  --strict-claims    exit 1 if any shape claim diverges\n"
        "  --list             list registered suites and exit\n"
        "  --help             this text\n"
        "\n"
        "suites:\n";
  for (const auto& suite : suites) {
    os << "  " << suite.name;
    for (std::size_t pad = suite.name.size(); pad < 18; ++pad) os << ' ';
    os << suite.description << "\n";
  }
}

}  // namespace

int bench_main(int argc, const char* const* argv,
               const std::vector<Suite>& suites, std::ostream& out,
               std::ostream& err) {
  BenchConfig config;
  std::vector<std::string> selected_names;
  std::string json_path;
  bool print_series = false;
  bool strict_claims = false;

  const auto next_value = [&](int& i, const std::string& flag,
                              std::string& value) {
    if (i + 1 >= argc) {
      err << "acolay_bench: " << flag << " needs a value\n";
      return false;
    }
    value = argv[++i];
    return true;
  };
  // std::stoi/stoull throw on junk or overflow (and silently accept
  // trailing garbage); report a usage error (exit 2) like every other
  // malformed flag instead of aborting or mis-parsing.
  const auto parse_number = [&](const std::string& flag,
                                const std::string& text, auto& number) {
    try {
      std::size_t consumed = 0;
      if constexpr (std::is_same_v<std::decay_t<decltype(number)>,
                                   std::uint64_t>) {
        number = std::stoull(text, &consumed);
      } else {
        number = std::stoi(text, &consumed);
      }
      if (consumed == text.size()) return true;
    } catch (const std::exception&) {
    }
    err << "acolay_bench: " << flag << " needs a number, got '" << text
        << "'\n";
    return false;
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--help" || arg == "-h") {
      print_usage(out, suites);
      return 0;
    } else if (arg == "--list") {
      for (const auto& suite : suites) {
        out << suite.name << "\t" << suite.description << "\n";
      }
      return 0;
    } else if (arg == "--suite") {
      if (!next_value(i, arg, value)) return 2;
      std::stringstream list(value);
      for (std::string name; std::getline(list, name, ',');) {
        if (!name.empty()) selected_names.push_back(name);
      }
    } else if (arg == "--corpus") {
      if (!next_value(i, arg, value)) return 2;
      if (value == "ci-small") {
        config.corpus = CorpusSize::kCiSmall;
      } else if (value == "small") {
        config.corpus = CorpusSize::kSmall;
      } else if (value == "full") {
        config.corpus = CorpusSize::kFull;
      } else {
        err << "acolay_bench: unknown corpus '" << value
            << "' (ci-small | small | full)\n";
        return 2;
      }
    } else if (arg == "--threads") {
      if (!next_value(i, arg, value)) return 2;
      if (!parse_number(arg, value, config.num_threads)) return 2;
    } else if (arg == "--repetitions") {
      if (!next_value(i, arg, value)) return 2;
      if (!parse_number(arg, value, config.repetitions)) return 2;
    } else if (arg == "--warmup") {
      if (!next_value(i, arg, value)) return 2;
      if (!parse_number(arg, value, config.warmup)) return 2;
    } else if (arg == "--seed") {
      if (!next_value(i, arg, value)) return 2;
      if (!parse_number(arg, value, config.aco.seed)) return 2;
    } else if (arg == "--json") {
      if (!next_value(i, arg, value)) return 2;
      json_path = value;
    } else if (arg == "--print-series") {
      print_series = true;
    } else if (arg == "--strict-claims") {
      strict_claims = true;
    } else {
      err << "acolay_bench: unknown option '" << arg
          << "' (--help lists options)\n";
      return 2;
    }
  }

  std::vector<Suite> selected;
  if (selected_names.empty()) {
    selected = suites;
  } else {
    for (const auto& name : selected_names) {
      const auto it =
          std::find_if(suites.begin(), suites.end(),
                       [&](const Suite& s) { return s.name == name; });
      if (it == suites.end()) {
        err << "acolay_bench: unknown suite '" << name
            << "' (--list shows the registry)\n";
        return 2;
      }
      selected.push_back(*it);
    }
  }

  out << "acolay_bench: " << selected.size() << " suite(s), corpus "
      << config.corpus_name() << ", threads "
      << (config.num_threads == 0 ? std::string("hw")
                                  : std::to_string(config.num_threads))
      << ", repetitions " << config.repetitions << "\n";
  const auto report = run_suites(selected, config, out);

  if (print_series) {
    for (const auto& suite : report.suites) print_suite_series(out, suite);
  }
  if (!json_path.empty()) {
    const std::filesystem::path path(json_path);
    if (path.has_parent_path()) {
      std::filesystem::create_directories(path.parent_path());
    }
    std::ofstream file(path);
    if (!file.good()) {
      err << "acolay_bench: cannot write " << json_path << "\n";
      return 2;
    }
    file << to_json(report) << "\n";
    out << "JSON report written to " << json_path << "\n";
  }

  std::size_t diverging = 0;
  for (const auto& suite : report.suites) {
    for (const auto& claim : suite.claims) diverging += claim.pass ? 0 : 1;
  }
  if (diverging > 0) {
    out << diverging << " shape claim(s) diverged\n";
    if (strict_claims) return 1;
  }
  return 0;
}

}  // namespace acolay::harness
