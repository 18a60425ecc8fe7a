// relayer_edit: the write path through the library. One
// core::IncrementalSolver session per gen::random_dag base (four at each
// of nine sizes, n = 128..512) is set up with a cold solve(), then its
// gen::random_edit_script deltas are applied round-robin across the
// sessions. That pass of 36 x 40 update() calls is repeated from freshly
// set-up sessions until the time is up, so every run measures the same
// updates however fast they go.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/incremental.hpp"
#include "core/request.hpp"
#include "graph/csr.hpp"
#include "graph/delta.hpp"
#include "inputs.hpp"
#include "layering/layering.hpp"
#include "layering/metrics.hpp"

namespace perfbench {

namespace ac = acolay::core;
namespace ag = acolay::graph;

namespace {

/// Script length per session, so a pass is 36 x 40 = 1440 updates.
constexpr int kDeltasPerSession = 40;
/// Every this-many-th update is re-solved cold to check the tolerance
/// contract of core/incremental.hpp.
constexpr std::size_t kSampleEvery = 50;
/// Per-update latency limit behind within_limit_ratio.
constexpr double kLimitMs = 100.0;

using Solvers = std::vector<std::unique_ptr<ac::IncrementalSolver>>;

ac::AcoParams session_params(const EditSession& session) {
  ac::AcoParams params;  // the paper's production configuration
  // Serial ants, as on solve_large: a pool's per-tour wake-ups, not the
  // update, would set the latency on a shared host.
  params.num_threads = 1;
  params.seed = session.solver_seed;
  return params;
}

// Session construction plus the cold solve() of each base; returns the
// seconds it took.
double set_up(const std::vector<EditSession>& sessions, Solvers& solvers,
              Result& result) {
  solvers.clear();
  const auto start = Clock::now();
  for (const EditSession& session : sessions) {
    solvers.push_back(std::make_unique<ac::IncrementalSolver>(
        session.base, session_params(session)));
    if (!solvers.back()->solve().ok()) {
      result.mismatch("cold solve of a base failed");
    }
  }
  return seconds_since(start);
}

/// A post-update graph kept for the cold-solve tolerance check.
struct Sample {
  std::size_t session = 0;
  ag::Digraph graph;
  double objective = 0.0;
};

/// The copy the traced run applies each delta to beside the solver.
struct Mirror {
  ag::Digraph graph;
  ag::CsrView csr;
};

struct Loop {
  std::vector<double> latency_ms;
  std::vector<double> objectives;
  std::vector<Sample> samples;
  double tours_run = 0.0;
  double moves = 0.0;
  double walks = 0.0;
  double visits = 0.0;
  std::size_t within_limit = 0;  ///< correct updates within kLimitMs
  std::size_t refreeze_kinds[3] = {0, 0, 0};
};

// One pass: every session's whole script, round-robin across the freshly
// set-up `solvers`. With `mirrors`, each delta is also applied to a copy
// and refrozen there, under spans recorded in `recorder`.
void run_pass(const std::vector<EditSession>& sessions, Solvers& solvers,
              Result& result, Loop& loop, std::vector<Mirror>* mirrors,
              SpanRecorder* recorder) {
  const std::size_t updates = sessions.size() * kDeltasPerSession;
  for (std::size_t k = 0; k < updates; ++k) {
    const std::size_t s = k % sessions.size();
    const ag::GraphDelta& delta = sessions[s].script[k / sessions.size()];
    ac::IncrementalSolver& solver = *solvers[s];
    ++result.attempted;

    std::int32_t root = -1;
    if (mirrors != nullptr) {
      Mirror& mirror = (*mirrors)[s];
      root = recorder->open("relayer.step", -1, k);
      const std::int32_t apply =
          recorder->open("graph.delta.apply", root, k);
      const std::string error = ag::apply_delta(mirror.graph, delta);
      recorder->close(apply);
      const std::int32_t refreeze =
          recorder->open("graph.csr.refreeze", root, k);
      const ag::RefreezeKind kind = mirror.csr.refreeze(
          mirror.graph, delta, solver.options().churn_threshold);
      recorder->close(refreeze);
      ++loop.refreeze_kinds[static_cast<int>(kind)];
      if (!error.empty()) result.mismatch("delta does not apply: " + error);
    }

    const auto start = Clock::now();
    const std::int32_t update_span =
        recorder != nullptr ? recorder->open("core.incremental.update", root, k)
                            : -1;
    const ac::SolveOutcome& outcome = solver.update(delta);
    const double ms = seconds_since(start) * 1e3;
    if (recorder != nullptr) {
      recorder->close(update_span);
      recorder->close(root);
    }
    loop.latency_ms.push_back(ms);

    if (!outcome.ok()) {
      result.mismatch("update rejected: " + outcome.message);
      continue;
    }
    const ag::Digraph& g = solver.graph();
    const double objective = outcome.result.metrics.objective;
    if (!acolay::layering::is_valid_layering(g, outcome.result.layering) ||
        acolay::layering::compute_metrics(
            g, outcome.result.layering,
            {solver.params().dummy_width}).objective != objective) {
      result.mismatch("update returned an invalid layering");
      continue;
    }
    if (mirrors != nullptr) {
      const Mirror& mirror = (*mirrors)[s];
      if (mirror.csr.fingerprint() != solver.fingerprint()) {
        result.mismatch("refrozen copy disagrees with the session graph");
      }
    }
    loop.objectives.push_back(objective);
    const double tours = static_cast<double>(outcome.result.trace.size());
    const double ants = static_cast<double>(solver.params().num_ants);
    loop.tours_run += tours;
    loop.walks += tours * ants;
    loop.visits += tours * ants * static_cast<double>(g.num_vertices());
    for (const ac::TourStats& t : outcome.result.trace) {
      loop.moves += t.total_moves;
    }
    if (ms <= kLimitMs) ++loop.within_limit;
    if (k % kSampleEvery == kSampleEvery - 1) {
      loop.samples.push_back(Sample{s, g, objective});
    }
  }
}

// Re-solves every sampled graph cold and measures the update/cold objective
// ratio against the versioned tolerance contract of core/incremental.hpp.
// The contract was calibrated on graphs of 12..32 vertices; at this
// workload's sizes it is a measured quality figure, reported in a note and
// as core.incremental.objective_ratio, not a correctness check. Returns
// the mean ratio.
double check_samples(const std::vector<EditSession>& sessions,
                     const Loop& loop, Result& result) {
  double update_sum = 0.0;
  double cold_sum = 0.0;
  double ratio_sum = 0.0;
  double worst_ratio = 1.0;
  for (const Sample& sample : loop.samples) {
    ac::SolveRequest request;
    request.graph = &sample.graph;
    request.params = session_params(sessions[sample.session]);
    const ac::SolveOutcome cold = ac::solve(request);
    if (!cold.ok()) {
      result.mismatch("cold re-solve of a sampled graph failed");
      continue;
    }
    const double ratio = sample.objective / cold.result.metrics.objective;
    worst_ratio = std::min(worst_ratio, ratio);
    update_sum += sample.objective;
    cold_sum += cold.result.metrics.objective;
    ratio_sum += ratio;
  }
  const double samples = static_cast<double>(loop.samples.size());
  const double mean_ratio = samples > 0 ? ratio_sum / samples : 0.0;
  const bool step_ok = worst_ratio >= 1.0 - ac::kIncrementalStepTolerance;
  const bool mean_ok =
      update_sum >= (1.0 - ac::kIncrementalMeanTolerance) * cold_sum;
  result.notes.push_back(
      "relayer_edit: " + std::to_string(loop.samples.size()) +
      " sampled updates re-solved cold: worst ratio " +
      std::to_string(worst_ratio) + (step_ok ? " within" : " OUTSIDE") +
      " the step tolerance, mean ratio " + std::to_string(mean_ratio) +
      (mean_ok ? " within" : " OUTSIDE") +
      " the mean tolerance (contract version " +
      std::to_string(ac::kIncrementalToleranceVersion) + ")");
  return mean_ratio;
}

Result run_traced(const Options& options,
                  const std::vector<EditSession>& sessions) {
  Result result;
  Solvers solvers;
  // An untraced pass for the overhead base, then the traced pass over the
  // same updates from freshly set-up sessions.
  set_up(sessions, solvers, result);
  Loop plain;
  run_pass(sessions, solvers, result, plain, nullptr, nullptr);

  set_up(sessions, solvers, result);
  std::vector<Mirror> mirrors;
  for (const EditSession& session : sessions) {
    mirrors.push_back(Mirror{session.base, ag::CsrView(session.base)});
  }
  SpanRecorder recorder;
  Loop traced;
  run_pass(sessions, solvers, result, traced, &mirrors, &recorder);
  if (traced.objectives != plain.objectives) {
    result.mismatch("the traced pass's updates differ from the untraced pass");
  }
  const double objective_ratio = check_samples(sessions, traced, result);

  const double updates = static_cast<double>(traced.latency_ms.size());
  const int budget = solvers.front()->options().update_tours;
  result.add("graph.delta.apply_ms",
             recorder.self_ms("graph.delta.apply") / updates, "ms");
  result.add("graph.csr.refreeze_ms",
             recorder.self_ms("graph.csr.refreeze") / updates, "ms");
  result.add("graph.csr.refreeze_widths_only",
             static_cast<double>(traced.refreeze_kinds[0]), "count");
  result.add("graph.csr.refreeze_patched",
             static_cast<double>(traced.refreeze_kinds[1]), "count");
  result.add("graph.csr.refreeze_full",
             static_cast<double>(traced.refreeze_kinds[2]), "count");
  result.add("core.incremental.update_ms_p50", quantile(traced.latency_ms, 0.5),
             "ms");
  result.add("core.incremental.update_ms_p99",
             quantile(traced.latency_ms, 0.99), "ms");
  result.add("core.incremental.tours_run_ratio",
             traced.tours_run / (updates * budget), "ratio");
  result.add("core.incremental.objective_ratio", objective_ratio, "ratio");
  result.add("core.ant.walks", traced.walks / updates, "count");
  result.add("core.ant.moves_per_visit",
             traced.visits > 0 ? traced.moves / traced.visits : 0.0, "ratio");
  result.add("tracing.overhead_ratio",
             mean(traced.latency_ms) / mean(plain.latency_ms), "ratio");
  result.notes.push_back(describe_latency("relayer_edit (traced)",
                                          traced.latency_ms));
  const std::string path = options.trace_dir + "/relayer_edit-" +
                           std::to_string(options.seed) + ".jsonl";
  if (!options.trace_dir.empty() && recorder.write_jsonl(path)) {
    result.notes.push_back("spans written to " + path);
  }
  return result;
}

}  // namespace

Result run_relayer_edit(const Options& options) {
  const std::vector<EditSession> sessions =
      make_edit_sessions(options.seed, kDeltasPerSession);
  if (options.trace) {
    Result result = run_traced(options, sessions);
    complete_layer_metrics(result);
    return result;
  }

  Result result;
  Solvers solvers;
  std::vector<double> setup_s;
  std::vector<std::vector<double>> update_ms(sessions.size() *
                                             kDeltasPerSession);
  Loop first;
  std::size_t within_limit = 0;
  double busy_s = 0.0;
  for (int pass = 0; pass == 0 || busy_s < options.seconds; ++pass) {
    setup_s.push_back(set_up(sessions, solvers, result));
    Loop loop;
    run_pass(sessions, solvers, result, loop, nullptr, nullptr);
    for (std::size_t k = 0; k < loop.latency_ms.size(); ++k) {
      update_ms[k].push_back(loop.latency_ms[k]);
      busy_s += loop.latency_ms[k] / 1e3;
    }
    within_limit += loop.within_limit;
    if (pass == 0) {
      first = std::move(loop);
    } else if (loop.objectives != first.objectives) {
      result.mismatch("a repeated pass's updates differ from the first pass");
    }
  }
  check_samples(sessions, first, result);

  // As on solve_large, throughput and the latency percentiles are over each
  // update's median time across the passes; throughput is one pass at
  // those medians.
  std::vector<double> per_update_ms;
  double pass_ms = 0.0;
  for (const std::vector<double>& samples : update_ms) {
    per_update_ms.push_back(quantile(samples, 0.5));
    pass_ms += per_update_ms.back();
  }
  result.add("throughput_ops_s",
             static_cast<double>(per_update_ms.size()) / (pass_ms / 1e3),
             "ops/s");
  result.add("latency_p50_ms", quantile(per_update_ms, 0.5), "ms");
  result.add("latency_p99_ms", quantile(per_update_ms, 0.99), "ms");
  result.add("within_limit_ratio",
             static_cast<double>(within_limit) /
                 static_cast<double>(result.attempted),
             "ratio");
  result.add("objective_mean", mean(first.objectives), "f");
  result.add("peak_rss_mb", peak_rss_mb_self(), "MB");
  result.add("setup_s", quantile(setup_s, 0.5), "s");
  result.notes.push_back(
      "relayer_edit: " + std::to_string(setup_s.size()) + " passes of " +
      std::to_string(per_update_ms.size()) +
      " updates; percentiles over each update's median");
  result.notes.push_back(describe_latency("relayer_edit", per_update_ms));
  return result;
}

}  // namespace perfbench
