// Batch colony throughput: core::BatchSolver against the equivalent
// sequential AntColony::run() loop. The workload is a fixed stream of 64
// layering requests (corpus graphs, cycled); each row processes that same
// stream in batches of 1, 8, or 64 jobs per solver, so the rows differ
// only in batching granularity and the graphs/s ratio between them
// isolates what batching buys (worker parallelism plus amortised pool
// spin-up and workspace warm-up) on identical work.
//
// The quality series is the keystone: the batch path is bit-identical to
// the sequential loop (same per-job seeds, thread-count-invariant colony),
// so the two mean-objective columns must agree exactly — any drift flags a
// scheduling-dependent result leaking into the batch path, and the
// bench-smoke gate diffs it at quality tolerance like every other quality
// series. The throughput columns are timing-kind (hardware-dependent,
// tracked but never gated): the headline batch-64 vs batch-1 ratio scales
// with the worker count, so it is ~1x on a single-core runner and
// approaches min(cores, 64)x on multi-core hardware.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/batch.hpp"
#include "core/colony.hpp"
#include "suites/suites.hpp"
#include "support/timer.hpp"

namespace acolay::bench {

harness::Suite batch_throughput_suite() {
  harness::Suite suite;
  suite.name = "batch_throughput";
  suite.description =
      "BatchSolver vs sequential colony loop over a 64-request stream: "
      "graphs/s and ant·vertices/s at batch sizes 1/8/64";
  suite.run = [](const harness::SuiteContext& ctx,
                 harness::SuiteOutput& output) {
    const auto& corpus = ctx.corpus();
    const std::size_t corpus_size = corpus.graphs.size();
    output.graphs = corpus_size;

    core::AcoParams base = ctx.config.aco;
    base.record_trace = false;
    base.num_threads = 1;  // the sequential reference runs each colony serial

    // The fixed request stream: 64 jobs cycling the corpus. Per-job params
    // are a pure function of the job index (seed = base.seed + index, the
    // harness convention), so every row and the sequential reference see
    // byte-identical inputs.
    constexpr std::size_t kNumJobs = 64;
    const auto job_graph = [&](std::size_t index) -> const graph::Digraph& {
      return corpus.graphs[index % corpus_size];
    };
    const auto job_params = [&base](std::size_t index) {
      core::AcoParams params = base;
      params.seed = base.seed + static_cast<std::uint64_t>(index);
      return params;
    };
    std::int64_t total_work = 0;  // ants * tours * vertices over the stream
    for (std::size_t i = 0; i < kNumJobs; ++i) {
      total_work += static_cast<std::int64_t>(base.num_ants) *
                    base.num_tours *
                    static_cast<std::int64_t>(job_graph(i).num_vertices());
    }

    // Sequential reference: one fresh AntColony per request, exactly what
    // a caller without the batch subsystem writes.
    double seq_objective_sum = 0.0;
    support::Stopwatch seq_watch;
    for (std::size_t i = 0; i < kNumJobs; ++i) {
      core::AntColony colony(job_graph(i), job_params(i));
      seq_objective_sum += colony.run().metrics.objective;
    }
    const double seq_seconds = seq_watch.elapsed_seconds();
    const double seq_graphs_per_sec =
        static_cast<double>(kNumJobs) / seq_seconds;
    const double seq_mean_objective =
        seq_objective_sum / static_cast<double>(kNumJobs);

    // Built locally and pushed at the end: an add_series reference is
    // invalidated by the next add_series call.
    harness::Series throughput{"throughput", "batch_size",
                               harness::SeriesKind::kTiming, {}, {}};
    harness::SeriesColumn batch_rate{"batch_graphs_per_sec", {}, {}};
    harness::SeriesColumn seq_rate{"sequential_graphs_per_sec", {}, {}};
    harness::SeriesColumn work_rate{"batch_ant_vertices_per_sec", {}, {}};

    harness::Series parity{"mean_objective", "batch_size",
                           harness::SeriesKind::kQuality, {}, {}};
    harness::SeriesColumn parity_batch{"batch", {}, {}};
    harness::SeriesColumn parity_seq{"sequential", {}, {}};

    double batch1_rate = 0.0;
    double batch64_rate = 0.0;

    for (const std::size_t batch_size :
         {std::size_t{1}, std::size_t{8}, std::size_t{64}}) {
      // Process the stream in consecutive batches of `batch_size` jobs,
      // one solver per batch: pool spin-up and workspace warm-up are
      // genuine per-batch costs, amortised only as batches grow.
      double batch_objective_sum = 0.0;
      support::Stopwatch batch_watch;
      for (std::size_t first = 0; first < kNumJobs; first += batch_size) {
        const std::size_t last = std::min(first + batch_size, kNumJobs);
        core::BatchSolver solver(ctx.config.num_threads);
        std::vector<core::BatchJobId> ids;
        ids.reserve(last - first);
        for (std::size_t i = first; i < last; ++i) {
          core::SolveRequest request;
          request.graph = &job_graph(i);
          request.params = job_params(i);
          ids.push_back(solver.submit(request));
        }
        for (const auto id : ids) {
          batch_objective_sum +=
              solver.collect_outcome(id).result.metrics.objective;
        }
      }
      const double batch_seconds = batch_watch.elapsed_seconds();

      const double graphs_per_sec =
          static_cast<double>(kNumJobs) / batch_seconds;
      throughput.x.push_back(std::to_string(batch_size));
      batch_rate.mean.push_back(graphs_per_sec);
      batch_rate.stddev.push_back(0.0);
      seq_rate.mean.push_back(seq_graphs_per_sec);
      seq_rate.stddev.push_back(0.0);
      work_rate.mean.push_back(static_cast<double>(total_work) /
                               batch_seconds);
      work_rate.stddev.push_back(0.0);

      parity.x.push_back(std::to_string(batch_size));
      parity_batch.mean.push_back(batch_objective_sum /
                                  static_cast<double>(kNumJobs));
      parity_batch.stddev.push_back(0.0);
      parity_seq.mean.push_back(seq_mean_objective);
      parity_seq.stddev.push_back(0.0);

      if (batch_size == 1) batch1_rate = graphs_per_sec;
      if (batch_size == 64) batch64_rate = graphs_per_sec;
    }

    const double batch64_mean_objective = parity_batch.mean.back();
    throughput.columns.push_back(std::move(batch_rate));
    throughput.columns.push_back(std::move(seq_rate));
    throughput.columns.push_back(std::move(work_rate));
    parity.columns.push_back(std::move(parity_batch));
    parity.columns.push_back(std::move(parity_seq));
    output.series.push_back(std::move(throughput));
    output.series.push_back(std::move(parity));

    // Bit-identity of the batch path — quality kind, gated by bench_diff.
    output.add_claim("batch objective equals sequential loop",
                     batch64_mean_objective, "~=", seq_mean_objective, 0.0);
    // The scaling headline — timing kind (worker-count dependent): ~1x on
    // one core, >= 3x whenever >= 4 workers have real cores behind them.
    output.add_claim("batch-64 graphs/s >= 3x batch-1", batch64_rate, ">=",
                     3.0 * batch1_rate, 0.0, harness::SeriesKind::kTiming);
  };
  return suite;
}

}  // namespace acolay::bench
