// Pheromone-update sweep benchmarks: the fused PheromoneMatrix::update
// (one evaporate+deposit+clamp pass) and its thread-pool-sharded
// variant against the discrete three-pass protocol the colony loop used
// to run, across matrix shapes that stress row length vs row count.
//
// Every shape runs a fixed, seeded update sequence through all three
// paths; the quality series re-emit the final matrix extrema per path,
// so the bench-smoke gate pins all three bit-identical across commits
// (columns equal within a run, values stable across runs). The timing
// columns are the headline: the fused sweep touches memory once instead
// of three times, which is the >= 1.5x (typically ~3x) claim on any
// hardware; sharding adds worker scaling on top for very large matrices
// (~1x on a single-core runner, like every other threading headline).
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/pheromone.hpp"
#include "suites/suites.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

namespace acolay::bench {
namespace {

struct MatrixShape {
  std::string label;
  std::size_t vertices;
  int layers;
};

constexpr double kRho = 0.5;
constexpr double kAmount = 1.0;
constexpr double kTauMin = 0.1;
constexpr double kTauMax = 10.0;

std::vector<int> seeded_deposit_layers(std::size_t vertices, int layers,
                                       std::uint64_t seed) {
  support::Rng rng(seed);
  std::vector<int> deposit(vertices);
  for (auto& layer : deposit) {
    layer = static_cast<int>(rng.uniform_int(1, layers));
  }
  return deposit;
}

}  // namespace

harness::Suite pheromone_update_suite() {
  harness::Suite suite;
  suite.name = "pheromone_update";
  suite.description =
      "fused/sharded PheromoneMatrix::update vs the discrete "
      "evaporate+deposit+clamp protocol across matrix shapes";
  suite.run = [](const harness::SuiteContext& ctx,
                 harness::SuiteOutput& output) {
    const std::size_t scale =
        ctx.config.corpus == harness::CorpusSize::kCiSmall ? 1
        : ctx.config.corpus == harness::CorpusSize::kSmall ? 4
                                                           : 16;
    // All shapes hold 64k doubles so the rows differ only in shard
    // geometry: many short rows, square-ish, few very long rows.
    const std::vector<MatrixShape> shapes{
        {"2048x32", 2048, 32}, {"256x256", 256, 256}, {"64x1024", 64, 1024}};
    const std::size_t iterations = 100 * scale;

    support::ThreadPool pool(
        ctx.config.num_threads <= 0
            ? 0
            : static_cast<std::size_t>(ctx.config.num_threads));

    harness::Series timing{"us_per_update", "shape",
                           harness::SeriesKind::kTiming, {}, {}};
    harness::SeriesColumn three_pass_us{"three_pass", {}, {}};
    harness::SeriesColumn fused_us{"fused", {}, {}};
    harness::SeriesColumn sharded_us{"sharded", {}, {}};

    harness::Series tau_min_series{"final_tau_min", "shape",
                                   harness::SeriesKind::kQuality, {}, {}};
    harness::Series tau_max_series{"final_tau_max", "shape",
                                   harness::SeriesKind::kQuality, {}, {}};
    harness::SeriesColumn min_three{"three_pass", {}, {}};
    harness::SeriesColumn min_fused{"fused", {}, {}};
    harness::SeriesColumn min_sharded{"sharded", {}, {}};
    harness::SeriesColumn max_three{"three_pass", {}, {}};
    harness::SeriesColumn max_fused{"fused", {}, {}};
    harness::SeriesColumn max_sharded{"sharded", {}, {}};

    double three_pass_square_us = 0.0;
    double fused_square_us = 0.0;

    for (const auto& shape : shapes) {
      const auto deposit = seeded_deposit_layers(
          shape.vertices, shape.layers, shape.vertices * 31 + 5);
      const std::span<const int> deposit_span(deposit);

      // Discrete three-pass reference: the pre-fusion colony loop.
      core::PheromoneMatrix three_pass(shape.vertices, shape.layers, 1.0);
      support::Stopwatch three_watch;
      for (std::size_t i = 0; i < iterations; ++i) {
        three_pass.evaporate(kRho);
        for (graph::VertexId v = 0;
             static_cast<std::size_t>(v) < shape.vertices; ++v) {
          three_pass.deposit(v, deposit[static_cast<std::size_t>(v)],
                             kAmount);
        }
        three_pass.clamp(kTauMin, kTauMax);
      }
      const double three_elapsed =
          three_watch.elapsed_us() / static_cast<double>(iterations);

      // Fused single sweep, serial.
      core::PheromoneMatrix fused(shape.vertices, shape.layers, 1.0);
      support::Stopwatch fused_watch;
      for (std::size_t i = 0; i < iterations; ++i) {
        fused.update(kRho, deposit_span, kAmount, kTauMin, kTauMax);
      }
      const double fused_elapsed =
          fused_watch.elapsed_us() / static_cast<double>(iterations);

      // Fused sweep, sharded over the pool (falls back to the serial
      // sweep below the element threshold or on a 1-worker pool).
      core::PheromoneMatrix sharded(shape.vertices, shape.layers, 1.0);
      support::Stopwatch sharded_watch;
      for (std::size_t i = 0; i < iterations; ++i) {
        sharded.update(kRho, deposit_span, kAmount, kTauMin, kTauMax,
                       &pool);
      }
      const double sharded_elapsed =
          sharded_watch.elapsed_us() / static_cast<double>(iterations);

      timing.x.push_back(shape.label);
      three_pass_us.mean.push_back(three_elapsed);
      three_pass_us.stddev.push_back(0.0);
      fused_us.mean.push_back(fused_elapsed);
      fused_us.stddev.push_back(0.0);
      sharded_us.mean.push_back(sharded_elapsed);
      sharded_us.stddev.push_back(0.0);

      tau_min_series.x.push_back(shape.label);
      min_three.mean.push_back(three_pass.min_value());
      min_three.stddev.push_back(0.0);
      min_fused.mean.push_back(fused.min_value());
      min_fused.stddev.push_back(0.0);
      min_sharded.mean.push_back(sharded.min_value());
      min_sharded.stddev.push_back(0.0);
      tau_max_series.x.push_back(shape.label);
      max_three.mean.push_back(three_pass.max_value());
      max_three.stddev.push_back(0.0);
      max_fused.mean.push_back(fused.max_value());
      max_fused.stddev.push_back(0.0);
      max_sharded.mean.push_back(sharded.max_value());
      max_sharded.stddev.push_back(0.0);

      if (shape.label == "256x256") {
        three_pass_square_us = three_elapsed;
        fused_square_us = fused_elapsed;
      }
    }

    timing.columns.push_back(std::move(three_pass_us));
    timing.columns.push_back(std::move(fused_us));
    timing.columns.push_back(std::move(sharded_us));
    tau_min_series.columns.push_back(std::move(min_three));
    tau_min_series.columns.push_back(std::move(min_fused));
    tau_min_series.columns.push_back(std::move(min_sharded));
    tau_max_series.columns.push_back(std::move(max_three));
    tau_max_series.columns.push_back(std::move(max_fused));
    tau_max_series.columns.push_back(std::move(max_sharded));
    output.series.push_back(std::move(timing));
    output.series.push_back(std::move(tau_min_series));
    output.series.push_back(std::move(tau_max_series));

    // Throughput headline — timing kind (recorded, never gated): one
    // memory pass instead of three.
    output.add_claim("fused update >= 1.5x three-pass (256x256)",
                     three_pass_square_us, ">=", 1.5 * fused_square_us, 0.0,
                     harness::SeriesKind::kTiming);
  };
  return suite;
}

}  // namespace acolay::bench
