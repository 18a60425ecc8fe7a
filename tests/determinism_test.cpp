// Thread-count determinism: src/core/colony.hpp claims "the result [is]
// bit-identical for any thread count", and the experiment harness and the
// bench suites inherit that claim (CI's bench-smoke gate diffs their JSON
// against a checked-in baseline, so any scheduling-dependent numeric drift
// would break the gate). This suite pins the claim down for
// num_threads ∈ {1, 4, hardware} on a seeded corpus.
#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <thread>
#include <vector>

#include "baselines/longest_path.hpp"
#include "core/ant.hpp"
#include "core/batch.hpp"
#include "core/colony.hpp"
#include "core/stretch.hpp"
#include "gen/corpus.hpp"
#include "graph/csr.hpp"
#include "harness/experiment.hpp"
#include "harness/figures.hpp"
#include "support/alloc_guard.hpp"
#include "support/thread_pool.hpp"
#include "test_util.hpp"

namespace acolay {
namespace {

std::vector<int> thread_counts() {
  const int hardware =
      static_cast<int>(std::thread::hardware_concurrency());
  return {1, 4, hardware > 0 ? hardware : 1};
}

gen::Corpus seeded_corpus() {
  gen::CorpusParams params;  // fixed default seed 20070325
  params.total_graphs = 38;  // two per group
  return gen::make_corpus(params);
}

TEST(Determinism, ColonyRunIsBitIdenticalAcrossThreadCounts) {
  const auto corpus = seeded_corpus();
  // A spread of sizes: smallest, median, largest.
  const std::vector<std::size_t> picks{0, corpus.graphs.size() / 2,
                                       corpus.graphs.size() - 1};
  for (const std::size_t gi : picks) {
    const auto& g = corpus.graphs[gi];
    core::AcoParams params;
    params.seed = 20070325 + gi;
    params.num_threads = 1;
    const auto reference = core::AntColony(g, params).run();
    for (const int threads : thread_counts()) {
      core::AcoParams variant = params;
      variant.num_threads = threads;
      const auto result = core::AntColony(g, variant).run();
      // Bit-identical: the exact same layer for every vertex ...
      ASSERT_EQ(result.layering.num_vertices(),
                reference.layering.num_vertices());
      for (std::size_t v = 0; v < reference.layering.num_vertices(); ++v) {
        ASSERT_EQ(result.layering.layer(static_cast<graph::VertexId>(v)),
                  reference.layering.layer(static_cast<graph::VertexId>(v)))
            << "graph " << gi << ", threads " << threads << ", vertex " << v;
      }
      // ... and exactly the same objective/metrics doubles.
      EXPECT_EQ(result.metrics.objective, reference.metrics.objective);
      EXPECT_EQ(result.metrics.width_incl_dummies,
                reference.metrics.width_incl_dummies);
      EXPECT_EQ(result.metrics.height, reference.metrics.height);
      EXPECT_EQ(result.metrics.dummy_count, reference.metrics.dummy_count);
      // The per-tour trace is part of the claim too (same search path, not
      // merely the same endpoint).
      ASSERT_EQ(result.trace.size(), reference.trace.size());
      for (std::size_t t = 0; t < reference.trace.size(); ++t) {
        EXPECT_EQ(result.trace[t].best_objective,
                  reference.trace[t].best_objective);
        EXPECT_EQ(result.trace[t].total_moves,
                  reference.trace[t].total_moves);
      }
    }
  }
}

TEST(Determinism, WalkWorkspaceReuseIsBitIdentical) {
  // The colony reuses one WalkWorkspace per ant slot across every tour;
  // this pins that a *reused* workspace produces exactly the walks a
  // *fresh* workspace does, over an evolving tour-base sequence (each
  // walk's result seeds the next walk, like Alg. 4's base hand-off).
  const auto corpus = seeded_corpus();
  const std::vector<std::size_t> picks{0, corpus.graphs.size() / 2,
                                       corpus.graphs.size() - 1};
  for (const std::size_t gi : picks) {
    const auto& g = corpus.graphs[gi];
    const graph::CsrView csr(g);
    const auto lpl = baselines::longest_path_layering(g);
    core::AcoParams params;
    const auto stretched = core::stretch_layering(g, lpl, params.stretch);
    const int num_layers = std::max(stretched.num_layers, 1);
    const core::PheromoneMatrix tau(g.num_vertices(), num_layers,
                                    params.tau0);
    const support::Rng root(20070325 + gi);

    core::WalkWorkspace reused;
    core::WalkResult reused_result;
    layering::Layering base_a = stretched.layering;
    layering::Layering base_b = stretched.layering;
    for (std::uint64_t walk = 0; walk < 6; ++walk) {
      core::perform_walk(csr, base_a, num_layers, tau, params,
                         root.fork(walk), reused, reused_result);
      core::WalkWorkspace fresh;
      core::WalkResult fresh_result;
      core::perform_walk(csr, base_b, num_layers, tau, params,
                         root.fork(walk), fresh, fresh_result);
      ASSERT_EQ(reused_result.layering, fresh_result.layering)
          << "graph " << gi << ", walk " << walk;
      EXPECT_EQ(reused_result.objective, fresh_result.objective);
      EXPECT_EQ(reused_result.metrics.width_incl_dummies,
                fresh_result.metrics.width_incl_dummies);
      EXPECT_EQ(reused_result.metrics.dummy_count,
                fresh_result.metrics.dummy_count);
      EXPECT_EQ(reused_result.moves, fresh_result.moves);
      base_a = reused_result.layering;
      base_b = fresh_result.layering;
    }
  }
}

TEST(Determinism, SteadyStateColonyTourIsAllocationFree) {
  // The zero-allocation claim behind workspace reuse, enforced rather than
  // asserted in a comment: replay run_colony's serial tour body (ant walks
  // with forked rng streams, deterministic best-ant reduction, fused
  // evaporate+deposit update, base hand-off) with workspaces reserved for
  // this graph's (vertices, layers) bound, and demand that every tour
  // after the warm-up performs zero heap allocations. The guard counts
  // nothing in release/sanitizer builds; the debug CI leg arms it.
  const auto corpus = seeded_corpus();
  const auto& g = corpus.graphs[corpus.graphs.size() / 2];
  const graph::CsrView csr(g);
  const auto lpl = baselines::longest_path_layering(g);
  core::AcoParams params;
  const auto stretched = core::stretch_layering(g, lpl, params.stretch);
  const int num_layers = std::max(stretched.num_layers, 1);
  core::PheromoneMatrix tau(g.num_vertices(), num_layers, params.tau0);
  const support::Rng root(20070325);

  const std::size_t num_ants = 4;
  std::vector<core::WalkWorkspace> ants(num_ants);
  for (auto& ws : ants) {
    ws.reserve(g.num_vertices(), static_cast<std::size_t>(num_layers));
  }
  std::vector<core::WalkResult> walks(num_ants);
  layering::Layering base = stretched.layering;

  const bool clamped =
      params.tau_min > 0.0 ||
      params.tau_max < std::numeric_limits<double>::infinity();
  const auto run_tour = [&](int tour) {
    for (std::size_t ant = 0; ant < num_ants; ++ant) {
      core::perform_walk(csr, base, num_layers, tau, params,
                         root.fork(static_cast<std::uint64_t>(tour), ant),
                         ants[ant], walks[ant]);
    }
    std::size_t best_ant = 0;
    for (std::size_t ant = 1; ant < num_ants; ++ant) {
      if (walks[ant].objective > walks[best_ant].objective) best_ant = ant;
    }
    const core::WalkResult& tour_best = walks[best_ant];
    tau.update(params.rho, tour_best.layering.raw(),
               params.deposit * tour_best.objective,
               clamped ? params.tau_min
                       : -std::numeric_limits<double>::infinity(),
               clamped ? params.tau_max
                       : std::numeric_limits<double>::infinity(),
               nullptr);
    base = tour_best.layering;  // same vertex count: capacity is reused
  };

  run_tour(1);  // warm-up tour grows every buffer to its high-water size
  for (int tour = 2; tour <= 5; ++tour) {
    ACOLAY_ASSERT_NO_ALLOC(run_tour(tour));
  }
  EXPECT_TRUE(layering::is_valid_layering(g, base));
}

TEST(Determinism, ColonyRerunWithWarmWorkspacesIsBitIdentical) {
  // run_colony resets a reused ColonyWorkspace in place (BatchSolver's
  // workers and IncrementalSolver rely on this): a second run on warm
  // (high-water-sized) buffers must reproduce the first run bit for bit,
  // serially and on an ant pool of every size.
  const auto corpus = seeded_corpus();
  const auto& g = corpus.graphs[corpus.graphs.size() / 2];
  const graph::CsrView csr(g);
  for (const int threads : thread_counts()) {
    core::AcoParams params;
    params.seed = 20070326;
    std::optional<support::ThreadPool> pool;
    if (threads != 1) pool.emplace(static_cast<std::size_t>(threads));
    support::ThreadPool* ant_pool = pool ? &*pool : nullptr;
    core::ColonyWorkspace ws;
    const auto cold = core::run_colony(g, csr, params, ws, ant_pool);
    const auto warm = core::run_colony(g, csr, params, ws, ant_pool);
    ASSERT_EQ(cold.layering.num_vertices(), warm.layering.num_vertices());
    for (std::size_t v = 0; v < cold.layering.num_vertices(); ++v) {
      ASSERT_EQ(cold.layering.layer(static_cast<graph::VertexId>(v)),
                warm.layering.layer(static_cast<graph::VertexId>(v)))
          << "threads " << threads << ", vertex " << v;
    }
    EXPECT_EQ(cold.metrics.objective, warm.metrics.objective);
    EXPECT_EQ(cold.metrics.width_incl_dummies,
              warm.metrics.width_incl_dummies);
    ASSERT_EQ(cold.trace.size(), warm.trace.size());
    for (std::size_t t = 0; t < cold.trace.size(); ++t) {
      EXPECT_EQ(cold.trace[t].best_objective, warm.trace[t].best_objective);
      EXPECT_EQ(cold.trace[t].total_moves, warm.trace[t].total_moves);
    }
  }
}

TEST(Determinism, BatchSolverIsBitIdenticalToSequentialAcrossThreadCounts) {
  // The BatchSolver contract: a batch equals N sequential AntColony::run()
  // calls bit for bit, at any worker count. Whole corpus, full results
  // (layering, metrics doubles, trace).
  const auto corpus = seeded_corpus();
  core::AcoParams params;
  params.num_ants = 6;
  params.num_tours = 4;

  std::vector<core::AcoResult> reference;
  reference.reserve(corpus.graphs.size());
  for (std::size_t gi = 0; gi < corpus.graphs.size(); ++gi) {
    core::AcoParams p = params;
    p.seed = 20070325 + gi;
    reference.push_back(core::AntColony(corpus.graphs[gi], p).run());
  }

  for (const int threads : thread_counts()) {
    core::BatchSolver solver(threads);
    std::vector<core::BatchJobId> ids;
    for (std::size_t gi = 0; gi < corpus.graphs.size(); ++gi) {
      core::AcoParams p = params;
      p.seed = 20070325 + gi;
      ids.push_back(test::submit_request(solver, corpus.graphs[gi], p));
    }
    for (std::size_t gi = 0; gi < ids.size(); ++gi) {
      const auto result = test::wait_result(solver, ids[gi]);
      ASSERT_EQ(result.layering, reference[gi].layering)
          << "graph " << gi << ", threads " << threads;
      EXPECT_EQ(result.metrics.objective, reference[gi].metrics.objective);
      EXPECT_EQ(result.metrics.width_incl_dummies,
                reference[gi].metrics.width_incl_dummies);
      ASSERT_EQ(result.trace.size(), reference[gi].trace.size());
      for (std::size_t t = 0; t < result.trace.size(); ++t) {
        EXPECT_EQ(result.trace[t].best_objective,
                  reference[gi].trace[t].best_objective);
        EXPECT_EQ(result.trace[t].total_moves,
                  reference[gi].trace[t].total_moves);
      }
    }
  }
}

TEST(Determinism, BatchSolverIsStableUnderSubmissionPermutation) {
  // Per-job results depend only on (graph, params): submitting
  // the same jobs in a different order — onto workers with differently
  // warmed workspaces — must not change any of them.
  const auto corpus = seeded_corpus();
  core::AcoParams params;
  params.num_ants = 5;
  params.num_tours = 3;

  const auto job_params = [&params](std::size_t gi) {
    core::AcoParams p = params;
    p.seed = 977 + gi;
    return p;
  };

  core::BatchSolver forward(4);
  std::vector<core::BatchJobId> forward_ids(corpus.graphs.size());
  for (std::size_t gi = 0; gi < corpus.graphs.size(); ++gi) {
    forward_ids[gi] =
        test::submit_request(forward, corpus.graphs[gi], job_params(gi));
  }

  // Reverse order: the largest graphs now warm the workspaces first.
  core::BatchSolver backward(4);
  std::vector<core::BatchJobId> backward_ids(corpus.graphs.size());
  for (std::size_t gi = corpus.graphs.size(); gi-- > 0;) {
    backward_ids[gi] =
        test::submit_request(backward, corpus.graphs[gi], job_params(gi));
  }

  for (std::size_t gi = 0; gi < corpus.graphs.size(); ++gi) {
    const auto a = test::wait_result(forward, forward_ids[gi]);
    const auto b = test::wait_result(backward, backward_ids[gi]);
    ASSERT_EQ(a.layering, b.layering) << "graph " << gi;
    EXPECT_EQ(a.metrics.objective, b.metrics.objective);
    EXPECT_EQ(a.metrics.dummy_count, b.metrics.dummy_count);
  }
}

TEST(Determinism, BatchWorkerWorkspacesCarryNoCrossGraphState) {
  // A worker's ColonyWorkspace is reused job after job; beyond buffer
  // capacity it must carry nothing. Solve the corpus, then re-solve every
  // graph through the same (now maximally warmed) solver and through a
  // cold one: all three runs must agree bit for bit.
  const auto corpus = seeded_corpus();
  core::AcoParams params;
  params.num_ants = 4;
  params.num_tours = 3;
  params.seed = 31337;

  core::BatchSolver warm(2);
  std::vector<core::BatchJobId> first_ids;
  for (const auto& g : corpus.graphs) {
    first_ids.push_back(test::submit_request(warm, g, params));
  }
  warm.wait_all();

  for (std::size_t gi = 0; gi < corpus.graphs.size(); ++gi) {
    const auto rerun_id =
        test::submit_request(warm, corpus.graphs[gi], params);
    const auto first = test::wait_result(warm, first_ids[gi]);
    const auto rerun = test::wait_result(warm, rerun_id);
    ASSERT_EQ(first.layering, rerun.layering) << "graph " << gi;
    EXPECT_EQ(first.metrics.objective, rerun.metrics.objective);

    core::BatchSolver cold(1);
    const auto fresh = test::wait_result(
        cold, test::submit_request(cold, corpus.graphs[gi], params));
    ASSERT_EQ(first.layering, fresh.layering) << "graph " << gi;
    EXPECT_EQ(first.metrics.objective, fresh.metrics.objective);
  }
}

TEST(Determinism, HarnessExperimentIsBitIdenticalAcrossThreadCounts) {
  const auto corpus = seeded_corpus();
  const std::vector<harness::Algorithm> algs{
      harness::Algorithm::kLongestPath, harness::Algorithm::kMinWidth,
      harness::Algorithm::kAntColony};
  harness::ExperimentOptions reference_opts;
  reference_opts.run.aco.num_ants = 6;
  reference_opts.run.aco.num_tours = 4;
  reference_opts.num_threads = 1;
  const auto reference =
      harness::run_corpus_experiment(corpus, algs, reference_opts);

  const std::vector<harness::Criterion> criteria{
      harness::Criterion::kWidthInclDummies,
      harness::Criterion::kWidthExclDummies,
      harness::Criterion::kHeight,
      harness::Criterion::kDummyCount,
      harness::Criterion::kEdgeDensity,
      harness::Criterion::kObjective};
  for (const int threads : thread_counts()) {
    harness::ExperimentOptions opts = reference_opts;
    opts.num_threads = threads;
    const auto result = harness::run_corpus_experiment(corpus, algs, opts);
    ASSERT_EQ(result.cells.size(), reference.cells.size());
    for (std::size_t group = 0; group < reference.cells.size(); ++group) {
      for (std::size_t a = 0; a < algs.size(); ++a) {
        for (const auto criterion : criteria) {
          // EXPECT_EQ, not EXPECT_NEAR: the claim is bit-identity.
          EXPECT_EQ(
              criterion_mean(result.cells[group][a], criterion),
              criterion_mean(reference.cells[group][a], criterion))
              << "group " << group << ", alg " << a << ", threads "
              << threads;
          EXPECT_EQ(
              criterion_stddev(result.cells[group][a], criterion),
              criterion_stddev(reference.cells[group][a], criterion));
        }
      }
    }
  }
}

}  // namespace
}  // namespace acolay
