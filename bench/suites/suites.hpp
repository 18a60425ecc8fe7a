// Suite registrations for acolay_bench — each function returns the Suite
// definitions that replaced one family of the old standalone bench
// binaries (see bench/README in the top-level README "Benchmarks"
// section). The registry order is the order `--list` prints and the order
// a full run executes.
#pragma once

#include <vector>

#include "harness/bench_runner.hpp"

namespace acolay::bench {

/// fig4..fig9 — the paper's Figures 4–9 (width / height+DVC / edge
/// density+runtime, each vs the LPL and MinWidth baseline families).
std::vector<harness::Suite> figure_suites();

/// ablation-stretch / ablation-selection / ablation-hybrid — design-choice
/// ablations (paper §V-A, §IV-D, §IX).
std::vector<harness::Suite> ablation_suites();

/// param-alpha-beta / param-dummy-width — the paper §VIII tuning sweeps.
std::vector<harness::Suite> param_suites();

/// corpus-stats — structural audit of the AT&T-substitute corpus.
harness::Suite corpus_stats_suite();

/// micro — per-component timings of the acolay building blocks.
harness::Suite micro_suite();

/// batch_throughput — core::BatchSolver vs the sequential colony loop
/// (graphs/s, ant·vertices/s, and the exact-parity quality series) across
/// batch sizes 1/8/64.
harness::Suite batch_throughput_suite();

/// serving_latency — server::Server p50/p99 response latency under a
/// synthetic open-loop request stream (one third duplicates), gated on
/// served-equals-direct objective parity and exact dedup collapse.
harness::Suite serving_latency_suite();

/// relayer_latency — IncrementalSolver warm update() vs cold full-budget
/// re-solves over random edit scripts, gated on the >= 3x warm-over-cold
/// headline and the versioned incremental-quality tolerances.
harness::Suite relayer_latency_suite();

/// cyclic_admission — the Phase 0 FAS pass on planted-cycle digraphs:
/// reversal counts (gated aco <= greedy and == the planted minimum) and
/// end-to-end latency vs the DAG-only path (gated <= 3x greedy, <= 6x
/// aco — the aco_fas Phase 0 mini-colony is comparable to the main solve
/// on the small CI instances).
harness::Suite cyclic_admission_suite();

/// scaling — serial core::solve on deep and wide DAGs of n = 256..4096:
/// solve time, the final pheromone matrix's bytes and the colony's
/// objective over its longest-path start (both gated).
harness::Suite scaling_suite();

/// Every registered suite, in canonical order.
std::vector<harness::Suite> all_suites();

}  // namespace acolay::bench
