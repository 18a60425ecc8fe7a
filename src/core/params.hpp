// Parameters of the ACO layering algorithm (paper §V–§VIII).
//
// Defaults follow the paper's production configuration: α=1, β=3 (§VIII —
// "(3,5) best ... followed closely by (1,3) ... at the expense of longer
// running times ... therefore 1 and 3 will be used"), 10 tours (§V-C),
// nd_width = 1 (§VIII), and a colony of 10 ants.
#pragma once

#include <cstdint>
#include <limits>

namespace acolay::core {

/// What a solver entry point does with a cyclic input graph — "Phase 0"
/// of the solve path (graph/cycle_removal.hpp). The layering engine itself
/// always runs on a DAG; the non-reject policies reverse a feedback arc
/// set ahead of the colony and report the reversed edges (original
/// orientation) in SolveOutcome::reversed_edges. Part of the admission
/// surface (core::SolveRequest) rather than AcoParams so the params-equality
/// dedup contract of the serving layer is unchanged; it lives here so
/// colony/batch/incremental share the enum without an include cycle.
enum class CyclePolicy {
  /// Reject cyclic graphs at admission with AdmissionError::kCycle — the
  /// default, and the only behaviour before cycles became first-class.
  kReject = 0,
  /// Reverse the greedy Eades–Lin–Smyth feedback arc set
  /// (graph::make_acyclic) before solving.
  kGreedyReverse,
  /// Reverse an ACO-guided feedback arc set (graph::make_acyclic_aco,
  /// seeded from AcoParams::seed; never more reversals than greedy).
  kAcoFas,
};

/// Stable wire identifier of a CyclePolicy ("reject", "greedy_reverse",
/// "aco_fas") — the request field's vocabulary in docs/SERVING.md.
const char* cycle_policy_name(CyclePolicy policy);

/// How an ant picks the layer for a vertex from the random proportional
/// rule's probabilities (Eq. (1)).
enum class SelectionRule {
  /// argmax of the probabilities — the paper's Alg. 4 line 6 (ties broken
  /// per TieBreak).
  kGreedyMax,
  /// Sample proportionally to the probabilities — the textbook ACO rule
  /// [Dorigo & Stützle]; available for the ablation bench.
  kRoulette,
};

/// Tie handling for kGreedyMax.
enum class TieBreak {
  kRandom,  ///< uniform among maximal layers (default; avoids layer bias)
  kFirst,   ///< lowest layer (fully deterministic given tau/eta)
};

/// Order in which an ant visits the vertices (paper §IV-D offers both:
/// "Methods such as Breadth First Search ... Random choice ... is another
/// option").
enum class VertexOrder {
  kRandom,  ///< fresh uniform permutation per walk (paper §IV-A)
  kBfs,     ///< BFS over the underlying undirected graph from a random
            ///< start — neighbourhood-coherent cascades
};

/// Reaction to colony stagnation — consecutive tours in which no ant moved
/// any vertex (the greedy-argmax walk reaches such a fixpoint within a few
/// tours; see EXPERIMENTS.md). An acolay extension; the paper always runs
/// all tours.
enum class StagnationPolicy {
  kNone,            ///< paper behaviour: keep running (wasted tours)
  kStop,            ///< end the search early (identical result, less time)
  kResetPheromone,  ///< MAX-MIN-style restart: reset tau to tau0 and keep
                    ///< searching from the current best
};

/// Where the stretch step inserts the n - n_LPL new layers (§V-A).
enum class StretchMode {
  /// Distribute between the LPL layers (paper Fig. 2 — the chosen design).
  kBetweenLayers,
  /// Half below, half above the LPL layers (paper Fig. 1 — the rejected
  /// alternative, kept for the ablation bench).
  kTopBottom,
  /// No new layers: ants work on the LPL layering directly (the "too
  /// restrictive" case the paper argues against).
  kNone,
};

/// All tunables of the ACO layering search, with the paper's production
/// configuration as defaults. Validated by core::admit (validate_request)
/// at every colony entry point.
struct AcoParams {
  int num_ants = 10;   ///< colony size (walks per tour)
  int num_tours = 10;  ///< paper §V-C: "10 was the value we used"

  double alpha = 1.0;  ///< pheromone exponent
  double beta = 3.0;   ///< heuristic exponent

  double rho = 0.5;    ///< evaporation rate: tau *= (1 - rho) per tour
  double tau0 = 1.0;   ///< initial pheromone
  /// Deposit scale: the tour-best ant adds deposit * f(best) to each of its
  /// (vertex, layer) couplings.
  double deposit = 10.0;

  /// Width of a dummy vertex (paper nd_width; §VIII sweeps 0.1..1.2).
  double dummy_width = 1.0;
  /// Additive floor in the heuristic eta = 1 / (eta_epsilon + W(l)) so an
  /// empty layer has large-but-finite desirability (DESIGN.md deviation 1).
  double eta_epsilon = 0.1;

  SelectionRule selection = SelectionRule::kGreedyMax;  ///< layer choice rule
  TieBreak tie_break = TieBreak::kRandom;  ///< tie handling for kGreedyMax
  VertexOrder order = VertexOrder::kRandom;  ///< vertex visiting order
  StretchMode stretch = StretchMode::kBetweenLayers;  ///< §V-A stretch step

  StagnationPolicy stagnation = StagnationPolicy::kNone;  ///< see enum
  /// Consecutive zero-move tours that trigger the stagnation policy.
  int stagnation_tours = 2;

  /// Optional layer capacity W (paper §IV-C): layers whose width would
  /// exceed this are removed from an ant's neighbourhood (0 disables; the
  /// vertex's current layer is always permitted so walks cannot wedge).
  double max_width = 0.0;

  /// Optional MAX-MIN-style pheromone clamping (0 / infinity disable).
  double tau_min = 0.0;
  double tau_max = std::numeric_limits<double>::infinity();  ///< see tau_min

  /// Root RNG seed; every (tour, ant) pair forks its own stream from it.
  std::uint64_t seed = 1;

  /// Worker threads for the parallel ant walks; 0 = hardware concurrency,
  /// 1 = serial. Results are identical for any thread count.
  int num_threads = 1;

  /// Record per-tour statistics in AcoResult::trace.
  bool record_trace = true;

  /// Field-wise equality — the serving layer's dedup cache shares a solve
  /// only between requests whose params (seed included) are identical.
  friend bool operator==(const AcoParams&, const AcoParams&) = default;
};

}  // namespace acolay::core
