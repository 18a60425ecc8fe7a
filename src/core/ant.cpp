#include "core/ant.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "graph/algorithms.hpp"

namespace acolay::core {

namespace {

using Run = PheromoneMatrix::Run;
using EtaBlock = WalkWorkspace::EtaBlock;

/// How to evaluate x^e in the scoring loop. alpha and beta are almost
/// always 0 or 1 in at least one term (the paper's production setting is
/// alpha=1), where std::pow is pure overhead: pow(x, 0) == 1 and
/// pow(x, 1) == x exactly, so the fast paths are bit-identical.
enum class PowMode { kZero, kOne, kGeneral };

PowMode pow_mode(double exponent) {
  if (exponent == 0.0) return PowMode::kZero;
  if (exponent == 1.0) return PowMode::kOne;
  return PowMode::kGeneral;
}

inline double pow_by_mode(double x, double exponent, PowMode mode) {
  switch (mode) {
    case PowMode::kZero:
      return 1.0;
    case PowMode::kOne:
      return x;
    case PowMode::kGeneral:
      break;
  }
  // lint:allow-next-line(no-pow-in-inner-loop) -- this IS the sanctioned
  // general case behind the fast paths; every other caller goes through
  // pow_by_mode or the per-layer eta^beta cache.
  return std::pow(x, exponent);
}

/// Which of `count` maximal layers (in layer order) the greedy rule takes:
/// a uniform draw under TieBreak::kRandom when there is a real tie, the
/// first otherwise.
std::size_t tie_index(std::size_t count, const AcoParams& params,
                      support::Rng& rng) {
  if (count == 1 || params.tie_break == TieBreak::kFirst) return 0;
  return rng.index(count);
}

/// Folds one score held by `count` layers into the running greedy maximum.
inline void tally(double score, std::size_t count, double& best,
                  std::size_t& best_count) {
  if (score > best) {
    best = score;
    best_count = count;
  } else if (score == best) {
    best_count += count;
  }
}

/// Chooses a layer index (1-based) from `scores` over the candidate layers
/// [lo, lo + scores.size()) — the full scan behind roulette selection and
/// the max_width capacity.
int choose_layer(std::span<const double> scores, int lo,
                 const AcoParams& params, support::Rng& rng) {
  if (params.selection == SelectionRule::kRoulette) {
    double total = 0.0;
    for (const double s : scores) total += s;
    if (total > 0.0) {
      // Presummed overload: skips weighted_index's validation re-scan; the
      // sum above runs in the same index order, so the draw is identical.
      return lo + static_cast<int>(rng.weighted_index(scores, total));
    }
    // All-zero scores (possible with clamped tau=0): fall through to max.
  }
  // Greedy argmax with configurable tie-breaking.
  double best = -1.0;
  std::size_t count = 0;
  for (const double s : scores) tally(s, 1, best, count);
  std::size_t k = tie_index(count, params, rng);
  for (std::size_t i = 0; i < scores.size(); ++i) {
    if (scores[i] == best && k-- == 0) return lo + static_cast<int>(i);
  }
  return lo;  // unreachable: count >= 1 scores equal best
}

/// Folds one eta term into a block summary.
inline void fold(EtaBlock& block, double x) {
  if (x > block.max) {
    block.second = block.max;
    block.max = x;
    block.count = 1;
  } else if (x == block.max) {
    ++block.count;
  } else if (x > block.second) {
    block.second = x;
  }
}

/// The summary of eta block `b`, rebuilt from the eta cache when a move
/// has marked it stale.
const EtaBlock& eta_block(WalkWorkspace& ws, std::size_t b) {
  EtaBlock& block = ws.eta_blocks[b];
  if (block.count == 0) {
    constexpr double kNone = -std::numeric_limits<double>::infinity();
    block = EtaBlock{kNone, kNone, 0};
    const std::size_t first = b * kEtaBlockLayers;
    const std::size_t last =
        std::min(first + kEtaBlockLayers, ws.eta_term.size());
    for (std::size_t i = first; i < last; ++i) fold(block, ws.eta_term[i]);
  }
  return block;
}

/// Visits the candidate layers [lo, hi] of a greedy visit in layer order,
/// as pieces whose layers share one pheromone factor p = tau^alpha:
/// visit(first, last, p, block) over the 0-based eta indices [first, last],
/// stopping when visit returns false. `block` is non-null when the piece
/// is a whole eta block inside one run and p * second < p * max: then
/// exactly block->count layers score the piece's maximum p * block->max,
/// since every smaller term scores at most p * second. Every other piece
/// (the ends of a run or of the span, and blocks where rounding may merge
/// the runner-up into the maximum) must be scored layer by layer.
template <typename Visit>
void for_each_piece(std::span<const Run> runs, int lo, int hi,
                    const AcoParams& params, PowMode alpha_mode,
                    WalkWorkspace& ws, Visit&& visit) {
  const int num_layers = static_cast<int>(ws.eta_term.size());
  for (std::size_t r = PheromoneMatrix::run_holding(runs, lo); lo <= hi; ++r) {
    const int run_last = std::min(
        r + 1 < runs.size() ? runs[r + 1].first - 1 : num_layers, hi);
    const double p = pow_by_mode(runs[r].value, params.alpha, alpha_mode);
    for (int i = lo - 1; i < run_last;) {
      const int block_first = i / kEtaBlockLayers * kEtaBlockLayers;
      const int block_last =
          std::min(block_first + kEtaBlockLayers, num_layers) - 1;
      const int last = std::min(block_last, run_last - 1);
      const EtaBlock* block = nullptr;
      if (i == block_first && last == block_last) {
        const EtaBlock& summary =
            eta_block(ws, static_cast<std::size_t>(i / kEtaBlockLayers));
        if (p * summary.second < p * summary.max) block = &summary;
      }
      if (!visit(i, last, p, block)) return;
      i = last + 1;
    }
    lo = run_last + 1;
  }
}

/// The block-max greedy choice among layers [lo, hi] for a vertex whose
/// pheromone row is `runs`: the layer the full scan's greedy argmax picks
/// (the same maximum, tie count, rng draw and k-th tie), or 0 when no
/// layer scores above zero.
int choose_block_max(std::span<const Run> runs, int lo, int hi,
                     const AcoParams& params, PowMode alpha_mode,
                     WalkWorkspace& ws, support::Rng& rng) {
  // Pass 1: the maximal score and how many layers hold it.
  double best = -1.0;
  std::size_t count = 0;
  for_each_piece(runs, lo, hi, params, alpha_mode, ws,
                 [&](int first, int last, double p, const EtaBlock* block) {
                   if (block != nullptr) {
                     tally(p * block->max, block->count, best, count);
                     return true;
                   }
                   for (int i = first; i <= last; ++i) {
                     tally(p * ws.eta_term[static_cast<std::size_t>(i)], 1,
                           best, count);
                   }
                   return true;
                 });
  if (!(best > 0.0)) return 0;
  // Pass 2: the k-th maximal layer in layer order.
  std::size_t k = tie_index(count, params, rng);
  int chosen = 0;
  for_each_piece(runs, lo, hi, params, alpha_mode, ws,
                 [&](int first, int last, double p, const EtaBlock* block) {
                   if (block != nullptr) {
                     if (p * block->max != best) return true;
                     if (k >= block->count) {
                       k -= block->count;
                       return true;
                     }
                   }
                   for (int i = first; i <= last; ++i) {
                     if (p * ws.eta_term[static_cast<std::size_t>(i)] ==
                             best &&
                         k-- == 0) {
                       chosen = i + 1;
                       return false;
                     }
                   }
                   return true;
                 });
  return chosen;
}

}  // namespace

void perform_walk(const graph::CsrView& g, const layering::Layering& base,
                  int num_layers, const PheromoneMatrix& tau,
                  const AcoParams& params, support::Rng rng,
                  WalkWorkspace& ws, WalkResult& result) {
  const auto n = g.num_vertices();
  result.layering = base;
  result.metrics = {};
  result.objective = 0.0;
  result.moves = 0;
  if (n == 0) return;

  // The ant's private working state (paper §VI: performWalk "initialises
  // ... its own copy of the layer widths data structure"), rebuilt in
  // place inside the reusable workspace.
  ws.widths.reset(g, result.layering, num_layers, params.dummy_width);
  ws.spans.reset(g, result.layering, num_layers);

  // Vertex visiting order: a fresh random permutation (paper §IV-A: "each
  // ant is placed on a randomly selected vertex ... the next one is chosen
  // by the ant again randomly") or a BFS sweep from a random start (the
  // §IV-D alternative).
  if (params.order == VertexOrder::kBfs) {
    graph::bfs_order_into(g, static_cast<graph::VertexId>(rng.index(n)),
                          ws.order, ws.bfs_seen, ws.bfs_queue);
  } else {
    ws.order.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      ws.order[i] = static_cast<std::int32_t>(i);
    }
    rng.shuffle(ws.order);
  }

  const PowMode alpha_mode = pow_mode(params.alpha);
  const PowMode beta_mode = pow_mode(params.beta);

  // Per-layer heuristic cache: eta(l)^beta depends only on the layer's
  // current width, so it is computed once per layer here and refreshed for
  // just the layers a move touches — instead of per (vertex, candidate
  // layer) pair, where the general-exponent std::pow dominated the walk.
  // Identical doubles flow through the identical expression, so every
  // score is bit-for-bit what the uncached evaluation produced.
  const auto eta_of = [&](int layer) {
    const double eta =
        1.0 / (params.eta_epsilon + ws.widths.width_unchecked(layer));
    return pow_by_mode(eta, params.beta, beta_mode);
  };
  // The block-max argmax (file comment): the paper's greedy rule without a
  // capacity. Roulette draws need every score, and max_width excludes
  // single layers, so both keep the full scan.
  const bool block_max = params.selection == SelectionRule::kGreedyMax &&
                         !(params.max_width > 0.0);
  // Recomputes the eta terms of layers [lo, hi]. The summaries of the
  // blocks holding them go stale; a visit that needs one rebuilds it.
  const auto refresh_eta = [&](int lo, int hi) {
    for (int layer = lo; layer <= hi; ++layer) {
      ws.eta_term[static_cast<std::size_t>(layer - 1)] = eta_of(layer);
    }
    if (!block_max) return;
    for (int b = (lo - 1) / kEtaBlockLayers; b <= (hi - 1) / kEtaBlockLayers;
         ++b) {
      ws.eta_blocks[static_cast<std::size_t>(b)].count = 0;
    }
  };
  ws.eta_term.resize(static_cast<std::size_t>(num_layers));
  if (block_max) {
    ws.eta_blocks.resize(static_cast<std::size_t>(
        (num_layers + kEtaBlockLayers - 1) / kEtaBlockLayers));
  }
  refresh_eta(1, num_layers);

  for (const auto vertex_index : ws.order) {
    const auto v = static_cast<graph::VertexId>(vertex_index);
    const auto span = ws.spans.span(v);
    const int current = result.layering.layer(v);
    const auto runs = tau.runs(v);

    int chosen = current;
    if (block_max) {
      chosen = choose_block_max(runs, span.lo, span.hi, params, alpha_mode,
                                ws, rng);
      if (chosen == 0) continue;  // nothing admissible: keep current
    } else {
      ws.scores.assign(static_cast<std::size_t>(span.size()), 0.0);
      bool any_candidate = false;
      const double vertex_width = g.width(v);
      std::size_t r = PheromoneMatrix::run_holding(runs, span.lo);
      double p = pow_by_mode(runs[r].value, params.alpha, alpha_mode);
      for (int layer = span.lo; layer <= span.hi; ++layer) {
        if (r + 1 < runs.size() && runs[r + 1].first == layer) {
          p = pow_by_mode(runs[++r].value, params.alpha, alpha_mode);
        }
        // Optional neighbourhood capacity (paper §IV-C): skip layers that
        // would exceed max_width; the current layer is always feasible.
        if (params.max_width > 0.0 && layer != current &&
            ws.widths.width_unchecked(layer) + vertex_width >
                params.max_width) {
          continue;
        }
        const double score =
            p * ws.eta_term[static_cast<std::size_t>(layer - 1)];
        ws.scores[static_cast<std::size_t>(layer - span.lo)] = score;
        any_candidate = any_candidate || score > 0.0;
      }
      if (!any_candidate) continue;  // nothing admissible: keep current
      chosen = choose_layer(ws.scores, span.lo, params, rng);
    }

    if (chosen != current) {
      ws.widths.apply_move(g, v, current, chosen);
      result.layering.set_layer(v, chosen);
      ws.spans.refresh_around(g, result.layering, v);
      ++result.moves;
      // A move of v between layers `current` and `chosen` changes only the
      // widths inside that inclusive range (Alg. 5): refresh their cached
      // eta terms.
      refresh_eta(std::min(current, chosen), std::max(current, chosen));
    }
  }

  // Objective on the compacted layering (paper §VI note: empty middle
  // layers are removed before the layering is evaluated) — fused and
  // copy-free: the compaction is a remap inside the metrics scan.
  result.metrics = layering::compute_metrics(
      g, result.layering, layering::MetricsOptions{params.dummy_width},
      ws.metrics, /*compact=*/true);
  result.objective = result.metrics.objective;
}

}  // namespace acolay::core
