#include "core/ant.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/algorithms.hpp"

namespace acolay::core {

namespace {

/// Chooses a layer index (1-based) from `scores` over the candidate layers
/// [lo, lo + scores.size()). `ties` is caller-owned scratch.
int choose_layer(std::span<const double> scores, int lo,
                 const AcoParams& params, support::Rng& rng,
                 std::vector<int>& ties) {
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
  ties.clear();
  for (std::size_t i = 0; i < scores.size(); ++i) {
    if (scores[i] > best) {
      best = scores[i];
      ties.clear();
      ties.push_back(static_cast<int>(i));
    } else if (scores[i] == best) {
      ties.push_back(static_cast<int>(i));
    }
  }
  if (ties.size() == 1 || params.tie_break == TieBreak::kFirst) {
    return lo + ties.front();
  }
  return lo + ties[rng.index(ties.size())];
}

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
  ws.eta_term.resize(static_cast<std::size_t>(num_layers));
  for (int layer = 1; layer <= num_layers; ++layer) {
    ws.eta_term[static_cast<std::size_t>(layer - 1)] = eta_of(layer);
  }

  for (const auto vertex_index : ws.order) {
    const auto v = static_cast<graph::VertexId>(vertex_index);
    const auto span = ws.spans.span(v);
    const int current = result.layering.layer(v);

    ws.scores.assign(static_cast<std::size_t>(span.size()), 0.0);
    bool any_candidate = false;
    const double vertex_width = g.width(v);
    for (int layer = span.lo; layer <= span.hi; ++layer) {
      // Optional neighbourhood capacity (paper §IV-C): skip layers that
      // would exceed max_width; the current layer is always feasible.
      if (params.max_width > 0.0 && layer != current &&
          ws.widths.width_unchecked(layer) + vertex_width >
              params.max_width) {
        continue;
      }
      const double score =
          pow_by_mode(tau.at_unchecked(v, layer), params.alpha, alpha_mode) *
          ws.eta_term[static_cast<std::size_t>(layer - 1)];
      ws.scores[static_cast<std::size_t>(layer - span.lo)] = score;
      any_candidate = any_candidate || score > 0.0;
    }
    if (!any_candidate) continue;  // nothing admissible: keep current layer

    const int chosen = choose_layer(ws.scores, span.lo, params, rng, ws.ties);
    if (chosen != current) {
      ws.widths.apply_move(g, v, current, chosen);
      result.layering.set_layer(v, chosen);
      ws.spans.refresh_around(g, result.layering, v);
      ++result.moves;
      // A move of v between layers `current` and `chosen` changes only the
      // widths inside that inclusive range (Alg. 5): refresh their cached
      // eta terms.
      const int lo = std::min(current, chosen);
      const int hi = std::max(current, chosen);
      for (int layer = lo; layer <= hi; ++layer) {
        ws.eta_term[static_cast<std::size_t>(layer - 1)] = eta_of(layer);
      }
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
