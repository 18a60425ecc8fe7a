// The Ant (paper §IV-E, §VI): a stochastic constructive agent that builds
// one layering per tour by visiting every vertex in random order and
// re-assigning it to a layer from its layer span using the random
// proportional rule (Eq. (1)):
//
//   p(v, l) = tau(v,l)^alpha * eta(v,l)^beta
//             / sum over l' in span(v) of tau(v,l')^alpha * eta(v,l')^beta
//
// with dynamic heuristic eta(v, l) = 1 / (eta_epsilon + W(l)) — the
// desirability of a layer falls with its current width, dummy contributions
// included (paper §IV-D: "the heuristic value eta_ij = 1/w_ij where w_ij is
// the width of a layer").
//
// Per paper §VI the ant owns copies of the tour-base layering and layer
// widths; after each move it applies Algorithm 5 to the widths (see
// layering/layer_widths.hpp) and refreshes the layer spans of the moved
// vertex's neighbours (Alg. 4 lines 9–11). eta is evaluated directly from
// the width profile rather than materialised as a matrix — the two are
// equivalent and this avoids O(V * L) refreshes.
//
// The greedy argmax (kGreedyMax without a max_width capacity, the paper's
// setting) does not score every layer of a span. A pheromone run of value
// c scores c^alpha * eta^beta, one positive factor times the per-layer
// eta cache, so a whole block of the cache that lies inside one run is
// decided by the block's maximum and the number of layers holding it. A
// move marks the summaries of the blocks whose eta it changed stale; the
// next visit that needs one rebuilds it.
// Layers at the ends of runs and spans, and blocks where rounding could
// merge the runner-up into the maximum, are scored one by one. The
// choice — maximum, tie count, the rng draw and the k-th tie in layer
// order — is exactly the full scan's. Roulette selection and max_width > 0
// keep the full scan.
#pragma once

#include <cstdint>
#include <vector>

#include "core/params.hpp"
#include "core/pheromone.hpp"
#include "graph/csr.hpp"
#include "layering/layer_widths.hpp"
#include "layering/layering.hpp"
#include "layering/metrics.hpp"
#include "layering/spans.hpp"
#include "support/rng.hpp"

namespace acolay::core {

/// Outcome of one ant's walk.
struct WalkResult {
  /// The layering in the *stretched* layer space (may contain empty
  /// layers) — this is what seeds the next tour.
  layering::Layering layering;
  /// Metrics of the compacted (normalized) layering, the paper's
  /// evaluation space.
  layering::LayeringMetrics metrics;
  /// f = 1 / (H + W) of the compacted layering (Alg. 4 line 13).
  double objective = 0.0;
  /// Number of vertices whose layer changed during the walk.
  int moves = 0;
};

/// Layers per block of the eta cache's block summaries (the greedy walk's
/// block-max argmax).
inline constexpr int kEtaBlockLayers = 32;

/// The ant's reusable working state: the paper-§VI per-ant copies (layer
/// widths, layer spans) plus every scratch buffer the walk and its metrics
/// evaluation need. Owned by the colony (one per ant slot) and reused
/// across all tours, so that after the first tour a walk performs zero
/// heap allocation: every buffer is reset in place at its high-water size.
struct WalkWorkspace {
  /// Summary of eta_term over one block of kEtaBlockLayers layers.
  struct EtaBlock {
    double max = 0.0;       ///< largest term in the block
    double second = 0.0;    ///< largest term below max (-inf if none)
    std::size_t count = 0;  ///< layers holding max; 0 marks it stale
  };

  layering::LayerWidths widths;   ///< per-ant Alg. 5 width profile
  layering::SpanTable spans;      ///< per-ant layer spans (Alg. 4 l. 9–11)
  layering::MetricsWorkspace metrics;  ///< fused-metrics scratch
  std::vector<std::int32_t> order;       ///< vertex visiting order
  std::vector<double> scores;            ///< per-candidate-layer scores
  std::vector<double> eta_term;          ///< per-layer eta^beta cache
  std::vector<EtaBlock> eta_blocks;      ///< per-block eta_term summaries
  std::vector<std::uint8_t> bfs_seen;    ///< BFS scratch (VertexOrder::kBfs)
  std::vector<graph::VertexId> bfs_queue;  ///< BFS frontier scratch

  /// Pre-grows every buffer for walks over graphs of up to `num_vertices`
  /// vertices and `num_layers` layers (the batch solver sizes worker
  /// workspaces to the largest admitted graph). Lives here so a new
  /// scratch member cannot be forgotten in a far-away reservation list.
  void reserve(std::size_t num_vertices, std::size_t num_layers) {
    widths.reserve(static_cast<int>(num_layers));
    spans.reserve(num_vertices);
    metrics.reserve(num_layers);
    order.reserve(num_vertices);
    scores.reserve(num_layers);
    eta_term.reserve(num_layers);
    eta_blocks.reserve((num_layers + kEtaBlockLayers - 1) / kEtaBlockLayers);
    bfs_seen.reserve(num_vertices);
    bfs_queue.reserve(num_vertices);
  }
};

/// Executes one walk over a frozen CSR view. `base` must be a valid
/// layering of g within [1, num_layers]; `tau` is the shared pheromone
/// matrix (read-only during the tour). The rng is taken by value: each
/// (tour, ant) pair gets its own forked stream, making the colony's result
/// independent of thread scheduling. All working state lives in `ws`, and
/// the walk writes into `result` (whose buffers are likewise reused), so a
/// walk on warm buffers is allocation-free; the workspace carries no state
/// across calls beyond buffer capacity.
void perform_walk(const graph::CsrView& g, const layering::Layering& base,
                  int num_layers, const PheromoneMatrix& tau,
                  const AcoParams& params, support::Rng rng,
                  WalkWorkspace& ws, WalkResult& result);

}  // namespace acolay::core
