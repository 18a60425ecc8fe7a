// Incremental per-layer width bookkeeping — the paper's Algorithm 5
// ("Updating Layer Widths").
//
// Each ant keeps its own copy of the layer widths and, after every vertex
// move, updates only the affected layers instead of recomputing the whole
// profile. For a move of v from layer c to layer t within v's layer span:
//
//   moving v itself:      W(c) -= w(v);  W(t) += w(v)
//   moving up (t > c):    out-edges of v lengthen: W(l) += nd * outdeg(v)
//                           for l in [c, t-1]
//                         in-edges shorten:        W(l) -= nd * indeg(v)
//                           for l in [c+1, t]
//   moving down (t < c):  out-edges shorten:       W(l) -= nd * outdeg(v)
//                           for l in [t, c-1]
//                         in-edges lengthen:       W(l) += nd * indeg(v)
//                           for l in [t+1, c]
//
// Correctness requires t to lie inside v's layer span (all successors
// strictly below min(c,t), all predecessors strictly above max(c,t)) — which
// the ant guarantees by choosing from the span. The update is validated
// against the from-scratch layer_width_profile in property tests.
#pragma once

#include <algorithm>
#include <vector>

#include "graph/csr.hpp"
#include "layering/layering.hpp"

namespace acolay::layering {

/// The per-ant incremental width profile (paper Alg. 5): per-layer widths
/// including dummy contributions, updated in O(span) per vertex move.
class LayerWidths {
 public:
  /// An empty profile; fill with reset() before use.
  LayerWidths() = default;

  /// (Re)builds the width profile of `l` over `num_layers` layers (>= max
  /// layer), including dummy contributions at `dummy_width` per dummy, in
  /// place — the per-walk initialisation of the ACO hot path,
  /// allocation-free once the buffers have reached their high-water size.
  /// Produces exactly layer_width_profile's widths, padded with empty
  /// layers up to `num_layers`.
  void reset(const graph::CsrView& g, const Layering& l, int num_layers,
             double dummy_width);

  /// Pre-grows the buffers for profiles of up to `num_layers` layers (the
  /// batch solver sizes worker workspaces to the largest admitted graph).
  void reserve(int num_layers) {
    const auto layers = static_cast<std::size_t>(std::max(num_layers, 0));
    width_.reserve(layers);
    diff_.reserve(layers + 1);
  }

  /// Number of layers in the profile.
  int num_layers() const { return static_cast<int>(width_.size()); }
  /// The per-dummy width this profile was built with.
  double dummy_width() const { return dummy_width_; }

  /// Width of `layer` (1-based), dummy contributions included.
  double width(int layer) const {
    ACOLAY_CHECK_MSG(layer >= 1 && layer <= num_layers(),
                     "layer " << layer << " out of range");
    return width_[static_cast<std::size_t>(layer - 1)];
  }

  /// width() without the release-build range check — for the ant's inner
  /// loop, where the layer comes from a span that is in range by
  /// construction.
  double width_unchecked(int layer) const {
    ACOLAY_DCHECK_MSG(layer >= 1 && layer <= num_layers(),
                      "layer " << layer << " out of range");
    return width_[static_cast<std::size_t>(layer - 1)];
  }

  /// Maximum width over all layers (O(num_layers)).
  double max_width() const;

  /// Applies the Algorithm 5 update for moving `v` from layer `from` to
  /// layer `to`. Both layers must be within range (checked in debug builds
  /// only: this is the ant's inner loop); `from == to` is a no-op.
  void apply_move(const graph::CsrView& g, graph::VertexId v, int from,
                  int to);

  /// The whole width array (index 0 = layer 1).
  const std::vector<double>& profile() const { return width_; }

 private:
  std::vector<double> width_;
  std::vector<double> diff_;  // reset() scratch for the dummy prefix
  double dummy_width_ = 0.0;
};

}  // namespace acolay::layering
