// The pheromone matrix tau (paper §IV-D): tau(v, l) is the desirability of
// assigning vertex v to layer l, learned across tours. The paper's update
// protocol (Alg. 4 lines 16–17): per-tour evaporation of every element
// followed by a deposit from the tour-best ant on its couplings.
//
// Optional MAX-MIN clamping bounds stagnation (the paper observes that
// alpha > 1 without heuristic bias stagnates, §IV-D; clamping is the
// standard remedy and is exercised by the ablation bench).
//
// The per-tour update is the last O(n·L) pass of the colony loop, so
// update() fuses evaporate + tour-best deposit + clamp into one plain
// sweep over the row-major tau array (the compiler vectorizes it),
// optionally sharded across a support::ThreadPool by contiguous row
// blocks for very large matrices. Every path — the three discrete
// methods, the fused sweep, and the sharded sweep at any thread count —
// is bit-identical (tests/core_pheromone_test.cpp pins it on randomized
// matrices).
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "graph/digraph.hpp"
#include "support/check.hpp"

namespace acolay::support {
class ThreadPool;
}  // namespace acolay::support

namespace acolay::core {

/// The pheromone matrix tau of the colony (paper §IV-D): one double per
/// (vertex, layer) coupling, row-major with one contiguous L-sized row
/// per vertex. Layers are 1-based throughout.
class PheromoneMatrix {
 public:
  /// An empty 0 x 0 matrix; fill with reset() before use.
  PheromoneMatrix() = default;

  /// num_vertices x num_layers matrix, all entries tau0.
  PheromoneMatrix(std::size_t num_vertices, int num_layers, double tau0);

  /// Re-initialises to a num_vertices x num_layers matrix of tau0, reusing
  /// the existing buffer where capacity allows — the per-colony-run (and
  /// MAX-MIN restart) path of the batch solver, allocation-free once the
  /// buffer has reached its high-water size. Produces exactly the values
  /// the constructor would.
  void reset(std::size_t num_vertices, int num_layers, double tau0);

  /// Pre-grows the buffer for a num_vertices x num_layers matrix.
  void reserve(std::size_t num_vertices, int num_layers) {
    tau_.reserve(num_vertices *
                 static_cast<std::size_t>(std::max(num_layers, 0)));
  }

  /// Number of vertex rows.
  std::size_t num_vertices() const { return vertices_; }
  /// Number of layer columns.
  int num_layers() const { return layers_; }

  /// tau(v, l); layers are 1-based.
  double at(graph::VertexId v, int layer) const {
    return tau_[offset(v, layer)];
  }

  /// tau(v, l) without the release-build bounds checks — the ant's scoring
  /// loop reads tau once per candidate layer, and the layer is already
  /// range-checked by construction (it comes from the vertex's layer span).
  double at_unchecked(graph::VertexId v, int layer) const {
    ACOLAY_DCHECK_MSG(v >= 0 && static_cast<std::size_t>(v) < vertices_,
                      "vertex " << v << " out of range");
    ACOLAY_DCHECK_MSG(layer >= 1 && layer <= layers_,
                      "layer " << layer << " out of range");
    return tau_[offset_unchecked(v, layer)];
  }

  /// tau *= (1 - rho) for every element.
  void evaporate(double rho);

  /// tau(v, l) += amount.
  void deposit(graph::VertexId v, int layer, double amount);

  /// Clamps every element into [tau_min, tau_max].
  void clamp(double tau_min, double tau_max);

  /// The whole per-tour update protocol (Alg. 4 lines 16–17) in one fused
  /// sweep: for every vertex v, tau(v, ·) *= (1 - rho), then
  /// tau(v, deposit_layers[v]) += amount, then every element is clamped
  /// into [tau_min, tau_max]. Exactly one deposit per row —
  /// `deposit_layers` is the tour-best ant's layer assignment
  /// (Layering::raw()), so `deposit_layers.size()` must equal
  /// num_vertices() and every entry must be a valid 1-based layer.
  ///
  /// Pass tau_min = -infinity / tau_max = +infinity to disable clamping
  /// exactly (the identity on finite tau). Bit-identical to
  /// evaporate(rho); deposit(v, deposit_layers[v], amount) for all v;
  /// clamp(tau_min, tau_max) — but in one pass over memory instead of
  /// three.
  ///
  /// When `pool` is non-null and the matrix is large enough to amortise
  /// task dispatch, the sweep is sharded across the pool by contiguous
  /// blocks of whole rows. Rows are elementwise-independent and each row
  /// receives its single deposit inside its shard, so the result is
  /// bit-identical for every thread count and shard split. Must not be
  /// called from a task already running on `pool` (no nested
  /// parallelism); pass nullptr there — BatchSolver's whole-colony tasks
  /// do.
  void update(double rho, std::span<const int> deposit_layers, double amount,
              double tau_min, double tau_max,
              support::ThreadPool* pool = nullptr);

  /// The contiguous row of vertex `v` (index 0 = layer 1) — the bulk
  /// accessor the incremental solver's row remap copies through.
  std::span<const double> row(graph::VertexId v) const {
    ACOLAY_CHECK_MSG(v >= 0 && static_cast<std::size_t>(v) < vertices_,
                     "vertex " << v << " out of range");
    return {tau_.data() + offset_unchecked(v, 1),
            static_cast<std::size_t>(layers_)};
  }

  /// Mutable row of vertex `v` (index 0 = layer 1). The caller owns
  /// validity: entries must stay positive for the walk's scoring rule.
  std::span<double> row(graph::VertexId v) {
    ACOLAY_CHECK_MSG(v >= 0 && static_cast<std::size_t>(v) < vertices_,
                     "vertex " << v << " out of range");
    return {tau_.data() + offset_unchecked(v, 1),
            static_cast<std::size_t>(layers_)};
  }

  /// Smallest element (O(n·L); requires a non-empty matrix).
  double min_value() const;
  /// Largest element (O(n·L); requires a non-empty matrix).
  double max_value() const;

 private:
  /// The row-major layout, in exactly one place: both accessors route
  /// through it, so they cannot diverge if the layout changes.
  std::size_t offset_unchecked(graph::VertexId v, int layer) const {
    return static_cast<std::size_t>(v) * static_cast<std::size_t>(layers_) +
           static_cast<std::size_t>(layer - 1);
  }

  std::size_t offset(graph::VertexId v, int layer) const {
    ACOLAY_CHECK_MSG(v >= 0 && static_cast<std::size_t>(v) < vertices_,
                     "vertex " << v << " out of range");
    ACOLAY_CHECK_MSG(layer >= 1 && layer <= layers_,
                     "layer " << layer << " out of range");
    return offset_unchecked(v, layer);
  }

  /// The fused update over rows [begin_vertex, end_vertex) — the shard
  /// body; see update() for the semantics.
  void update_rows(std::size_t begin_vertex, std::size_t end_vertex,
                   double keep, std::span<const int> deposit_layers,
                   double amount, double tau_min, double tau_max);

  std::size_t vertices_ = 0;
  int layers_ = 0;
  std::vector<double> tau_;
};

}  // namespace acolay::core
