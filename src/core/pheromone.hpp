// The pheromone matrix tau (paper §IV-D): tau(v, l) is the desirability of
// assigning vertex v to layer l, learned across tours. The paper's update
// protocol (Alg. 4 lines 16–17): per-tour evaporation of every element
// followed by a deposit from the tour-best ant on its couplings.
//
// Optional MAX-MIN clamping bounds stagnation (the paper observes that
// alpha > 1 without heuristic bias stagnates, §IV-D; clamping is the
// standard remedy and is exercised by the ablation bench).
//
// The stretch step (§V-A) gives every vertex L = n candidate layers, but a
// row holds very few distinct values: evaporation scales a whole row by
// one factor and the tour-best deposits on one layer per row, so after T
// tours a row is at most 2T + 1 runs of equal values. Each row is stored
// as that sorted list of runs. update() applies to each run's value the
// expression a dense sweep applies to each of its layers, so every
// tau(v, l) is bit-identical to the dense matrix the paper describes
// (tests/core_pheromone_test.cpp drives both side by side). The walk reads
// a row run by run (core/ant.cpp), which is what lets its greedy argmax
// skip whole blocks of layers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/digraph.hpp"
#include "support/check.hpp"

namespace acolay::support {
class ThreadPool;
}  // namespace acolay::support

namespace acolay::core {

/// The pheromone matrix tau of the colony (paper §IV-D): one value per
/// (vertex, layer) coupling, each row stored as runs of equal values.
/// Layers are 1-based throughout.
class PheromoneMatrix {
 public:
  /// Layers [first, the next run's first) of a row all hold `value`; the
  /// last run of a row extends to num_layers().
  struct Run {
    int first = 1;        ///< first layer of the run (1-based)
    double value = 0.0;   ///< tau of every layer in the run
  };

  /// An empty 0 x 0 matrix; fill with reset() before use.
  PheromoneMatrix() = default;

  /// num_vertices x num_layers matrix, all entries tau0.
  PheromoneMatrix(std::size_t num_vertices, int num_layers, double tau0);

  /// Re-initialises to a num_vertices x num_layers matrix of tau0: every
  /// row becomes one run, in O(num_vertices). The run arena keeps its row
  /// stride and capacity, so the per-colony-run (and MAX-MIN restart) path
  /// is allocation-free once the arena has reached its high-water size.
  void reset(std::size_t num_vertices, int num_layers, double tau0);

  /// Pre-grows the arena for num_vertices rows of a num_layers-layer
  /// matrix at the stride reset() would pick.
  void reserve(std::size_t num_vertices, int num_layers);

  /// Number of vertex rows.
  std::size_t num_vertices() const { return vertices_; }
  /// Number of layer columns.
  int num_layers() const { return layers_; }

  /// tau(v, l); layers are 1-based. O(log runs of the row).
  double at(graph::VertexId v, int layer) const;

  /// The runs of row `v` in layer order: the first starts at layer 1 and
  /// each run ends where the next begins. Neighbouring runs hold values
  /// that differ in at least one bit.
  std::span<const Run> runs(graph::VertexId v) const {
    ACOLAY_DCHECK_MSG(v >= 0 && static_cast<std::size_t>(v) < vertices_,
                      "vertex " << v << " out of range");
    return {runs_.data() + static_cast<std::size_t>(v) * stride_,
            counts_[static_cast<std::size_t>(v)]};
  }

  /// Index of the run of `row` (a runs() span) that holds `layer`.
  static std::size_t run_holding(std::span<const Run> row, int layer) {
    return static_cast<std::size_t>(
        std::upper_bound(row.begin(), row.end(), layer,
                         [](int l, const Run& r) { return l < r.first; }) -
        row.begin() - 1);
  }

  /// The whole per-tour update protocol (Alg. 4 lines 16–17): for every
  /// vertex v, tau(v, ·) *= (1 - rho), then tau(v, deposit_layers[v]) +=
  /// amount, then every element is clamped into [tau_min, tau_max].
  /// Exactly one deposit per row — `deposit_layers` is the tour-best ant's
  /// layer assignment (Layering::raw()), so `deposit_layers.size()` must
  /// equal num_vertices() and every entry must be a valid 1-based layer.
  /// Each row's deposit run splits into at most three, and neighbouring
  /// runs whose values became bit-equal merge.
  ///
  /// Pass tau_min = -infinity / tau_max = +infinity to disable clamping
  /// exactly (the identity on finite tau). `pool` is ignored: the update
  /// costs O(runs), far below one task dispatch.
  void update(double rho, std::span<const int> deposit_layers, double amount,
              double tau_min, double tau_max,
              support::ThreadPool* pool = nullptr);

  /// Row `v` becomes layers [1, cols] of row `src_v` of `src`, followed by
  /// tau0 on layers (cols, num_layers()] — the incremental solver's remap
  /// of a surviving vertex. O(runs). Requires 1 <= cols <= num_layers()
  /// and cols <= src.num_layers().
  void copy_row(graph::VertexId v, const PheromoneMatrix& src,
                graph::VertexId src_v, int cols, double tau0);

  /// Bytes the matrix holds: the capacity of its run arena and run counts.
  std::size_t bytes() const;

 private:
  /// The row stride reset() and reserve() pick for a num_layers-layer
  /// matrix: the current stride, raised to at least 1 and to the initial
  /// stride (or num_layers, if fewer). It never shrinks, so a warm arena
  /// keeps its size.
  std::size_t stride_for(int num_layers) const;

  /// Re-lays every row at a stride of at least `min_stride` runs
  /// (doubling, capped at num_layers()).
  void grow_stride(std::size_t min_stride);

  std::size_t vertices_ = 0;
  int layers_ = 0;
  /// Runs reserved per row: row v occupies runs_[v * stride_, ...).
  std::size_t stride_ = 0;
  std::vector<Run> runs_;
  std::vector<std::uint32_t> counts_;  ///< runs in use per row
};

}  // namespace acolay::core
