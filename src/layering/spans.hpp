// Layer spans (paper §II): the set of layers a vertex can occupy given the
// current assignment of its neighbours. For vertex v in a layering with
// `num_layers` available layers:
//
//   lo(v) = 1 + max{ layer(w) : w successor of v }      (1 if no successor)
//   hi(v) = -1 + min{ layer(p) : p predecessor of v }   (num_layers if none)
//
// The span is the inclusive range [lo, hi]; a valid layering always has
// layer(v) within v's span. Spans change whenever a neighbour moves — the
// SpanTable supports that incremental recomputation (paper Alg. 4 line 10).
#pragma once

#include <vector>

#include "graph/csr.hpp"
#include "graph/digraph.hpp"
#include "layering/layering.hpp"

namespace acolay::layering {

/// One vertex's inclusive range [lo, hi] of admissible layers.
struct LayerSpan {
  int lo = 1;  ///< lowest admissible layer
  int hi = 1;  ///< highest admissible layer

  /// Whether `layer` lies inside the span.
  bool contains(int layer) const { return layer >= lo && layer <= hi; }
  /// Number of admissible layers.
  int size() const { return hi - lo + 1; }

  /// Spans are equal iff their bounds are.
  friend bool operator==(const LayerSpan&, const LayerSpan&) = default;
};

/// Computes the span of a single vertex from its neighbours' layers.
LayerSpan compute_span(const graph::Digraph& g, const Layering& l,
                       graph::VertexId v, int num_layers);

/// CSR-view overload (the ACO hot path).
LayerSpan compute_span(const graph::CsrView& g, const Layering& l,
                       graph::VertexId v, int num_layers);

/// Cached spans for all vertices with per-vertex refresh, over a frozen
/// CSR view (the ACO hot path).
class SpanTable {
 public:
  /// An empty table; fill with reset() before use.
  SpanTable() = default;

  /// (Re)computes every vertex's span for `l` over `num_layers` layers in
  /// place, reusing the table's storage — the per-walk initialisation of
  /// the ACO hot path.
  void reset(const graph::CsrView& g, const Layering& l, int num_layers);

  /// Pre-grows the table for graphs of up to `num_vertices` vertices.
  void reserve(std::size_t num_vertices) { spans_.reserve(num_vertices); }

  /// The cached span of vertex `v`.
  const LayerSpan& span(graph::VertexId v) const {
    return spans_[static_cast<std::size_t>(v)];
  }

  /// The layer budget the spans were computed against.
  int num_layers() const { return num_layers_; }

  /// Recomputes the span of `v` (call for every neighbour of a moved
  /// vertex, per paper Alg. 4 lines 9–11).
  void refresh(const graph::CsrView& g, const Layering& l, graph::VertexId v);

  /// Refreshes the spans of every neighbour of `moved` and of `moved`
  /// itself.
  void refresh_around(const graph::CsrView& g, const Layering& l,
                      graph::VertexId moved);

 private:
  std::vector<LayerSpan> spans_;
  int num_layers_ = 0;
};

}  // namespace acolay::layering
