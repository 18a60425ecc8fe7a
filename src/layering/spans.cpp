#include "layering/spans.hpp"

#include <algorithm>

namespace acolay::layering {

namespace {

// Shared span computation over either graph representation. The min/max
// over neighbours is order-insensitive, so Digraph and CsrView agree by
// construction; layers are read through Layering::raw() to keep the ACO
// inner loop free of per-neighbour bounds branches — guarded by the
// up-front size check, so a layering for the wrong graph still fails
// cleanly in release builds.
template <typename Graph>
LayerSpan span_of(const Graph& g, const Layering& l, graph::VertexId v,
                  int num_layers) {
  ACOLAY_CHECK(num_layers >= 1);
  ACOLAY_CHECK_MSG(l.num_vertices() == g.num_vertices(),
                   "layering covers " << l.num_vertices()
                                      << " vertices, graph has "
                                      << g.num_vertices());
  const std::vector<int>& layers = l.raw();
  LayerSpan span{1, num_layers};
  for (const graph::VertexId w : g.successors(v)) {
    span.lo = std::max(span.lo, layers[static_cast<std::size_t>(w)] + 1);
  }
  for (const graph::VertexId p : g.predecessors(v)) {
    span.hi = std::min(span.hi, layers[static_cast<std::size_t>(p)] - 1);
  }
  ACOLAY_CHECK_MSG(span.lo <= span.hi,
                   "empty layer span for vertex "
                       << v << " [" << span.lo << ", " << span.hi
                       << "] — layering invalid?");
  return span;
}

}  // namespace

LayerSpan compute_span(const graph::Digraph& g, const Layering& l,
                       graph::VertexId v, int num_layers) {
  return span_of(g, l, v, num_layers);
}

LayerSpan compute_span(const graph::CsrView& g, const Layering& l,
                       graph::VertexId v, int num_layers) {
  return span_of(g, l, v, num_layers);
}

void SpanTable::reset(const graph::CsrView& g, const Layering& l,
                      int num_layers) {
  num_layers_ = num_layers;
  spans_.resize(g.num_vertices());
  for (graph::VertexId v = 0;
       static_cast<std::size_t>(v) < g.num_vertices(); ++v) {
    spans_[static_cast<std::size_t>(v)] = compute_span(g, l, v, num_layers);
  }
}

void SpanTable::refresh(const graph::CsrView& g, const Layering& l,
                        graph::VertexId v) {
  spans_[static_cast<std::size_t>(v)] = compute_span(g, l, v, num_layers_);
}

void SpanTable::refresh_around(const graph::CsrView& g, const Layering& l,
                               graph::VertexId moved) {
  refresh(g, l, moved);
  for (const graph::VertexId w : g.successors(moved)) refresh(g, l, w);
  for (const graph::VertexId p : g.predecessors(moved)) refresh(g, l, p);
}

}  // namespace acolay::layering
