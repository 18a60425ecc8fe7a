#include "layering/layer_widths.hpp"

#include <algorithm>

#include "layering/metrics.hpp"

namespace acolay::layering {

void LayerWidths::reset(const graph::CsrView& g, const Layering& l,
                        int num_layers, double dummy_width) {
  const int max_layer = l.max_layer();
  ACOLAY_CHECK(num_layers >= max_layer);
  ACOLAY_CHECK(dummy_width >= 0.0);
  dummy_width_ = dummy_width;
  // One shared accumulation with layer_width_profile
  // (detail::width_profile_into), reusing this instance's buffers.
  detail::width_profile_into(g, l, dummy_width, /*include_dummies=*/true,
                             max_layer, num_layers, width_, diff_);
}

double LayerWidths::max_width() const {
  if (width_.empty()) return 0.0;
  return *std::max_element(width_.begin(), width_.end());
}

void LayerWidths::apply_move(const graph::CsrView& g, graph::VertexId v,
                             int from, int to) {
  ACOLAY_DCHECK(from >= 1 && from <= num_layers());
  ACOLAY_DCHECK(to >= 1 && to <= num_layers());
  if (from == to) return;
  const double vertex_width = g.width(v);
  const double out_delta =
      dummy_width_ * static_cast<double>(g.out_degree(v));
  const double in_delta = dummy_width_ * static_cast<double>(g.in_degree(v));
  width_[static_cast<std::size_t>(from - 1)] -= vertex_width;
  width_[static_cast<std::size_t>(to - 1)] += vertex_width;

  if (to > from) {
    // Moving up: out-edges now cross [from, to-1]; in-edges stop crossing
    // (from, to].
    for (int layer = from; layer <= to - 1; ++layer) {
      width_[static_cast<std::size_t>(layer - 1)] += out_delta;
    }
    for (int layer = from + 1; layer <= to; ++layer) {
      width_[static_cast<std::size_t>(layer - 1)] -= in_delta;
    }
  } else {
    // Moving down: out-edges stop crossing [to, from-1]; in-edges now cross
    // (to, from].
    for (int layer = to; layer <= from - 1; ++layer) {
      width_[static_cast<std::size_t>(layer - 1)] -= out_delta;
    }
    for (int layer = to + 1; layer <= from; ++layer) {
      width_[static_cast<std::size_t>(layer - 1)] += in_delta;
    }
  }
}

}  // namespace acolay::layering
