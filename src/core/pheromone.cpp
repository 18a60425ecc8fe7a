#include "core/pheromone.hpp"

#include <algorithm>
#include <bit>

namespace acolay::core {

namespace {

// Runs each row holds before the arena first grows. Ten tours (the paper's
// budget) leave at most 21 runs in a row and, in practice, 2-3; 16 keeps
// the first five tours of a fresh matrix inside the stride, so the
// steady-state tour loop never re-lays the arena.
constexpr std::size_t kInitialRowStride = 16;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

PheromoneMatrix::PheromoneMatrix(std::size_t num_vertices, int num_layers,
                                 double tau0) {
  reset(num_vertices, num_layers, tau0);
}

void PheromoneMatrix::reset(std::size_t num_vertices, int num_layers,
                            double tau0) {
  ACOLAY_CHECK(num_layers >= 0);
  ACOLAY_CHECK_MSG(tau0 > 0.0, "tau0 must be positive");
  vertices_ = num_vertices;
  layers_ = num_layers;
  stride_ = stride_for(num_layers);
  runs_.resize(vertices_ * stride_);
  counts_.assign(vertices_, 1);
  for (std::size_t v = 0; v < vertices_; ++v) {
    runs_[v * stride_] = Run{1, tau0};
  }
}

void PheromoneMatrix::reserve(std::size_t num_vertices, int num_layers) {
  runs_.reserve(num_vertices * stride_for(num_layers));
  counts_.reserve(num_vertices);
}

std::size_t PheromoneMatrix::stride_for(int num_layers) const {
  const auto layers = static_cast<std::size_t>(std::max(num_layers, 0));
  return std::max({stride_, std::size_t{1},
                   std::min(kInitialRowStride, layers)});
}

double PheromoneMatrix::at(graph::VertexId v, int layer) const {
  ACOLAY_CHECK_MSG(v >= 0 && static_cast<std::size_t>(v) < vertices_,
                   "vertex " << v << " out of range");
  ACOLAY_CHECK_MSG(layer >= 1 && layer <= layers_,
                   "layer " << layer << " out of range");
  const auto row = runs(v);
  return row[run_holding(row, layer)].value;
}

void PheromoneMatrix::grow_stride(std::size_t min_stride) {
  const std::size_t old_stride = stride_;
  stride_ = std::min(std::max(2 * stride_, min_stride),
                     static_cast<std::size_t>(layers_));
  runs_.resize(vertices_ * stride_);
  // Back to front: row v moves right, over rows already moved or its own
  // old slots, never over a row still waiting.
  for (std::size_t v = vertices_; v-- > 0;) {
    const Run* from = runs_.data() + v * old_stride;
    std::copy_backward(from, from + counts_[v],
                       runs_.data() + v * stride_ + counts_[v]);
  }
}

void PheromoneMatrix::update(double rho,
                             std::span<const int> deposit_layers,
                             double amount, double tau_min, double tau_max,
                             support::ThreadPool* /*pool*/) {
  ACOLAY_CHECK_MSG(rho >= 0.0 && rho <= 1.0, "rho must be in [0,1]");
  ACOLAY_CHECK_MSG(amount >= 0.0, "deposit must be non-negative");
  ACOLAY_CHECK_MSG(deposit_layers.size() == vertices_,
                   "deposit_layers covers " << deposit_layers.size()
                                            << " vertices, matrix has "
                                            << vertices_);
  ACOLAY_CHECK(tau_min <= tau_max);
  if (vertices_ == 0 || layers_ == 0) return;
  const double keep = 1.0 - rho;

  for (std::size_t v = 0; v < vertices_; ++v) {
    const int layer = deposit_layers[v];
    ACOLAY_CHECK_MSG(layer >= 1 && layer <= layers_,
                     "deposit layer " << layer << " out of range for vertex "
                                      << v);
    std::size_t count = counts_[v];
    Run* row = runs_.data() + v * stride_;
    // The run holding the deposit layer, and the runs its split adds.
    const std::size_t j = run_holding({row, count}, layer);
    const int first = row[j].first;
    const int last = j + 1 < count ? row[j + 1].first - 1 : layers_;
    const std::size_t extra = static_cast<std::size_t>(first < layer) +
                              static_cast<std::size_t>(layer < last);
    if (count + extra > stride_) {
      grow_stride(count + extra);
      row = runs_.data() + v * stride_;
    }

    // The deposited element follows evaporate -> deposit -> clamp from its
    // pre-update value. The intermediate is volatile to pin the evaporate
    // rounding before the deposit add: the discrete protocol rounds
    // tau*keep through memory between two sweeps, and an FMA contraction
    // here (-ffp-contract=fast under -march builds) would skip that
    // rounding and break bit-identity.
    volatile double evaporated = row[j].value * keep;
    double deposited = evaporated + amount;
    deposited = std::min(std::max(deposited, tau_min), tau_max);
    // Every other layer of a run sees exactly this expression, so one
    // evaluation per run is the dense sweep's value for each of its layers.
    for (std::size_t i = 0; i < count; ++i) {
      row[i].value = std::min(tau_max, std::max(tau_min, row[i].value * keep));
    }

    // Split run j around the deposit layer: [first, layer - 1] and
    // [layer + 1, last] keep the evaporated value.
    const double background = row[j].value;
    std::copy_backward(row + j + 1, row + count, row + count + extra);
    std::size_t at = j;
    if (first < layer) row[at++] = Run{first, background};
    row[at++] = Run{layer, deposited};
    if (layer < last) row[at] = Run{layer + 1, background};
    count += extra;

    // Merge neighbours whose values became bit-equal (clamped, or
    // underflowed to the same subnormal).
    std::size_t kept = 0;
    for (std::size_t i = 1; i < count; ++i) {
      if (!same_bits(row[i].value, row[kept].value)) row[++kept] = row[i];
    }
    counts_[v] = static_cast<std::uint32_t>(kept + 1);
  }
}

void PheromoneMatrix::copy_row(graph::VertexId v, const PheromoneMatrix& src,
                               graph::VertexId src_v, int cols, double tau0) {
  ACOLAY_CHECK_MSG(v >= 0 && static_cast<std::size_t>(v) < vertices_,
                   "vertex " << v << " out of range");
  ACOLAY_CHECK_MSG(src_v >= 0 &&
                       static_cast<std::size_t>(src_v) < src.vertices_,
                   "source vertex " << src_v << " out of range");
  ACOLAY_CHECK(cols >= 1 && cols <= layers_ && cols <= src.layers_);
  const auto in = src.runs(src_v);
  const std::size_t kept = run_holding(in, cols) + 1;
  const bool tail = cols < layers_;
  if (kept + static_cast<std::size_t>(tail) > stride_) {
    grow_stride(kept + static_cast<std::size_t>(tail));
  }
  Run* row = runs_.data() + static_cast<std::size_t>(v) * stride_;
  std::copy(in.begin(), in.begin() + static_cast<std::ptrdiff_t>(kept), row);
  std::size_t count = kept;
  if (tail && !same_bits(row[count - 1].value, tau0)) {
    row[count++] = Run{cols + 1, tau0};
  }
  counts_[static_cast<std::size_t>(v)] = static_cast<std::uint32_t>(count);
}

std::size_t PheromoneMatrix::bytes() const {
  return runs_.capacity() * sizeof(Run) +
         counts_.capacity() * sizeof(std::uint32_t);
}

}  // namespace acolay::core
