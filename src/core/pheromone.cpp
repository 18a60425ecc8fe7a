#include "core/pheromone.hpp"

#include <algorithm>

#include "support/thread_pool.hpp"

namespace acolay::core {

namespace {

// Below this many elements the whole update is cheaper than one task
// dispatch, so update() stays on the calling thread even when a pool is
// offered. ~32k doubles is a few microseconds of sweep — the same order
// as a submit/wake round trip on the pool.
constexpr std::size_t kShardMinElements = std::size_t{1} << 15;

// Rows per shard are chosen so every worker gets a few shards (cheap
// dynamic balancing via the pool's chunking) without descending to
// per-row tasks.
constexpr std::size_t kShardsPerWorker = 4;

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
  tau_.assign(
      num_vertices * static_cast<std::size_t>(std::max(num_layers, 0)),
      tau0);
}

void PheromoneMatrix::evaporate(double rho) {
  ACOLAY_CHECK_MSG(rho >= 0.0 && rho <= 1.0, "rho must be in [0,1]");
  const double keep = 1.0 - rho;
  for (auto& tau : tau_) tau *= keep;
}

void PheromoneMatrix::deposit(graph::VertexId v, int layer, double amount) {
  ACOLAY_CHECK_MSG(amount >= 0.0, "deposit must be non-negative");
  tau_[offset(v, layer)] += amount;
}

void PheromoneMatrix::clamp(double tau_min, double tau_max) {
  ACOLAY_CHECK(tau_min <= tau_max);
  for (auto& tau : tau_) tau = std::clamp(tau, tau_min, tau_max);
}

void PheromoneMatrix::update_rows(std::size_t begin_vertex,
                                  std::size_t end_vertex, double keep,
                                  std::span<const int> deposit_layers,
                                  double amount, double tau_min,
                                  double tau_max) {
  const auto layers = static_cast<std::size_t>(layers_);
  for (std::size_t v = begin_vertex; v < end_vertex; ++v) {
    const int layer = deposit_layers[v];
    ACOLAY_CHECK_MSG(layer >= 1 && layer <= layers_,
                     "deposit layer " << layer << " out of range for vertex "
                                      << v);
    double* row = tau_.data() + v * layers;
    const auto dep = static_cast<std::size_t>(layer - 1);
    // The deposited element follows evaporate -> deposit -> clamp; compute
    // it up front from the pre-sweep value, let the sweep write a wrong
    // (deposit-less) value there, and fix it up after. The intermediate is
    // volatile to pin the evaporate rounding before the deposit add: the
    // reference path rounds tau*keep through memory between two sweeps,
    // and an FMA contraction here (-ffp-contract=fast under -march
    // builds) would skip that rounding and break bit-identity.
    volatile double evaporated = row[dep] * keep;
    double deposited = evaporated + amount;
    deposited = std::min(std::max(deposited, tau_min), tau_max);
    // Bounds first: that is maxpd/minpd's operand order, so the vectorized
    // loop needs no register copies (std::clamp's order measured 5-15 %
    // slower on cache-resident rows). The two orders can differ only on
    // NaN, or where a +0.0 value meets a -0.0 bound.
    for (std::size_t l = 0; l < layers; ++l) {
      row[l] = std::min(tau_max, std::max(tau_min, row[l] * keep));
    }
    row[dep] = deposited;
  }
}

void PheromoneMatrix::update(double rho,
                             std::span<const int> deposit_layers,
                             double amount, double tau_min, double tau_max,
                             support::ThreadPool* pool) {
  ACOLAY_CHECK_MSG(rho >= 0.0 && rho <= 1.0, "rho must be in [0,1]");
  ACOLAY_CHECK_MSG(amount >= 0.0, "deposit must be non-negative");
  ACOLAY_CHECK_MSG(deposit_layers.size() == vertices_,
                   "deposit_layers covers " << deposit_layers.size()
                                            << " vertices, matrix has "
                                            << vertices_);
  ACOLAY_CHECK(tau_min <= tau_max);
  if (vertices_ == 0 || layers_ == 0) return;
  const double keep = 1.0 - rho;

  if (pool != nullptr && pool->num_threads() > 1 &&
      tau_.size() >= kShardMinElements) {
    // Contiguous whole-row shards: each row (one L-sized slice) is updated
    // by exactly one task, deposit included, so the split cannot change
    // any value — sharding is pure memory-bandwidth parallelism.
    const std::size_t num_shards = std::min(
        vertices_, pool->num_threads() * kShardsPerWorker);
    const std::size_t rows_per_shard =
        (vertices_ + num_shards - 1) / num_shards;
    support::parallel_for(*pool, num_shards, [&](std::size_t shard) {
      const std::size_t begin = shard * rows_per_shard;
      const std::size_t end =
          std::min(begin + rows_per_shard, vertices_);
      if (begin < end) {
        update_rows(begin, end, keep, deposit_layers, amount, tau_min,
                    tau_max);
      }
    });
    return;
  }
  update_rows(0, vertices_, keep, deposit_layers, amount, tau_min, tau_max);
}

double PheromoneMatrix::min_value() const {
  ACOLAY_CHECK(!tau_.empty());
  return *std::min_element(tau_.begin(), tau_.end());
}

double PheromoneMatrix::max_value() const {
  ACOLAY_CHECK(!tau_.empty());
  return *std::max_element(tau_.begin(), tau_.end());
}

}  // namespace acolay::core
