// Tests for the pheromone matrix (paper §IV-D, Alg. 4 lines 16–17),
// including the fused update() sweep and its sharded variant: both must
// be bit-identical to the discrete evaporate/deposit/clamp protocol on
// every shard-boundary shape (row lengths around any vector width the
// compiler picks, single-layer matrices, clamp saturation) and at every
// thread count.
#include "core/pheromone.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace acolay::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// A reproducibly scrambled matrix: tau0 fill plus a few random
// deposit/evaporate rounds so the entries are unequal doubles.
PheromoneMatrix random_matrix(support::Rng& rng, std::size_t n, int layers) {
  PheromoneMatrix tau(n, layers, rng.uniform(0.5, 2.0));
  const int rounds = static_cast<int>(rng.uniform_int(1, 3));
  for (int round = 0; round < rounds; ++round) {
    const auto deposits = rng.uniform_int(1, 8);
    for (std::int64_t d = 0; d < deposits; ++d) {
      const auto v = static_cast<graph::VertexId>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      const int layer = static_cast<int>(rng.uniform_int(1, layers));
      tau.deposit(v, layer, rng.uniform(0.0, 3.0));
    }
    tau.evaporate(rng.uniform(0.0, 0.6));
  }
  return tau;
}

// The discrete three-pass reference protocol the fused sweep replaces.
void reference_update(PheromoneMatrix& tau, double rho,
                      std::span<const int> deposit_layers, double amount,
                      double tau_min, double tau_max) {
  tau.evaporate(rho);
  for (graph::VertexId v = 0;
       static_cast<std::size_t>(v) < tau.num_vertices(); ++v) {
    tau.deposit(v, deposit_layers[static_cast<std::size_t>(v)], amount);
  }
  if (tau_min != -kInf || tau_max != kInf) tau.clamp(tau_min, tau_max);
}

void expect_same_matrix(const PheromoneMatrix& a, const PheromoneMatrix& b,
                        const char* what) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_layers(), b.num_layers());
  for (graph::VertexId v = 0; static_cast<std::size_t>(v) < a.num_vertices();
       ++v) {
    for (int layer = 1; layer <= a.num_layers(); ++layer) {
      ASSERT_TRUE(same_bits(a.at(v, layer), b.at(v, layer)))
          << what << ": tau(" << v << ", " << layer << ") "
          << a.at(v, layer) << " vs " << b.at(v, layer);
    }
  }
}

TEST(Pheromone, InitialisesUniformly) {
  const PheromoneMatrix tau(3, 4, 2.5);
  for (graph::VertexId v = 0; v < 3; ++v) {
    for (int layer = 1; layer <= 4; ++layer) {
      EXPECT_DOUBLE_EQ(tau.at(v, layer), 2.5);
    }
  }
  EXPECT_EQ(tau.num_vertices(), 3u);
  EXPECT_EQ(tau.num_layers(), 4);
}

TEST(Pheromone, RejectsNonPositiveTau0) {
  EXPECT_THROW(PheromoneMatrix(2, 2, 0.0), support::CheckError);
  EXPECT_THROW(PheromoneMatrix(2, 2, -1.0), support::CheckError);
}

TEST(Pheromone, EvaporationScalesEverything) {
  PheromoneMatrix tau(2, 3, 1.0);
  tau.evaporate(0.5);
  for (graph::VertexId v = 0; v < 2; ++v) {
    for (int layer = 1; layer <= 3; ++layer) {
      EXPECT_DOUBLE_EQ(tau.at(v, layer), 0.5);
    }
  }
  tau.evaporate(0.0);  // no-op
  EXPECT_DOUBLE_EQ(tau.at(0, 1), 0.5);
  tau.evaporate(1.0);  // full evaporation
  EXPECT_DOUBLE_EQ(tau.at(0, 1), 0.0);
}

TEST(Pheromone, EvaporationRejectsOutOfRangeRho) {
  PheromoneMatrix tau(1, 1, 1.0);
  EXPECT_THROW(tau.evaporate(-0.1), support::CheckError);
  EXPECT_THROW(tau.evaporate(1.1), support::CheckError);
}

TEST(Pheromone, DepositAccumulates) {
  PheromoneMatrix tau(2, 2, 1.0);
  tau.deposit(1, 2, 0.25);
  tau.deposit(1, 2, 0.25);
  EXPECT_DOUBLE_EQ(tau.at(1, 2), 1.5);
  EXPECT_DOUBLE_EQ(tau.at(0, 1), 1.0);  // untouched
}

TEST(Pheromone, DepositRejectsNegativeAmount) {
  PheromoneMatrix tau(1, 1, 1.0);
  EXPECT_THROW(tau.deposit(0, 1, -0.5), support::CheckError);
}

TEST(Pheromone, BoundsChecked) {
  PheromoneMatrix tau(2, 3, 1.0);
  EXPECT_THROW((void)tau.at(2, 1), support::CheckError);
  EXPECT_THROW((void)tau.at(0, 0), support::CheckError);
  EXPECT_THROW((void)tau.at(0, 4), support::CheckError);
  EXPECT_THROW(tau.deposit(-1, 1, 0.1), support::CheckError);
}

TEST(Pheromone, ClampEnforcesBand) {
  PheromoneMatrix tau(1, 3, 1.0);
  tau.deposit(0, 1, 9.0);   // -> 10
  tau.evaporate(0.0);
  tau.clamp(0.5, 2.0);
  EXPECT_DOUBLE_EQ(tau.at(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(tau.at(0, 2), 1.0);
  tau.evaporate(0.9);       // 0.2 / 0.1 below the floor
  tau.clamp(0.5, 2.0);
  EXPECT_DOUBLE_EQ(tau.at(0, 2), 0.5);
  EXPECT_DOUBLE_EQ(tau.min_value(), 0.5);
  EXPECT_DOUBLE_EQ(tau.max_value(), 0.5);
}

TEST(Pheromone, TourUpdateProtocol) {
  // One simulated tour over a 2-vertex, 3-layer instance: evaporate at
  // rho=0.5 then tour-best deposit of 0.4 on couplings (0->2) and (1->1).
  PheromoneMatrix tau(2, 3, 1.0);
  tau.evaporate(0.5);
  tau.deposit(0, 2, 0.4);
  tau.deposit(1, 1, 0.4);
  EXPECT_DOUBLE_EQ(tau.at(0, 2), 0.9);
  EXPECT_DOUBLE_EQ(tau.at(1, 1), 0.9);
  EXPECT_DOUBLE_EQ(tau.at(0, 1), 0.5);
  // Reinforced couplings now dominate their rows.
  EXPECT_GT(tau.at(0, 2), tau.at(0, 1));
  EXPECT_GT(tau.at(1, 1), tau.at(1, 3));
}

TEST(Pheromone, FusedUpdateMatchesDiscreteProtocol) {
  // The TourUpdateProtocol scenario through update(): rho=0.5 then 0.4 on
  // couplings (0 -> 2) and (1 -> 1), no clamping.
  PheromoneMatrix fused(2, 3, 1.0);
  PheromoneMatrix discrete(2, 3, 1.0);
  const std::vector<int> couplings{2, 1};
  fused.update(0.5, couplings, 0.4, -kInf, kInf);
  reference_update(discrete, 0.5, couplings, 0.4, -kInf, kInf);
  expect_same_matrix(fused, discrete, "tour protocol");
  EXPECT_DOUBLE_EQ(fused.at(0, 2), 0.9);
  EXPECT_DOUBLE_EQ(fused.at(1, 1), 0.9);
  EXPECT_DOUBLE_EQ(fused.at(0, 1), 0.5);
}

TEST(Pheromone, FusedUpdateShardBoundaryShapes) {
  // Every row length 1..17 plus 37 covers the vector body and the scalar
  // tail of 2-, 4- and 8-lane code, times vertex counts that make ragged
  // last shards. All must match the discrete protocol exactly.
  std::vector<int> layer_counts;
  for (int layers = 1; layers <= 17; ++layers) layer_counts.push_back(layers);
  layer_counts.push_back(37);
  support::Rng rng(23);
  for (const int layers : layer_counts) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{5},
                                std::size_t{33}}) {
      PheromoneMatrix fused = random_matrix(rng, n, layers);
      PheromoneMatrix discrete = fused;
      std::vector<int> deposit_layers(n);
      for (auto& layer : deposit_layers) {
        layer = static_cast<int>(rng.uniform_int(1, layers));
      }
      const double rho = rng.uniform(0.0, 1.0);
      const double amount = rng.uniform(0.0, 2.0);
      fused.update(rho, deposit_layers, amount, -kInf, kInf);
      reference_update(discrete, rho, deposit_layers, amount, -kInf, kInf);
      expect_same_matrix(fused, discrete, "shard boundary");
    }
  }
}

TEST(Pheromone, FusedUpdateSingleLayerGraph) {
  // L = 1: every row is one element, the deposit hits it, and a
  // vectorized sweep never enters its vector body (pure scalar tail).
  PheromoneMatrix fused(4, 1, 2.0);
  PheromoneMatrix discrete(4, 1, 2.0);
  const std::vector<int> deposit_layers{1, 1, 1, 1};
  fused.update(0.25, deposit_layers, 0.5, -kInf, kInf);
  reference_update(discrete, 0.25, deposit_layers, 0.5, -kInf, kInf);
  expect_same_matrix(fused, discrete, "single layer");
  EXPECT_DOUBLE_EQ(fused.at(0, 1), 2.0);  // 2 * 0.75 + 0.5
}

TEST(Pheromone, FusedUpdateClampSaturation) {
  // Deposits overshooting tau_max must saturate at exactly tau_max, and
  // full-strength evaporation must saturate at exactly tau_min — including
  // on the deposited element itself.
  PheromoneMatrix tau(2, 5, 1.0);
  const std::vector<int> deposit_layers{3, 5};
  tau.update(0.0, deposit_layers, 100.0, 0.5, 2.0);
  EXPECT_DOUBLE_EQ(tau.at(0, 3), 2.0);  // saturated at tau_max
  EXPECT_DOUBLE_EQ(tau.at(1, 5), 2.0);
  EXPECT_DOUBLE_EQ(tau.at(0, 1), 1.0);  // untouched, inside the band
  EXPECT_DOUBLE_EQ(tau.max_value(), 2.0);

  tau.update(1.0, deposit_layers, 0.0, 0.5, 2.0);  // keep = 0
  EXPECT_DOUBLE_EQ(tau.at(0, 1), 0.5);  // saturated at tau_min
  EXPECT_DOUBLE_EQ(tau.at(0, 3), 0.5);
  EXPECT_DOUBLE_EQ(tau.min_value(), 0.5);
  EXPECT_DOUBLE_EQ(tau.max_value(), 0.5);

  // Same scenario through the discrete protocol: bit-identical.
  PheromoneMatrix discrete(2, 5, 1.0);
  reference_update(discrete, 0.0, deposit_layers, 100.0, 0.5, 2.0);
  reference_update(discrete, 1.0, deposit_layers, 0.0, 0.5, 2.0);
  expect_same_matrix(tau, discrete, "clamp saturation");
}

TEST(Pheromone, FusedUpdateValidatesItsArguments) {
  PheromoneMatrix tau(3, 4, 1.0);
  const std::vector<int> ok{1, 2, 3};
  EXPECT_THROW(tau.update(-0.1, ok, 0.1, -kInf, kInf),
               support::CheckError);
  EXPECT_THROW(tau.update(1.1, ok, 0.1, -kInf, kInf), support::CheckError);
  EXPECT_THROW(tau.update(0.5, ok, -0.1, -kInf, kInf),
               support::CheckError);
  EXPECT_THROW(tau.update(0.5, ok, 0.1, 2.0, 1.0), support::CheckError);
  const std::vector<int> short_layers{1, 2};
  EXPECT_THROW(tau.update(0.5, short_layers, 0.1, -kInf, kInf),
               support::CheckError);
  const std::vector<int> out_of_range{1, 2, 5};
  EXPECT_THROW(tau.update(0.5, out_of_range, 0.1, -kInf, kInf),
               support::CheckError);
}

TEST(Pheromone, ShardedUpdateBitIdenticalAcrossThreadCounts) {
  // Large enough (600 * 64 = 38400 elements) to clear the sharding
  // threshold, with a row count that leaves a ragged final shard. Every
  // pool size must reproduce the serial fused sweep — and the discrete
  // protocol — bit for bit.
  support::Rng rng(31);
  const std::size_t n = 600;
  const int layers = 64;
  const PheromoneMatrix base = random_matrix(rng, n, layers);
  std::vector<int> deposit_layers(n);
  for (auto& layer : deposit_layers) {
    layer = static_cast<int>(rng.uniform_int(1, layers));
  }
  const double rho = 0.35;
  const double amount = 1.7;

  PheromoneMatrix discrete = base;
  reference_update(discrete, rho, deposit_layers, amount, 0.25, 3.0);
  PheromoneMatrix serial = base;
  serial.update(rho, deposit_layers, amount, 0.25, 3.0, nullptr);
  expect_same_matrix(serial, discrete, "serial fused vs discrete");

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}, std::size_t{0}}) {
    support::ThreadPool pool(threads);
    PheromoneMatrix sharded = base;
    sharded.update(rho, deposit_layers, amount, 0.25, 3.0, &pool);
    expect_same_matrix(sharded, serial, "sharded vs serial");
  }
}

TEST(Pheromone, PropertyScalarFusedShardedBitEqualOn200RandomMatrices) {
  // 200 random matrices x (discrete three-pass, fused serial sweep,
  // sharded sweep on a 4-worker pool): all three bit-equal. Shapes mix
  // small raggeds with matrices beyond the sharding threshold so the
  // pool path genuinely runs; bounds mix clamped and unclamped updates.
  support::Rng rng(137);
  support::ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    std::size_t n;
    int layers;
    if (round % 10 == 0) {
      // Beyond kShardMinElements: exercises the actual fan-out.
      n = static_cast<std::size_t>(rng.uniform_int(400, 700));
      layers = static_cast<int>(rng.uniform_int(48, 96));
    } else {
      n = static_cast<std::size_t>(rng.uniform_int(1, 48));
      layers = static_cast<int>(rng.uniform_int(1, 72));
    }
    const PheromoneMatrix base = random_matrix(rng, n, layers);
    std::vector<int> deposit_layers(n);
    for (auto& layer : deposit_layers) {
      layer = static_cast<int>(rng.uniform_int(1, layers));
    }
    const double rho = rng.uniform(0.0, 1.0);
    const double amount = rng.uniform(0.0, 5.0);
    double tau_min = -kInf;
    double tau_max = kInf;
    if (rng.bernoulli(0.5)) {
      tau_min = rng.uniform(0.0, 1.0);
      tau_max = tau_min + rng.uniform(0.0, 2.0);
    }

    PheromoneMatrix discrete = base;
    reference_update(discrete, rho, deposit_layers, amount, tau_min,
                     tau_max);
    PheromoneMatrix fused = base;
    fused.update(rho, deposit_layers, amount, tau_min, tau_max);
    PheromoneMatrix sharded = base;
    sharded.update(rho, deposit_layers, amount, tau_min, tau_max, &pool);

    expect_same_matrix(fused, discrete, "fused vs discrete");
    expect_same_matrix(sharded, discrete, "sharded vs discrete");
    if (HasFatalFailure()) {
      ADD_FAILURE() << "failing round " << round << " (n=" << n
                    << ", L=" << layers << ")";
      return;
    }
  }
}

}  // namespace
}  // namespace acolay::core
