// Tests for the pheromone matrix (paper §IV-D, Alg. 4 lines 16–17). The
// matrix stores each row as runs of equal values; every test here drives
// it side by side with DenseTau, the dense row-major matrix it replaced
// (kept below verbatim as the reference), and compares every cell bit for
// bit: the discrete evaporate/deposit/clamp protocol, the fused sweep with
// its volatile deposit fix-up, warm chains long enough to reach
// subnormals and zero, clamped runs that merge, and the incremental
// solver's row remap across vertex insertions and removals.
#include "core/pheromone.hpp"

#include <gtest/gtest.h>

#include <algorithm>
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

/// The dense pheromone matrix: one double per (vertex, layer), row-major.
/// The discrete methods and the fused update() are the dense
/// implementation's own code, volatile fix-up included, so the sparse
/// rows are checked against exactly what they replaced.
class DenseTau {
 public:
  DenseTau(std::size_t num_vertices, int num_layers, double tau0)
      : vertices_(num_vertices),
        layers_(num_layers),
        tau_(num_vertices * static_cast<std::size_t>(num_layers), tau0) {
    ACOLAY_CHECK_MSG(tau0 > 0.0, "tau0 must be positive");
  }

  std::size_t num_vertices() const { return vertices_; }
  int num_layers() const { return layers_; }

  double at(graph::VertexId v, int layer) const {
    return tau_[offset(v, layer)];
  }

  /// tau *= (1 - rho) for every element.
  void evaporate(double rho) {
    ACOLAY_CHECK_MSG(rho >= 0.0 && rho <= 1.0, "rho must be in [0,1]");
    const double keep = 1.0 - rho;
    for (auto& tau : tau_) tau *= keep;
  }

  /// tau(v, l) += amount.
  void deposit(graph::VertexId v, int layer, double amount) {
    ACOLAY_CHECK_MSG(amount >= 0.0, "deposit must be non-negative");
    tau_[offset(v, layer)] += amount;
  }

  /// Clamps every element into [tau_min, tau_max].
  void clamp(double tau_min, double tau_max) {
    ACOLAY_CHECK(tau_min <= tau_max);
    for (auto& tau : tau_) tau = std::clamp(tau, tau_min, tau_max);
  }

  double min_value() const {
    return *std::min_element(tau_.begin(), tau_.end());
  }
  double max_value() const {
    return *std::max_element(tau_.begin(), tau_.end());
  }

  /// The fused evaporate -> deposit -> clamp sweep.
  void update(double rho, std::span<const int> deposit_layers, double amount,
              double tau_min, double tau_max) {
    ACOLAY_CHECK(deposit_layers.size() == vertices_);
    const double keep = 1.0 - rho;
    const auto layers = static_cast<std::size_t>(layers_);
    for (std::size_t v = 0; v < vertices_; ++v) {
      double* row = tau_.data() + v * layers;
      const auto dep = static_cast<std::size_t>(deposit_layers[v] - 1);
      volatile double evaporated = row[dep] * keep;
      double deposited = evaporated + amount;
      deposited = std::min(std::max(deposited, tau_min), tau_max);
      for (std::size_t l = 0; l < layers; ++l) {
        row[l] = std::min(tau_max, std::max(tau_min, row[l] * keep));
      }
      row[dep] = deposited;
    }
  }

  /// The incremental remap's row copy: row `v` takes the first `cols`
  /// layers of row `src_v` of `src` and keeps the rest.
  void copy_prefix(graph::VertexId v, const DenseTau& src,
                   graph::VertexId src_v, int cols) {
    std::copy_n(src.tau_.begin() +
                    static_cast<std::ptrdiff_t>(src.offset(src_v, 1)),
                cols,
                tau_.begin() + static_cast<std::ptrdiff_t>(offset(v, 1)));
  }

 private:
  std::size_t offset(graph::VertexId v, int layer) const {
    ACOLAY_CHECK(v >= 0 && static_cast<std::size_t>(v) < vertices_);
    ACOLAY_CHECK(layer >= 1 && layer <= layers_);
    return static_cast<std::size_t>(v) * static_cast<std::size_t>(layers_) +
           static_cast<std::size_t>(layer - 1);
  }

  std::size_t vertices_;
  int layers_;
  std::vector<double> tau_;
};

/// The discrete three-pass protocol the fused sweep replaces.
void reference_update(DenseTau& tau, double rho,
                      std::span<const int> deposit_layers, double amount,
                      double tau_min, double tau_max) {
  tau.evaporate(rho);
  for (graph::VertexId v = 0;
       static_cast<std::size_t>(v) < tau.num_vertices(); ++v) {
    tau.deposit(v, deposit_layers[static_cast<std::size_t>(v)], amount);
  }
  if (tau_min != -kInf || tau_max != kInf) tau.clamp(tau_min, tau_max);
}

template <typename A, typename B>
void expect_same_matrix(const A& a, const B& b, const char* what) {
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

std::vector<int> random_layers(support::Rng& rng, std::size_t n, int layers) {
  std::vector<int> deposit_layers(n);
  for (auto& layer : deposit_layers) {
    layer = static_cast<int>(rng.uniform_int(1, layers));
  }
  return deposit_layers;
}

/// A sparse matrix and its dense twin, scrambled by the same few random
/// unclamped updates so the entries are unequal doubles.
struct Twin {
  PheromoneMatrix sparse;
  DenseTau dense;
};

Twin random_twin(support::Rng& rng, std::size_t n, int layers) {
  const double tau0 = rng.uniform(0.5, 2.0);
  Twin twin{PheromoneMatrix(n, layers, tau0), DenseTau(n, layers, tau0)};
  const int rounds = static_cast<int>(rng.uniform_int(1, 3));
  for (int round = 0; round < rounds; ++round) {
    const auto deposit_layers = random_layers(rng, n, layers);
    const double rho = rng.uniform(0.0, 0.6);
    const double amount = rng.uniform(0.0, 3.0);
    twin.sparse.update(rho, deposit_layers, amount, -kInf, kInf);
    twin.dense.update(rho, deposit_layers, amount, -kInf, kInf);
  }
  return twin;
}

/// Next tour's deposit layers, shaped like a colony's tour-best layering:
/// most vertices keep their layer, a few move anywhere.
void drift(support::Rng& rng, std::vector<int>& deposit_layers, int layers) {
  for (auto& layer : deposit_layers) {
    if (rng.bernoulli(0.2)) {
      layer = static_cast<int>(rng.uniform_int(1, layers));
    }
  }
}

TEST(Pheromone, InitialisesUniformly) {
  const PheromoneMatrix tau(3, 4, 2.5);
  for (graph::VertexId v = 0; v < 3; ++v) {
    for (int layer = 1; layer <= 4; ++layer) {
      EXPECT_DOUBLE_EQ(tau.at(v, layer), 2.5);
    }
    EXPECT_EQ(tau.runs(v).size(), 1u);
  }
  EXPECT_EQ(tau.num_vertices(), 3u);
  EXPECT_EQ(tau.num_layers(), 4);
}

TEST(Pheromone, RejectsNonPositiveTau0) {
  EXPECT_THROW(PheromoneMatrix(2, 2, 0.0), support::CheckError);
  EXPECT_THROW(PheromoneMatrix(2, 2, -1.0), support::CheckError);
}

TEST(Pheromone, EvaporationScalesEverything) {
  DenseTau tau(2, 3, 1.0);
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
  DenseTau tau(1, 1, 1.0);
  EXPECT_THROW(tau.evaporate(-0.1), support::CheckError);
  EXPECT_THROW(tau.evaporate(1.1), support::CheckError);
}

TEST(Pheromone, DepositAccumulates) {
  DenseTau tau(2, 2, 1.0);
  tau.deposit(1, 2, 0.25);
  tau.deposit(1, 2, 0.25);
  EXPECT_DOUBLE_EQ(tau.at(1, 2), 1.5);
  EXPECT_DOUBLE_EQ(tau.at(0, 1), 1.0);  // untouched
}

TEST(Pheromone, DepositRejectsNegativeAmount) {
  DenseTau tau(1, 1, 1.0);
  EXPECT_THROW(tau.deposit(0, 1, -0.5), support::CheckError);
}

TEST(Pheromone, BoundsChecked) {
  PheromoneMatrix tau(2, 3, 1.0);
  EXPECT_THROW((void)tau.at(2, 1), support::CheckError);
  EXPECT_THROW((void)tau.at(0, 0), support::CheckError);
  EXPECT_THROW((void)tau.at(0, 4), support::CheckError);
  const PheromoneMatrix src(2, 3, 1.0);
  EXPECT_THROW(tau.copy_row(-1, src, 0, 3, 1.0), support::CheckError);
  EXPECT_THROW(tau.copy_row(0, src, 2, 3, 1.0), support::CheckError);
  EXPECT_THROW(tau.copy_row(0, src, 0, 0, 1.0), support::CheckError);
  EXPECT_THROW(tau.copy_row(0, src, 0, 4, 1.0), support::CheckError);
}

TEST(Pheromone, ClampEnforcesBand) {
  DenseTau tau(1, 3, 1.0);
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

  // The same band through the sparse update: the saturated runs merge.
  PheromoneMatrix sparse(1, 3, 1.0);
  const std::vector<int> first{1};
  sparse.update(0.0, first, 9.0, 0.5, 2.0);
  EXPECT_DOUBLE_EQ(sparse.at(0, 1), 2.0);
  sparse.update(0.9, first, 0.0, 0.5, 2.0);
  EXPECT_DOUBLE_EQ(sparse.at(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(sparse.at(0, 3), 0.5);
  EXPECT_EQ(sparse.runs(0).size(), 1u);
}

TEST(Pheromone, TourUpdateProtocol) {
  // One simulated tour over a 2-vertex, 3-layer instance: evaporate at
  // rho=0.5 then tour-best deposit of 0.4 on couplings (0->2) and (1->1).
  DenseTau tau(2, 3, 1.0);
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
  DenseTau discrete(2, 3, 1.0);
  const std::vector<int> couplings{2, 1};
  fused.update(0.5, couplings, 0.4, -kInf, kInf);
  reference_update(discrete, 0.5, couplings, 0.4, -kInf, kInf);
  expect_same_matrix(fused, discrete, "tour protocol");
  EXPECT_DOUBLE_EQ(fused.at(0, 2), 0.9);
  EXPECT_DOUBLE_EQ(fused.at(1, 1), 0.9);
  EXPECT_DOUBLE_EQ(fused.at(0, 1), 0.5);
  // Row 0 splits around its deposit; row 1's deposit opens the row.
  EXPECT_EQ(fused.runs(0).size(), 3u);
  EXPECT_EQ(fused.runs(1).size(), 2u);
}

TEST(Pheromone, FusedUpdateShardBoundaryShapes) {
  // Every row length 1..17 plus 37, deposits at the first, last and
  // interior layers of runs, times vertex counts 1, 5 and 33. All must
  // match the dense sweep and the discrete protocol exactly.
  std::vector<int> layer_counts;
  for (int layers = 1; layers <= 17; ++layers) layer_counts.push_back(layers);
  layer_counts.push_back(37);
  support::Rng rng(23);
  for (const int layers : layer_counts) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{5},
                                std::size_t{33}}) {
      Twin twin = random_twin(rng, n, layers);
      DenseTau discrete = twin.dense;
      const auto deposit_layers = random_layers(rng, n, layers);
      const double rho = rng.uniform(0.0, 1.0);
      const double amount = rng.uniform(0.0, 2.0);
      twin.sparse.update(rho, deposit_layers, amount, -kInf, kInf);
      twin.dense.update(rho, deposit_layers, amount, -kInf, kInf);
      reference_update(discrete, rho, deposit_layers, amount, -kInf, kInf);
      expect_same_matrix(twin.sparse, twin.dense, "sparse vs dense sweep");
      expect_same_matrix(twin.sparse, discrete, "sparse vs discrete");
    }
  }
}

TEST(Pheromone, FusedUpdateSingleLayerGraph) {
  // L = 1: every row is one run and the deposit replaces it.
  PheromoneMatrix fused(4, 1, 2.0);
  DenseTau discrete(4, 1, 2.0);
  const std::vector<int> deposit_layers{1, 1, 1, 1};
  fused.update(0.25, deposit_layers, 0.5, -kInf, kInf);
  reference_update(discrete, 0.25, deposit_layers, 0.5, -kInf, kInf);
  expect_same_matrix(fused, discrete, "single layer");
  EXPECT_DOUBLE_EQ(fused.at(0, 1), 2.0);  // 2 * 0.75 + 0.5
  EXPECT_EQ(fused.runs(0).size(), 1u);
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

  tau.update(1.0, deposit_layers, 0.0, 0.5, 2.0);  // keep = 0
  for (graph::VertexId v = 0; v < 2; ++v) {
    for (int layer = 1; layer <= 5; ++layer) {
      EXPECT_DOUBLE_EQ(tau.at(v, layer), 0.5);  // saturated at tau_min
    }
    EXPECT_EQ(tau.runs(v).size(), 1u);  // and merged back into one run
  }

  // Same scenario through the discrete protocol: bit-identical.
  DenseTau discrete(2, 5, 1.0);
  reference_update(discrete, 0.0, deposit_layers, 100.0, 0.5, 2.0);
  reference_update(discrete, 1.0, deposit_layers, 0.0, 0.5, 2.0);
  expect_same_matrix(tau, discrete, "clamp saturation");
  EXPECT_DOUBLE_EQ(discrete.max_value(), 0.5);
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
  // update() ignores its pool: with one offered, at every pool size, the
  // result is the serial update's — and the discrete protocol's — bit
  // for bit.
  support::Rng rng(31);
  const std::size_t n = 600;
  const int layers = 64;
  const Twin base = random_twin(rng, n, layers);
  const auto deposit_layers = random_layers(rng, n, layers);
  const double rho = 0.35;
  const double amount = 1.7;

  DenseTau discrete = base.dense;
  reference_update(discrete, rho, deposit_layers, amount, 0.25, 3.0);
  PheromoneMatrix serial = base.sparse;
  serial.update(rho, deposit_layers, amount, 0.25, 3.0, nullptr);
  expect_same_matrix(serial, discrete, "serial vs discrete");

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}, std::size_t{0}}) {
    support::ThreadPool pool(threads);
    PheromoneMatrix pooled = base.sparse;
    pooled.update(rho, deposit_layers, amount, 0.25, 3.0, &pool);
    expect_same_matrix(pooled, serial, "pooled vs serial");
  }
}

TEST(Pheromone, PropertyScalarFusedShardedBitEqualOn200RandomMatrices) {
  // 200 random matrices x (discrete three-pass, dense fused sweep, sparse
  // update, sparse update offered a 4-worker pool): all bit-equal. Bounds
  // mix clamped and unclamped updates.
  support::Rng rng(137);
  support::ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    std::size_t n;
    int layers;
    if (round % 10 == 0) {
      n = static_cast<std::size_t>(rng.uniform_int(400, 700));
      layers = static_cast<int>(rng.uniform_int(48, 96));
    } else {
      n = static_cast<std::size_t>(rng.uniform_int(1, 48));
      layers = static_cast<int>(rng.uniform_int(1, 72));
    }
    const Twin base = random_twin(rng, n, layers);
    const auto deposit_layers = random_layers(rng, n, layers);
    const double rho = rng.uniform(0.0, 1.0);
    const double amount = rng.uniform(0.0, 5.0);
    double tau_min = -kInf;
    double tau_max = kInf;
    if (rng.bernoulli(0.5)) {
      tau_min = rng.uniform(0.0, 1.0);
      tau_max = tau_min + rng.uniform(0.0, 2.0);
    }

    DenseTau discrete = base.dense;
    reference_update(discrete, rho, deposit_layers, amount, tau_min,
                     tau_max);
    DenseTau fused = base.dense;
    fused.update(rho, deposit_layers, amount, tau_min, tau_max);
    PheromoneMatrix sparse = base.sparse;
    sparse.update(rho, deposit_layers, amount, tau_min, tau_max);
    PheromoneMatrix pooled = base.sparse;
    pooled.update(rho, deposit_layers, amount, tau_min, tau_max, &pool);

    expect_same_matrix(fused, discrete, "dense fused vs discrete");
    expect_same_matrix(sparse, discrete, "sparse vs discrete");
    expect_same_matrix(pooled, discrete, "pooled vs discrete");
    if (HasFatalFailure()) {
      ADD_FAILURE() << "failing round " << round << " (n=" << n
                    << ", L=" << layers << ")";
      return;
    }
  }
}

TEST(Pheromone, SparseRowsMatchDenseOnWarmChains) {
  // 120-tour colony-shaped chains at rho 0.3 / 0.5 / 1, unclamped and
  // MAX-MIN clamped (tau_min > 0, so runs saturate and merge), compared
  // cell by cell after every tour.
  support::Rng rng(2007);
  const std::size_t n = 24;
  const int layers = 40;
  for (const double rho : {0.3, 0.5, 1.0}) {
    for (const bool clamped : {false, true}) {
      const double tau_min = clamped ? 0.05 : -kInf;
      const double tau_max = clamped ? 4.0 : kInf;
      PheromoneMatrix sparse(n, layers, 1.0);
      DenseTau dense(n, layers, 1.0);
      auto deposit_layers = random_layers(rng, n, layers);
      for (int tour = 0; tour < 120; ++tour) {
        drift(rng, deposit_layers, layers);
        const double amount = rng.uniform(0.0, 0.5);
        sparse.update(rho, deposit_layers, amount, tau_min, tau_max);
        dense.update(rho, deposit_layers, amount, tau_min, tau_max);
        expect_same_matrix(sparse, dense, "warm chain");
        if (HasFatalFailure()) {
          ADD_FAILURE() << "rho " << rho << (clamped ? " clamped" : "")
                        << ", tour " << tour;
          return;
        }
      }
    }
  }
}

TEST(Pheromone, SparseRowsMatchDenseThroughSubnormalsToZero) {
  // 1100 tours at rho = 0.5 halve an untouched tau0 = 1 background past
  // the smallest subnormal (2^-1074) to zero. After 20 ordinary tours the
  // deposits shrink to three subnormal steps, so every bump rounds down
  // to zero within a few tours. Rows stay bit-equal to the dense sweep
  // throughout, and the runs that underflow together merge.
  support::Rng rng(1100);
  const std::size_t n = 6;
  const int layers = 12;
  PheromoneMatrix sparse(n, layers, 1.0);
  DenseTau dense(n, layers, 1.0);
  auto deposit_layers = random_layers(rng, n, layers);
  const double tiny = std::numeric_limits<double>::denorm_min();
  for (int tour = 0; tour < 1100; ++tour) {
    drift(rng, deposit_layers, layers);
    const double amount = tour < 20 ? rng.uniform(0.0, 1.0) : 3 * tiny;
    sparse.update(0.5, deposit_layers, amount, -kInf, kInf);
    dense.update(0.5, deposit_layers, amount, -kInf, kInf);
    expect_same_matrix(sparse, dense, "subnormal chain");
    if (HasFatalFailure()) {
      ADD_FAILURE() << "tour " << tour;
      return;
    }
  }
  bool saw_zero = false;
  for (graph::VertexId v = 0; static_cast<std::size_t>(v) < n; ++v) {
    for (int layer = 1; layer <= layers; ++layer) {
      EXPECT_LT(sparse.at(v, layer), 1e-300);
      saw_zero = saw_zero || sparse.at(v, layer) == 0.0;
    }
    // At most the last four bumps are still apart from the zero
    // background.
    EXPECT_LE(sparse.runs(v).size(), 9u);
  }
  EXPECT_TRUE(saw_zero);
}

TEST(Pheromone, RemapCopiesMatchDenseAcrossVertexInsertionAndRemoval) {
  // The incremental solver's remap: surviving untouched rows keep their
  // first copy_cols = min(L_new, L_old) layers, every other coupling
  // restarts at tau0. Shrinking L truncates runs mid-row; growing L adds a
  // tau0 tail. Each remapped pair then runs a warm chain in lockstep.
  support::Rng rng(4242);
  for (int round = 0; round < 40; ++round) {
    const auto n_old = static_cast<std::size_t>(rng.uniform_int(2, 30));
    const int layers_old = static_cast<int>(n_old);
    PheromoneMatrix sparse_old(n_old, layers_old, 1.0);
    DenseTau dense_old(n_old, layers_old, 1.0);
    auto deposit_layers = random_layers(rng, n_old, layers_old);
    for (int tour = 0; tour < 12; ++tour) {
      drift(rng, deposit_layers, layers_old);
      const double amount = rng.uniform(0.0, 0.5);
      sparse_old.update(0.5, deposit_layers, amount, -kInf, kInf);
      dense_old.update(0.5, deposit_layers, amount, -kInf, kInf);
    }

    // Remove some vertices (compacting ids), then append some new ones.
    std::vector<graph::VertexId> old_to_new(n_old);
    std::size_t survivors = 0;
    for (auto& mapped : old_to_new) {
      mapped = rng.bernoulli(0.25) ? -1
                                   : static_cast<graph::VertexId>(survivors++);
    }
    const std::size_t n = survivors + static_cast<std::size_t>(
                                          rng.uniform_int(0, 12));
    if (n == 0) continue;
    const int layers = static_cast<int>(n);
    const int cols = std::min(layers, layers_old);
    PheromoneMatrix sparse(n, layers, 1.0);
    DenseTau dense(n, layers, 1.0);
    for (std::size_t v = 0; v < n_old; ++v) {
      const graph::VertexId nv = old_to_new[v];
      if (nv < 0 || rng.bernoulli(0.2)) continue;  // removed or touched
      sparse.copy_row(nv, sparse_old, static_cast<graph::VertexId>(v), cols,
                      1.0);
      dense.copy_prefix(nv, dense_old, static_cast<graph::VertexId>(v), cols);
    }
    expect_same_matrix(sparse, dense, "remap");

    auto next_layers = random_layers(rng, n, layers);
    for (int tour = 0; tour < 100; ++tour) {
      drift(rng, next_layers, layers);
      const double amount = rng.uniform(0.0, 0.5);
      sparse.update(0.3, next_layers, amount, -kInf, kInf);
      dense.update(0.3, next_layers, amount, -kInf, kInf);
    }
    expect_same_matrix(sparse, dense, "warm chain after remap");
    if (HasFatalFailure()) {
      ADD_FAILURE() << "round " << round << " (n_old=" << n_old
                    << ", n=" << n << ")";
      return;
    }
  }
}

TEST(Pheromone, BytesFollowRunsNotLayers) {
  // Ten colony tours on a 2048 x 2048 matrix: the dense matrix held 32 MB;
  // the runs take at most a few percent of that.
  support::Rng rng(10);
  const std::size_t n = 2048;
  const int layers = 2048;
  PheromoneMatrix tau(n, layers, 1.0);
  auto deposit_layers = random_layers(rng, n, layers);
  for (int tour = 0; tour < 10; ++tour) {
    drift(rng, deposit_layers, layers);
    tau.update(0.5, deposit_layers, 0.35, -kInf, kInf);
  }
  const std::size_t dense_bytes = n * layers * sizeof(double);
  EXPECT_LT(tau.bytes(), dense_bytes / 25);
  EXPECT_GE(tau.bytes(), n * sizeof(PheromoneMatrix::Run));
}

}  // namespace
}  // namespace acolay::core
