// Recorded results: exact objectives (as IEEE-754 bit patterns) and
// layering hashes of core::solve on deep and wide DAGs at n = 256 and
// 1024, and the per-update objectives of a 20-delta IncrementalSolver
// chain at n = 256. The constants were recorded from the dense pheromone
// matrix and the dense greedy scan; any change to the pheromone storage,
// the walk's argmax or the update arithmetic that moves a single bit of a
// single layering fails here. A deliberate behaviour change re-records
// them (run this binary and copy the printed values).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/incremental.hpp"
#include "core/request.hpp"
#include "gen/edit_script.hpp"
#include "gen/random_dag.hpp"
#include "layering/layering.hpp"

namespace acolay::core {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// FNV-1a over the layer of every vertex, in vertex order.
std::uint64_t layering_hash(const layering::Layering& layering) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const int layer : layering.raw()) {
    h ^= static_cast<std::uint32_t>(layer);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex(std::uint64_t x) {
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "0x%016llx",
                static_cast<unsigned long long>(x));
  return buffer;
}

/// The solve_large shapes: G(n, 1.3n) and eight layers of n/8 vertices.
graph::Digraph deep_graph(std::size_t n, std::uint64_t seed) {
  support::Rng rng(seed);
  gen::GnmParams shape;
  shape.num_vertices = n;
  shape.num_edges = n + 3 * n / 10;
  return gen::random_dag(shape, rng);
}

graph::Digraph wide_graph(std::size_t n, std::uint64_t seed) {
  support::Rng rng(seed);
  gen::LayeredParams shape;
  shape.num_layers = 8;
  shape.min_per_layer = static_cast<int>(n / 8);
  shape.max_per_layer = shape.min_per_layer;
  shape.adjacent_edge_prob = 9.0 / static_cast<double>(n);
  shape.long_edge_prob = 0.9 / static_cast<double>(n);
  return gen::random_layered_dag(shape, rng);
}

AcoParams serial_params(std::uint64_t seed) {
  AcoParams params;
  params.seed = seed;
  params.num_threads = 1;
  params.record_trace = false;
  return params;
}

struct SolveRecord {
  const char* family;
  std::size_t n;
  std::uint64_t seed;
  std::uint64_t objective_bits;
  std::uint64_t layering_hash;
};

constexpr SolveRecord kSolveRecords[] = {
    {"deep", 256, 1, 0x3f73fb013fb013fb, 0x6f5a86c64173c681},
    {"deep", 256, 2, 0x3f73991c2c187f63, 0x415b8ce3927702ff},
    {"deep", 1024, 1, 0x3f53b13b13b13b14, 0x305097b7e50b5747},
    {"deep", 1024, 2, 0x3f541a62a173e821, 0x0eeabd34837f1504},
    {"wide", 256, 1, 0x3f821fb78121fb78, 0xdf8633008428a056},
    {"wide", 256, 2, 0x3f8446f86562d9fb, 0xb2157ed5b94532d1},
    {"wide", 1024, 1, 0x3f64bd3edda68fe1, 0x69d0b166f449ea0e},
    {"wide", 1024, 2, 0x3f63187758e9ebb6, 0x9174730b660859ba},
};

TEST(RecordedConstants, SolveObjectivesAndLayeringHashes) {
  for (const SolveRecord& record : kSolveRecords) {
    const std::string family = record.family;
    const graph::Digraph g = family == "deep"
                                 ? deep_graph(record.n, record.seed)
                                 : wide_graph(record.n, record.seed);
    SolveRequest request;
    request.graph = &g;
    request.params = serial_params(record.seed);
    const SolveOutcome outcome = solve(request);
    ASSERT_TRUE(outcome.ok()) << outcome.message;
    const std::uint64_t objective = bits(outcome.result.metrics.objective);
    const std::uint64_t hash = layering_hash(outcome.result.layering);
    EXPECT_EQ(objective, record.objective_bits)
        << family << " n=" << record.n << " seed=" << record.seed
        << ": objective " << outcome.result.metrics.objective << " = "
        << hex(objective);
    EXPECT_EQ(hash, record.layering_hash)
        << family << " n=" << record.n << " seed=" << record.seed
        << ": layering hash " << hex(hash);
  }
}

struct UpdateRecord {
  std::uint64_t objective_bits;
  std::uint64_t layering_hash;
};

constexpr UpdateRecord kChainRecords[20] = {
    {0x3f733ae45b57bcb2, 0xc5f4215484d1c3a7},
    {0x3f73521cfb2b78c1, 0x4ec14101ce726c32},
    {0x3f72f684bda12f68, 0xc44eb6104d1f4c04},
    {0x3f72e025c04b8097, 0xc44eb6104d1f4c04},
    {0x3f72e025c04b8097, 0x9feaffdccb1d2367},
    {0x3f72e025c04b8097, 0x9feaffdccb1d2367},
    {0x3f76e1f76b4337c7, 0x7f2ccbaee51108ea},
    {0x3f76e1f76b4337c7, 0x7f2ccbaee51108ea},
    {0x3f76c16c16c16c17, 0x7f2ccbaee51108ea},
    {0x3f76c16c16c16c17, 0x7f2ccbaee51108ea},
    {0x3f76c16c16c16c17, 0x7f2ccbaee51108ea},
    {0x3f76a13cd1537290, 0x7f2ccbaee51108ea},
    {0x3f76a13cd1537290, 0x7f2ccbaee51108ea},
    {0x3f76a13cd1537290, 0x7f2ccbaee51108ea},
    {0x3f76816816816817, 0x7f2ccbaee51108ea},
    {0x3f7661ec6a5122f9, 0x2a27052f3bf22751},
    {0x3f7623fa77016240, 0x2a27052f3bf22751},
    {0x3f7623fa77016240, 0x2a27052f3bf22751},
    {0x3f7623fa77016240, 0x2a27052f3bf22751},
    {0x3f76058160581606, 0x2a27052f3bf22751},
};

TEST(RecordedConstants, IncrementalChainObjectives) {
  const graph::Digraph base = deep_graph(256, 7);
  support::Rng rng(11);
  gen::EditScriptParams script_params;
  script_params.num_deltas = 20;
  const std::vector<graph::GraphDelta> script =
      gen::random_edit_script(base, script_params, rng);
  ASSERT_EQ(script.size(), 20u);

  IncrementalSolver solver(base, serial_params(3));
  ASSERT_TRUE(solver.solve().ok());
  for (std::size_t i = 0; i < script.size(); ++i) {
    const SolveOutcome& outcome = solver.update(script[i]);
    ASSERT_TRUE(outcome.ok()) << "update " << i << ": " << outcome.message;
    const std::uint64_t objective = bits(outcome.result.metrics.objective);
    const std::uint64_t hash = layering_hash(outcome.result.layering);
    EXPECT_EQ(objective, kChainRecords[i].objective_bits)
        << "update " << i << ": objective "
        << outcome.result.metrics.objective << " = " << hex(objective);
    EXPECT_EQ(hash, kChainRecords[i].layering_hash)
        << "update " << i << ": layering hash " << hex(hash);
  }
}

}  // namespace
}  // namespace acolay::core
