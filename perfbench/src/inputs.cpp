#include "inputs.hpp"

#include <cmath>

#include "gen/edit_script.hpp"
#include "gen/random_dag.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace ag = acolay::gen;
using acolay::graph::Digraph;
using acolay::support::Rng;

namespace {

// Salts keep the three workloads' streams apart for one seed.
constexpr std::uint64_t kServeSalt = 0x5e7e;
constexpr std::uint64_t kSolveSalt = 0x501e;
constexpr std::uint64_t kEditSalt = 0xed17;

// The sizes are fixed and the seed only varies the graphs drawn at each
// size, so every seed measures the same mix of work. solve_large draws
// several graphs per size and family up to n = 2048, so its median solve
// (the 15th of 30) is the 3rd of the 4 deep n = 1024 graphs, an order
// statistic of several similar graphs rather than the cost of one. A
// single n = 4096 pair keeps a pass near 4 s, so a run repeats each graph
// several times; its p99 is the wide n = 4096 graph.
// relayer_edit's sizes step by 2^(1/4), so its median update sits among
// neighbours of similar cost, and it runs several sessions per size, since
// how long an update takes varies from one edit script to the next.
struct SizeClass {
  std::size_t n;
  std::uint64_t copies;
};
constexpr SizeClass kSolveSizes[] = {
    {256, 2}, {512, 4}, {1024, 4}, {2048, 4}, {4096, 1}};
constexpr std::size_t kEditSizes[] = {128, 152, 181, 215, 256,
                                      304, 362, 431, 512};
constexpr std::uint64_t kEditCopies = 4;

// The serve_mix schedule, repeated every 20 frames: 5 tiny, 4 repeats, 1
// cyclic and 10 corpus-like frames.
enum class Kind { kTiny, kRepeat, kCyclic, kCorpus };
Kind kind_of(std::size_t index) {
  const std::size_t slot = index % 20;
  if (slot % 4 == 0) return Kind::kTiny;
  if (slot == 18) return Kind::kCyclic;
  if (slot % 4 == 2) return Kind::kRepeat;
  return Kind::kCorpus;
}

std::string frame_body(const Digraph& g, bool aco_fas) {
  std::string body = "\"graph\":{\"num_vertices\":";
  body += std::to_string(g.num_vertices());
  body += ",\"edges\":[";
  bool first = true;
  for (const auto& [u, v] : g.edges()) {
    if (!first) body += ',';
    first = false;
    body += '[';
    body += std::to_string(u);
    body += ',';
    body += std::to_string(v);
    body += ']';
  }
  body += "]}";
  if (aco_fas) body += ",\"cycle_policy\":\"aco_fas\"";
  body += '}';
  return body;
}

std::size_t scaled(double factor, std::size_t n) {
  return static_cast<std::size_t>(
      std::lround(factor * static_cast<double>(n)));
}

}  // namespace

std::string frame_text(const Frame& frame, std::size_t index) {
  std::string text = "{\"id\":\"f";
  text += std::to_string(index);
  text += "\",";
  text += frame.body;
  return text;
}

std::vector<Frame> make_serve_frames(std::uint64_t seed, std::size_t count) {
  const Rng root(seed);
  std::vector<Frame> frames;
  frames.reserve(count);
  std::size_t tiny = 0;
  std::size_t repeats = 0;
  std::size_t cyclic = 0;
  std::size_t corpus = 0;
  for (std::size_t i = 0; i < count; ++i) {
    Rng rng = root.fork(kServeSalt, i);
    Kind kind = kind_of(i);
    if (kind == Kind::kRepeat) {
      // Distances 8..152 straddle the daemon's 64-entry result cache.
      const std::size_t distance = 8 + 16 * (repeats++ % 10);
      if (distance <= i) {
        frames.push_back(frames[i - distance]);
        continue;
      }
      kind = Kind::kCorpus;
    }
    Frame frame;
    frame.source = i;
    if (kind == Kind::kTiny) {
      ag::NorthParams north;
      north.num_vertices = 3 + tiny++ % 6;
      north.num_edges = north.num_vertices - 1 +
                        static_cast<std::size_t>(rng.uniform_int(0, 3));
      frame.body = frame_body(ag::random_north_dag(north, rng), false);
      frame.tiny = true;
    } else if (kind == Kind::kCyclic) {
      ag::PlantedCycleParams planted;
      planted.base.num_vertices = 10 + (7 * cyclic) % 31;
      planted.base.num_edges = scaled(1.3, planted.base.num_vertices);
      planted.num_cycles = 1 + cyclic % 3;
      planted.cycle_length = 3 + cyclic % 3;
      ++cyclic;
      frame.body =
          frame_body(ag::random_planted_cycles(planted, rng).graph, true);
      frame.cyclic = true;
    } else {
      // Like one gen::make_corpus member: the 19 groups n = 10..100 in
      // turn, |E| = density * n with density ~ U[1.0, 1.6].
      ag::NorthParams north;
      north.num_vertices = 10 + 5 * (corpus++ % 19);
      north.num_edges = scaled(rng.uniform(1.0, 1.6), north.num_vertices);
      frame.body = frame_body(ag::random_north_dag(north, rng), false);
    }
    frames.push_back(std::move(frame));
  }
  return frames;
}

std::vector<LabeledGraph> make_solve_graphs(std::uint64_t seed) {
  const Rng root(seed);
  std::vector<LabeledGraph> graphs;
  for (const auto& [n, copies] : kSolveSizes) {
    for (std::uint64_t copy = 0; copy < copies; ++copy) {
      const std::string suffix = std::to_string(n) + "#" + std::to_string(copy);
      Rng deep_rng = root.fork(kSolveSalt, n, 2 * copy);
      ag::GnmParams deep;
      deep.num_vertices = n;
      deep.num_edges = scaled(1.3, n);
      graphs.push_back({"deep-" + suffix, ag::random_dag(deep, deep_rng)});

      // Eight natural layers of n/8 vertices; edge probabilities scaled so
      // the graph keeps roughly 1.5 edges per vertex.
      Rng wide_rng = root.fork(kSolveSalt, n, 2 * copy + 1);
      ag::LayeredParams wide;
      wide.num_layers = 8;
      wide.min_per_layer = static_cast<int>(n / 8);
      wide.max_per_layer = wide.min_per_layer;
      wide.adjacent_edge_prob = 9.0 / static_cast<double>(n);
      wide.long_edge_prob = 0.9 / static_cast<double>(n);
      graphs.push_back(
          {"wide-" + suffix, ag::random_layered_dag(wide, wide_rng)});
    }
  }
  return graphs;
}

std::vector<EditSession> make_edit_sessions(std::uint64_t seed,
                                            int deltas_per_session) {
  const Rng root(seed);
  std::vector<EditSession> sessions;
  for (std::uint64_t copy = 0; copy < kEditCopies; ++copy) {
    for (const std::size_t n : kEditSizes) {
      Rng rng = root.fork(kEditSalt, n, copy);
      ag::GnmParams shape;
      shape.num_vertices = n;
      shape.num_edges = scaled(1.3, n);
      EditSession session;
      session.base = ag::random_dag(shape, rng);
      ag::EditScriptParams script;
      script.num_deltas = deltas_per_session;
      session.script = ag::random_edit_script(session.base, script, rng);
      session.solver_seed = seed * 10000 + copy * 1000 + n;
      sessions.push_back(std::move(session));
    }
  }
  return sessions;
}

}  // namespace perfbench
