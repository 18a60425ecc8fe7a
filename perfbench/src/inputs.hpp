// Input generators of the three workloads. Each is a pure function of the
// workload seed: the program only ever sees the generated inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/delta.hpp"
#include "graph/digraph.hpp"

namespace perfbench {

/// One serve_mix request frame. `body` is the frame without its id, so a
/// repeat is byte-identical to its original apart from the id.
struct Frame {
  std::string body;
  /// Index of the frame whose body this one repeats (itself if fresh).
  std::size_t source = 0;
  bool tiny = false;
  bool cyclic = false;
};

/// The wire text of frame `index` of a sequence (no trailing newline).
std::string frame_text(const Frame& frame, std::size_t index);

/// serve_mix: `count` frames on a fixed 20-frame schedule: 50 % corpus-like
/// north DAGs (n 10..100), 25 % tiny (n <= 8), 20 % exact repeats at
/// distances 8..152 (straddling the daemon's 64-entry result cache) and
/// 5 % cyclic frames sent with "cycle_policy":"aco_fas".
std::vector<Frame> make_serve_frames(std::uint64_t seed, std::size_t count);

/// One solve_large graph with a short label ("deep-1024#0", "wide-512#1").
struct LabeledGraph {
  std::string label;
  acolay::graph::Digraph graph;
};

/// solve_large: four deep (gen::random_dag, 1.3 edges/vertex) and four wide
/// (gen::random_layered_dag) graphs at each n in {512, 1024, 2048}, plus
/// two of each at n = 256 and one of each at n = 4096.
std::vector<LabeledGraph> make_solve_graphs(std::uint64_t seed);

/// One relayer_edit session: a gen::random_dag base and its edit script.
struct EditSession {
  acolay::graph::Digraph base;
  std::vector<acolay::graph::GraphDelta> script;
  std::uint64_t solver_seed = 1;
};

/// relayer_edit: four sessions per base size n in {128, 152, 181, 215, 256,
/// 304, 362, 431, 512}, each with a `deltas_per_session`-step
/// gen::random_edit_script.
std::vector<EditSession> make_edit_sessions(std::uint64_t seed,
                                            int deltas_per_session);

}  // namespace perfbench
