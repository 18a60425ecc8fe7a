// The traced colony replay: run_colony's phases driven one public call at
// a time (CSR freeze, longest-path layering, stretch, initial objective,
// pheromone reset, then per tour one perform_walk per ant on
// root.fork(tour, ant), the tour-best reduction and PheromoneMatrix::update),
// with a span around each call. The replay must reproduce core::solve's
// layering and objective bit for bit; callers compare the two.
#pragma once

#include <cstdint>

#include "bench.hpp"
#include "core/colony.hpp"
#include "core/params.hpp"
#include "graph/digraph.hpp"
#include "layering/layering.hpp"

namespace perfbench {

struct ReplayOutcome {
  acolay::layering::Layering layering;  ///< normalized best layering
  double objective = 0.0;
  double initial_objective = 0.0;
  std::int64_t moves = 0;  ///< vertex moves over every walk
  std::int64_t walks = 0;
  std::size_t num_layers = 0;  ///< stretched layer count L
};

/// Replays the colony over DAG `g` with serial ants (params.num_threads
/// must be 1), recording every phase as a child span of `parent`.
ReplayOutcome replay_colony(const acolay::graph::Digraph& g,
                            const acolay::core::AcoParams& params,
                            acolay::core::ColonyWorkspace& ws,
                            SpanRecorder& recorder, std::int32_t parent,
                            std::uint64_t request);

}  // namespace perfbench
