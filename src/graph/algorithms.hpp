// Core graph algorithms over Digraph: orderings, acyclicity, reachability,
// components, and structural transforms. These are the primitives every
// layering algorithm in acolay builds on.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/csr.hpp"
#include "graph/digraph.hpp"

namespace acolay::graph {

/// Kahn topological order (sources first, following edge direction u -> v).
/// Returns nullopt if the graph has a cycle.
std::optional<std::vector<VertexId>> topological_order(const Digraph& g);

/// True iff the graph is acyclic.
bool is_dag(const Digraph& g);

/// Returns the vertices of some directed cycle (in order), or nullopt for a
/// DAG.
std::optional<std::vector<VertexId>> find_cycle(const Digraph& g);

/// Vertices with no in-edges.
std::vector<VertexId> sources(const Digraph& g);

/// Vertices with no out-edges.
std::vector<VertexId> sinks(const Digraph& g);

/// For each vertex, the maximum number of edges on any path from the vertex
/// to a sink (0 for sinks). Requires a DAG.
std::vector<int> longest_path_to_sink(const Digraph& g);

/// For each vertex, the maximum number of edges on any path from a source to
/// the vertex (0 for sources). Requires a DAG.
std::vector<int> longest_path_from_source(const Digraph& g);

/// Weakly connected components: returns (component id per vertex, count).
std::pair<std::vector<int>, int> weakly_connected_components(const Digraph& g);

bool is_weakly_connected(const Digraph& g);

/// BFS order over the *underlying undirected* graph, starting from `start`
/// (restarting from unvisited vertices in id order once exhausted). Visits
/// every vertex exactly once.
std::vector<VertexId> bfs_order(const Digraph& g, VertexId start = 0);

/// In-place bfs_order over a CSR view with caller-owned buffers — the
/// allocation-free variant the ACO walk uses. Identical visit order (one
/// shared implementation, and CsrView preserves the Digraph's adjacency
/// order). `order` receives the visit order; `seen` and `queue` are
/// scratch.
void bfs_order_into(const CsrView& g, VertexId start,
                    std::vector<VertexId>& order,
                    std::vector<std::uint8_t>& seen,
                    std::vector<VertexId>& queue);

/// Depth-first postorder over edge direction, restarting from unvisited
/// vertices in id order.
std::vector<VertexId> dfs_postorder(const Digraph& g);

/// The reverse digraph (every edge flipped; attributes preserved).
Digraph reverse(const Digraph& g);

/// Reachability matrix: closure[u][v] is true iff a directed path u ~> v
/// exists (u != v). Requires a DAG. O(V*E) bitset-free implementation.
std::vector<std::vector<bool>> transitive_closure(const Digraph& g);

/// Removes every edge (u, v) for which a longer directed path u ~> v exists.
/// Requires a DAG. Attributes preserved.
Digraph transitive_reduction(const Digraph& g);

/// Induced subgraph on `vertices` (ids remapped to 0..k-1 in the given
/// order; attributes preserved). Duplicate ids are contract violations.
Digraph induced_subgraph(const Digraph& g,
                         const std::vector<VertexId>& vertices);

}  // namespace acolay::graph
