#include "graph/algorithms.hpp"

#include <algorithm>
#include <deque>

namespace acolay::graph {

std::optional<std::vector<VertexId>> topological_order(const Digraph& g) {
  const auto n = g.num_vertices();
  std::vector<std::size_t> remaining_in(n);
  std::deque<VertexId> ready;
  for (VertexId v = 0; static_cast<std::size_t>(v) < n; ++v) {
    remaining_in[static_cast<std::size_t>(v)] = g.in_degree(v);
    if (g.in_degree(v) == 0) ready.push_back(v);
  }
  std::vector<VertexId> order;
  order.reserve(n);
  while (!ready.empty()) {
    const VertexId u = ready.front();
    ready.pop_front();
    order.push_back(u);
    for (const VertexId v : g.successors(u)) {
      if (--remaining_in[static_cast<std::size_t>(v)] == 0) {
        ready.push_back(v);
      }
    }
  }
  if (order.size() != n) return std::nullopt;
  return order;
}

bool is_dag(const Digraph& g) { return topological_order(g).has_value(); }

std::optional<std::vector<VertexId>> find_cycle(const Digraph& g) {
  const auto n = g.num_vertices();
  enum class Color : unsigned char { kWhite, kGray, kBlack };
  std::vector<Color> color(n, Color::kWhite);
  std::vector<VertexId> parent(n, -1);

  // Iterative DFS with an explicit stack of (vertex, next-successor-index).
  for (VertexId root = 0; static_cast<std::size_t>(root) < n; ++root) {
    if (color[static_cast<std::size_t>(root)] != Color::kWhite) continue;
    std::vector<std::pair<VertexId, std::size_t>> stack;
    stack.emplace_back(root, 0);
    color[static_cast<std::size_t>(root)] = Color::kGray;
    while (!stack.empty()) {
      auto& [u, next] = stack.back();
      const auto succ = g.successors(u);
      if (next < succ.size()) {
        const VertexId v = succ[next++];
        const auto vi = static_cast<std::size_t>(v);
        if (color[vi] == Color::kWhite) {
          color[vi] = Color::kGray;
          parent[vi] = u;
          stack.emplace_back(v, 0);
        } else if (color[vi] == Color::kGray) {
          // Found a back edge u -> v: walk parents from u back to v.
          std::vector<VertexId> cycle{v};
          for (VertexId w = u; w != v; w = parent[static_cast<std::size_t>(w)]) {
            cycle.push_back(w);
          }
          std::reverse(cycle.begin() + 1, cycle.end());
          return cycle;
        }
      } else {
        color[static_cast<std::size_t>(u)] = Color::kBlack;
        stack.pop_back();
      }
    }
  }
  return std::nullopt;
}

std::vector<VertexId> sources(const Digraph& g) {
  std::vector<VertexId> out;
  for (VertexId v = 0; static_cast<std::size_t>(v) < g.num_vertices(); ++v) {
    if (g.in_degree(v) == 0) out.push_back(v);
  }
  return out;
}

std::vector<VertexId> sinks(const Digraph& g) {
  std::vector<VertexId> out;
  for (VertexId v = 0; static_cast<std::size_t>(v) < g.num_vertices(); ++v) {
    if (g.out_degree(v) == 0) out.push_back(v);
  }
  return out;
}

std::vector<int> longest_path_to_sink(const Digraph& g) {
  const auto order = topological_order(g);
  ACOLAY_CHECK_MSG(order.has_value(), "longest_path_to_sink requires a DAG");
  std::vector<int> dist(g.num_vertices(), 0);
  // Process in reverse topological order so successors are final.
  for (auto it = order->rbegin(); it != order->rend(); ++it) {
    const VertexId u = *it;
    for (const VertexId v : g.successors(u)) {
      dist[static_cast<std::size_t>(u)] =
          std::max(dist[static_cast<std::size_t>(u)],
                   dist[static_cast<std::size_t>(v)] + 1);
    }
  }
  return dist;
}

std::vector<int> longest_path_from_source(const Digraph& g) {
  const auto order = topological_order(g);
  ACOLAY_CHECK_MSG(order.has_value(),
                   "longest_path_from_source requires a DAG");
  std::vector<int> dist(g.num_vertices(), 0);
  for (const VertexId u : *order) {
    for (const VertexId v : g.successors(u)) {
      dist[static_cast<std::size_t>(v)] =
          std::max(dist[static_cast<std::size_t>(v)],
                   dist[static_cast<std::size_t>(u)] + 1);
    }
  }
  return dist;
}

std::pair<std::vector<int>, int> weakly_connected_components(
    const Digraph& g) {
  const auto n = g.num_vertices();
  std::vector<int> comp(n, -1);
  int count = 0;
  for (VertexId root = 0; static_cast<std::size_t>(root) < n; ++root) {
    if (comp[static_cast<std::size_t>(root)] != -1) continue;
    std::deque<VertexId> queue{root};
    comp[static_cast<std::size_t>(root)] = count;
    while (!queue.empty()) {
      const VertexId u = queue.front();
      queue.pop_front();
      const auto visit = [&](VertexId v) {
        if (comp[static_cast<std::size_t>(v)] == -1) {
          comp[static_cast<std::size_t>(v)] = count;
          queue.push_back(v);
        }
      };
      for (const VertexId v : g.successors(u)) visit(v);
      for (const VertexId v : g.predecessors(u)) visit(v);
    }
    ++count;
  }
  return {std::move(comp), count};
}

bool is_weakly_connected(const Digraph& g) {
  if (g.num_vertices() <= 1) return true;
  return weakly_connected_components(g).second == 1;
}

namespace {

// One BFS implementation for both graph representations (undirected
// frontier, FIFO via a growing vector with a head cursor): any change to
// the visit order applies to Digraph and CsrView alike, so they cannot
// drift apart.
template <typename Graph>
void bfs_order_impl(const Graph& g, VertexId start,
                    std::vector<VertexId>& order,
                    std::vector<std::uint8_t>& seen,
                    std::vector<VertexId>& queue) {
  const auto n = g.num_vertices();
  order.clear();
  if (n == 0) return;
  ACOLAY_CHECK(start >= 0 && static_cast<std::size_t>(start) < n);
  seen.assign(n, 0);
  queue.clear();
  std::size_t head = 0;
  const auto run_from = [&](VertexId root) {
    queue.push_back(root);
    seen[static_cast<std::size_t>(root)] = 1;
    while (head < queue.size()) {
      const VertexId u = queue[head++];
      order.push_back(u);
      const auto visit = [&](VertexId v) {
        if (!seen[static_cast<std::size_t>(v)]) {
          seen[static_cast<std::size_t>(v)] = 1;
          queue.push_back(v);
        }
      };
      for (const VertexId v : g.successors(u)) visit(v);
      for (const VertexId v : g.predecessors(u)) visit(v);
    }
  };
  run_from(start);
  for (VertexId v = 0; static_cast<std::size_t>(v) < n; ++v) {
    if (!seen[static_cast<std::size_t>(v)]) run_from(v);
  }
}

}  // namespace

std::vector<VertexId> bfs_order(const Digraph& g, VertexId start) {
  std::vector<VertexId> order;
  std::vector<std::uint8_t> seen;
  std::vector<VertexId> queue;
  bfs_order_impl(g, start, order, seen, queue);
  return order;
}

void bfs_order_into(const CsrView& g, VertexId start,
                    std::vector<VertexId>& order,
                    std::vector<std::uint8_t>& seen,
                    std::vector<VertexId>& queue) {
  bfs_order_impl(g, start, order, seen, queue);
}

std::vector<VertexId> dfs_postorder(const Digraph& g) {
  const auto n = g.num_vertices();
  std::vector<VertexId> order;
  order.reserve(n);
  std::vector<bool> seen(n, false);
  for (VertexId root = 0; static_cast<std::size_t>(root) < n; ++root) {
    if (seen[static_cast<std::size_t>(root)]) continue;
    std::vector<std::pair<VertexId, std::size_t>> stack;
    stack.emplace_back(root, 0);
    seen[static_cast<std::size_t>(root)] = true;
    while (!stack.empty()) {
      auto& [u, next] = stack.back();
      const auto succ = g.successors(u);
      bool descended = false;
      while (next < succ.size()) {
        const VertexId v = succ[next++];
        if (!seen[static_cast<std::size_t>(v)]) {
          seen[static_cast<std::size_t>(v)] = true;
          stack.emplace_back(v, 0);
          descended = true;
          break;
        }
      }
      if (!descended && next >= succ.size()) {
        order.push_back(u);
        stack.pop_back();
      }
    }
  }
  return order;
}

Digraph reverse(const Digraph& g) {
  Digraph r;
  r.reserve(g.num_vertices(), g.num_edges());
  for (VertexId v = 0; static_cast<std::size_t>(v) < g.num_vertices(); ++v) {
    r.add_vertex(g.width(v), g.label(v));
  }
  for (const auto& [u, v] : g.edges()) r.add_edge(v, u);
  return r;
}

std::vector<std::vector<bool>> transitive_closure(const Digraph& g) {
  const auto order = topological_order(g);
  ACOLAY_CHECK_MSG(order.has_value(), "transitive_closure requires a DAG");
  const auto n = g.num_vertices();
  std::vector<std::vector<bool>> closure(n, std::vector<bool>(n, false));
  // Reverse topological order: successors of u are complete when u is done.
  for (auto it = order->rbegin(); it != order->rend(); ++it) {
    const auto u = static_cast<std::size_t>(*it);
    for (const VertexId v : g.successors(*it)) {
      const auto vi = static_cast<std::size_t>(v);
      closure[u][vi] = true;
      for (std::size_t w = 0; w < n; ++w) {
        if (closure[vi][w]) closure[u][w] = true;
      }
    }
  }
  return closure;
}

Digraph transitive_reduction(const Digraph& g) {
  const auto closure = transitive_closure(g);
  Digraph r;
  r.reserve(g.num_vertices(), g.num_edges());
  for (VertexId v = 0; static_cast<std::size_t>(v) < g.num_vertices(); ++v) {
    r.add_vertex(g.width(v), g.label(v));
  }
  for (const auto& [u, v] : g.edges()) {
    // Keep (u, v) unless some successor w != v of u reaches v.
    bool redundant = false;
    for (const VertexId w : g.successors(u)) {
      if (w != v && closure[static_cast<std::size_t>(w)]
                           [static_cast<std::size_t>(v)]) {
        redundant = true;
        break;
      }
    }
    if (!redundant) r.add_edge(u, v);
  }
  return r;
}

Digraph induced_subgraph(const Digraph& g,
                         const std::vector<VertexId>& vertices) {
  std::vector<VertexId> remap(g.num_vertices(), -1);
  Digraph sub;
  sub.reserve(vertices.size(), 0);
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    const VertexId v = vertices[i];
    ACOLAY_CHECK(g.has_vertex(v));
    ACOLAY_CHECK_MSG(remap[static_cast<std::size_t>(v)] == -1,
                     "duplicate vertex " << v << " in induced_subgraph");
    remap[static_cast<std::size_t>(v)] = static_cast<VertexId>(i);
    sub.add_vertex(g.width(v), g.label(v));
  }
  for (const VertexId v : vertices) {
    for (const VertexId w : g.successors(v)) {
      if (remap[static_cast<std::size_t>(w)] != -1) {
        sub.add_edge(remap[static_cast<std::size_t>(v)],
                     remap[static_cast<std::size_t>(w)]);
      }
    }
  }
  return sub;
}

}  // namespace acolay::graph
