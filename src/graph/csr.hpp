// Frozen CSR (compressed sparse row) snapshot of a Digraph — the read-only
// graph shape the ACO hot path runs on.
//
// Digraph stores one heap vector per vertex per direction; every adjacency
// access in the ant's inner loop therefore chases a pointer into a separate
// allocation, and Digraph::edges() materialises a fresh vector on every
// call (compute_metrics used to rebuild it five times per walk). A CsrView
// packs the same topology into four contiguous arrays built once per
// solve (or metrics call):
//
//   out_offsets_/out_targets_ — successor lists, vertex-major
//   in_offsets_/in_sources_   — predecessor lists, vertex-major
//   edges_                    — the full edge array, source-major
//   width_                    — per-vertex drawing widths
//
// Adjacency *order is preserved exactly* from the Digraph (successor and
// predecessor lists are copied verbatim, and edges() enumerates in the same
// source-major order as Digraph::edges()), so algorithms whose results
// depend on neighbour iteration order — BFS vertex orders, floating-point
// accumulation in the metrics — are bit-identical on either representation.
//
// The view is a snapshot: mutating the source Digraph afterwards does not
// update it; rebuild() re-snapshots while reusing the buffers, and
// refreeze() re-snapshots *incrementally* when the caller can describe the
// mutation as a GraphDelta (the incremental re-layering path).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/delta.hpp"
#include "graph/digraph.hpp"
#include "support/check.hpp"

namespace acolay::graph {

/// Which path CsrView::refreeze took — observable so callers (and the
/// bench suites) can assert the fast path actually ran.
enum class RefreezeKind {
  /// Only vertex widths changed: the adjacency arrays were left untouched.
  kWidthsOnly,
  /// Edge churn below the threshold: arrays rebuilt by a single
  /// copy-with-patch pass, allocation-free once scratch capacity is warm.
  kPatched,
  /// Vertex set changed or churn above the threshold: full rebuild().
  kFull,
};

class CsrView {
 public:
  /// An empty view (0 vertices); fill with rebuild().
  CsrView() = default;

  explicit CsrView(const Digraph& g) { rebuild(g); }

  /// Re-snapshots `g`, reusing the existing buffers where capacity allows.
  void rebuild(const Digraph& g);

  /// Incrementally re-snapshots `g`, which must be the result of applying
  /// `delta` to the graph this view currently snapshots (the caller owns
  /// that contract; apply_delta + refreeze is the intended pairing).
  ///
  /// Three observable paths (see RefreezeKind): width-only deltas patch
  /// `width_` in place in O(|delta|); edge deltas whose churn stays at or
  /// below `churn_threshold * num_edges()` rebuild the arrays with a
  /// single copy-with-patch pass over the old snapshot (unchanged rows are
  /// block-copied, changed rows re-read from `g` — allocation-free once
  /// the internal scratch buffers are warm); everything else falls back to
  /// a full rebuild(g). All three end bit-identical to rebuild(g), and the
  /// cached per-vertex fingerprint folds are composed from the delta on
  /// the fast paths, so fingerprint() agrees with a full freeze exactly.
  RefreezeKind refreeze(const Digraph& g, const GraphDelta& delta,
                        double churn_threshold = 0.25);

  std::size_t num_vertices() const { return num_vertices_; }
  std::size_t num_edges() const { return edges_.size(); }

  /// Immediate successors N+(v), in the source Digraph's adjacency order.
  std::span<const VertexId> successors(VertexId v) const {
    check_vertex(v);
    const auto i = static_cast<std::size_t>(v);
    return {out_targets_.data() + out_offsets_[i],
            out_offsets_[i + 1] - out_offsets_[i]};
  }

  /// Immediate predecessors N-(v), in the source Digraph's adjacency order.
  std::span<const VertexId> predecessors(VertexId v) const {
    check_vertex(v);
    const auto i = static_cast<std::size_t>(v);
    return {in_sources_.data() + in_offsets_[i],
            in_offsets_[i + 1] - in_offsets_[i]};
  }

  std::size_t out_degree(VertexId v) const { return successors(v).size(); }
  std::size_t in_degree(VertexId v) const { return predecessors(v).size(); }

  /// All edges, source-major — the same order Digraph::edges() returns,
  /// but as a borrowed view instead of a fresh vector per call.
  std::span<const Edge> edges() const { return edges_; }

  double width(VertexId v) const {
    check_vertex(v);
    return width_[static_cast<std::size_t>(v)];
  }

  /// The whole width array (index = vertex id).
  std::span<const double> widths() const { return width_; }

  /// Canonical 64-bit hash of the snapshot's *logical* graph — the dedup
  /// key of the serving layer's graph cache (docs/SERVING.md).
  ///
  /// Covered: vertex count, every directed edge, and every vertex width
  /// (bit pattern of the double). Not covered: labels (they never affect a
  /// solve) and adjacency-list order — each vertex's successor set is
  /// folded with a commutative sum, so the same Digraph built with edges
  /// added in any order fingerprints identically. Vertex ids are part of
  /// the identity (a relabelled graph is a different layering problem).
  ///
  /// Adjacency order *does* affect solver results (BFS orders,
  /// accumulation order), so equal fingerprints mean "same logical graph",
  /// not "bit-identical solve": cache consumers must confirm with an exact
  /// Digraph comparison before sharing results. The value is pinned by
  /// tests/graph_csr_test.cpp so it cannot silently change across
  /// refactors (cached/persisted keys would go stale).
  std::uint64_t fingerprint() const;

 private:
  void check_vertex([[maybe_unused]] VertexId v) const {
    ACOLAY_DCHECK_MSG(v >= 0 && static_cast<std::size_t>(v) < num_vertices_,
                      "vertex " << v << " out of range (n=" << num_vertices_
                                << ")");
  }

  std::size_t num_vertices_ = 0;
  std::vector<std::size_t> out_offsets_;  // size n+1 (empty when n == 0)
  std::vector<std::size_t> in_offsets_;
  std::vector<VertexId> out_targets_;
  std::vector<VertexId> in_sources_;
  std::vector<Edge> edges_;
  std::vector<double> width_;
  // Per-vertex commutative fold of the successor set, maintained by
  // rebuild() and patched by refreeze(): makes fingerprint() O(n) and
  // delta-composable (the fold is an unsigned sum, so removal subtracts
  // exactly what insertion added).
  std::vector<std::uint64_t> edge_fold_;
  // refreeze() scratch, only populated by the patched path; persisted so
  // steady-state incremental re-freezes allocate nothing.
  std::vector<std::size_t> scratch_offsets_;
  std::vector<VertexId> scratch_ids_;
  std::vector<Edge> scratch_edges_;
  std::vector<std::uint8_t> out_changed_;
  std::vector<std::uint8_t> in_changed_;
};

}  // namespace acolay::graph
