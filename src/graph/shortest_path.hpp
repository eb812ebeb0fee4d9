// Shortest-path algorithms over the physical topology. The GRED control
// plane needs (a) the all-pairs hop matrix L for the M-position
// embedding, (b) concrete shortest paths between multi-hop DT
// neighbors to install relay entries, and (c) delta updates so a churn
// event (one link or switch joining/leaving) costs work proportional
// to the affected region instead of a full O(n * (m + n log n))
// recompute.
//
// Paths are no longer stored. The matrix keeps distances only, and the
// first hop / full path between a pair is derived on demand from the
// distance row plus the graph under a canonical rule (smallest-id
// tight predecessor). That makes the derived paths a pure function of
// (dist, graph): the incremental updates only have to reproduce the
// distance matrix bit-for-bit — which they do, see the delta-op notes
// below — and every downstream consumer (relay installation, the
// validators) sees identical paths whether the matrix came from a
// fresh run or a chain of delta updates.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "graph/graph.hpp"

namespace gred {
class ThreadPool;
}

namespace gred::graph {

inline constexpr double kUnreachable = std::numeric_limits<double>::infinity();

/// Hop count returned when no path exists.
inline constexpr std::size_t kNoPath = static_cast<std::size_t>(-1);

/// Single-source result: dist[v] (kUnreachable when disconnected).
struct SsspResult {
  std::vector<double> dist;
};

/// Unweighted BFS distances (hop counts).
SsspResult bfs(const Graph& g, NodeId source);

/// Weighted Dijkstra (binary heap). Precondition: positive weights.
SsspResult dijkstra(const Graph& g, NodeId source);

/// Square distance matrix that can grow by one node in place. Rows are
/// allocated with slack (stride >= n) so a switch join extends the
/// matrix without copying the whole thing on every event; equality and
/// indexing see only the logical n x n contents.
class DistMatrix {
 public:
  DistMatrix() = default;
  DistMatrix(std::size_t n, double fill);

  std::size_t size() const { return n_; }
  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * stride_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * stride_ + c];
  }
  /// Pointer to row `r` (contiguous `size()` doubles).
  double* row(std::size_t r) { return data_.data() + r * stride_; }
  const double* row(std::size_t r) const { return data_.data() + r * stride_; }

  /// Appends one row and one column filled with `fill`; reallocates
  /// (with fresh slack) only when the stride is exhausted.
  void add_node(double fill);

  /// Logical contents equality (slack is ignored).
  bool operator==(const DistMatrix& other) const;
  bool operator!=(const DistMatrix& other) const { return !(*this == other); }

 private:
  std::size_t n_ = 0;
  std::size_t stride_ = 0;
  std::vector<double> data_;
};

/// All-pairs shortest paths: the distance matrix plus the mode it was
/// computed under. Paths are derived, not stored (see file comment).
struct ApspResult {
  /// dist(i, j): shortest-path length; kUnreachable when disconnected.
  DistMatrix dist;
  /// True when distances are link-weight sums (Dijkstra), false when
  /// they are hop counts (BFS).
  bool weighted = false;

  double distance(NodeId i, NodeId j) const { return dist(i, j); }

  /// Canonical first hop on a shortest i -> j path (kNoNode when
  /// unreachable or i == j). Derived from the distance row: walking
  /// back from j, each predecessor is the smallest-id neighbor y of
  /// the current node t with dist(i, y) < dist(i, t) and
  /// dist(i, y) + w(y, t) == dist(i, t) exactly.
  NodeId first_hop(NodeId i, NodeId j, const Graph& g) const;

  /// Full canonical path i -> j including endpoints; empty if
  /// unreachable (or the table is inconsistent with `g`).
  std::vector<NodeId> path(NodeId i, NodeId j, const Graph& g) const;

  /// Hop count; 0 when i == j, kNoPath when unreachable. Valid for
  /// unweighted tables, where the distance IS the hop count; weighted
  /// callers count hops via path(i, j, g) instead.
  std::size_t hop_count(NodeId i, NodeId j) const;
};

/// Runs Dijkstra (or BFS when `weighted` is false) from every node.
/// Sources are fanned across `pool` (the global GRED_THREADS pool when
/// null); every source fills only its own row, so the result is
/// bit-identical for any thread count.
ApspResult all_pairs_shortest_paths(const Graph& g, bool weighted = false,
                                    ThreadPool* pool = nullptr);

/// What a delta update touched. `changed_rows` lists exactly the
/// sources whose distance row differs from before (sorted ascending);
/// consumers use it to localize virtual-link and flow-table repair. A
/// table that does not match the graph (wrong size, missing edge) is
/// recomputed instead, and every row is listed.
struct ApspDelta {
  std::vector<NodeId> changed_rows;
};

/// Delta update after edge (u, v) was ADDED to `g` (the edge must
/// already be present). Each row runs a bounded relaxation seeded at
/// the improved endpoint; rows the new edge cannot improve are
/// detected with two reads. Bit-identical to a fresh recompute:
/// distances under round-to-nearest relaxation have a unique fixpoint
/// for positive weights, and both the fresh run and the delta run
/// converge to it over the same offer multisets.
ApspDelta apsp_add_edge(ApspResult& r, const Graph& g, NodeId u, NodeId v,
                        ThreadPool* pool = nullptr);

/// Delta update after edge (u, v) with weight `weight` (1.0 in
/// unweighted mode) was REMOVED from `g`. Ramalingam-Reps style: per
/// row, the affected set (vertices that lost every tight support) is
/// grown in increasing-distance order, then re-settled by a Dijkstra
/// seeded from the unaffected boundary. Rows where the edge was not
/// tight are detected with two reads.
ApspDelta apsp_remove_edge(ApspResult& r, const Graph& g, NodeId u, NodeId v,
                           double weight, ThreadPool* pool = nullptr);

/// Delta update after node `v` (== previous node count) was appended
/// to `g` together with its initial links. Grows the matrix in place,
/// computes row v with a fresh single-source run, and settles column v
/// plus any shortcuts through v in every existing row.
ApspDelta apsp_add_node(ApspResult& r, const Graph& g, NodeId v,
                        ThreadPool* pool = nullptr);

/// Delta update after every edge incident to `v` was removed from `g`
/// (`removed` is the adjacency list captured before removal; the node
/// id itself stays valid, matching Graph::remove_edges_of). Row v
/// collapses to the isolated-node row; other rows run the batched
/// Ramalingam-Reps deletion with v as the initial casualty.
/// `changed_rows` lists only rows where a distance to a node OTHER
/// than v moved: column v going unreachable is not reported, because v
/// is leaving the network and nothing routes to it.
ApspDelta apsp_remove_node_edges(ApspResult& r, const Graph& g, NodeId v,
                                 const std::vector<EdgeTo>& removed,
                                 ThreadPool* pool = nullptr);

}  // namespace gred::graph
