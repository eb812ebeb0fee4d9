#include "graph/shortest_path.hpp"

#include <algorithm>
#include <deque>
#include <queue>
#include <utility>

#include "common/thread_pool.hpp"

namespace gred::graph {

SsspResult bfs(const Graph& g, NodeId source) {
  const std::size_t n = g.node_count();
  SsspResult r{std::vector<double>(n, kUnreachable)};
  if (source >= n) return r;
  std::deque<NodeId> queue{source};
  r.dist[source] = 0.0;
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    for (const EdgeTo& e : g.neighbors(u)) {
      if (r.dist[e.to] != kUnreachable) continue;
      r.dist[e.to] = r.dist[u] + 1.0;
      queue.push_back(e.to);
    }
  }
  return r;
}

SsspResult dijkstra(const Graph& g, NodeId source) {
  const std::size_t n = g.node_count();
  SsspResult r{std::vector<double>(n, kUnreachable)};
  if (source >= n) return r;

  using Item = std::pair<double, NodeId>;  // (dist, node)
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  r.dist[source] = 0.0;
  heap.emplace(0.0, source);
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > r.dist[u]) continue;  // stale entry
    for (const EdgeTo& e : g.neighbors(u)) {
      const double nd = d + e.weight;
      if (nd < r.dist[e.to]) {
        r.dist[e.to] = nd;
        heap.emplace(nd, e.to);
      }
    }
  }
  return r;
}

// ---------------------------------------------------------------- matrix

DistMatrix::DistMatrix(std::size_t n, double fill)
    : n_(n), stride_(n), data_(n * n, fill) {}

void DistMatrix::add_node(double fill) {
  const std::size_t n = n_ + 1;
  if (n > stride_) {
    // Re-pack with slack so the next joins extend in place.
    const std::size_t stride = n + n / 8 + 8;
    std::vector<double> data(stride * n, fill);
    for (std::size_t r = 0; r < n_; ++r) {
      std::copy_n(data_.data() + r * stride_, n_, data.data() + r * stride);
    }
    data_ = std::move(data);
    stride_ = stride;
  } else {
    data_.resize(stride_ * n, fill);
    // The freshly exposed column of each old row is slack memory with
    // stale contents; reset it.
    for (std::size_t r = 0; r < n_; ++r) data_[r * stride_ + n_] = fill;
  }
  n_ = n;
}

bool DistMatrix::operator==(const DistMatrix& other) const {
  if (n_ != other.n_) return false;
  for (std::size_t r = 0; r < n_; ++r) {
    if (!std::equal(row(r), row(r) + n_, other.row(r))) return false;
  }
  return true;
}

// ------------------------------------------------------- canonical paths

namespace {

/// Canonical predecessor of `t` on a shortest path from the row's
/// source: the smallest-id neighbor y with D[y] < D[t] and
/// D[y] + w(y, t) == D[t] exactly. Every final BFS/Dijkstra value is
/// fl(D[parent] + w), so a qualifying neighbor exists whenever t is
/// reachable and t != source; the strict decrease makes the walk
/// cycle-free.
NodeId canonical_pred(const double* D, const Graph& g, bool weighted,
                      NodeId t) {
  const double dt = D[t];
  // Adjacency lists are in edge-insertion order, which a churn history
  // perturbs; take the minimum over ALL qualifying neighbors so the
  // derived path depends only on (dist, graph contents).
  NodeId best = kNoNode;
  for (const EdgeTo& e : g.neighbors(t)) {
    const double dy = D[e.to];
    if (dy < dt && dy + (weighted ? e.weight : 1.0) == dt &&
        (best == kNoNode || e.to < best)) {
      best = e.to;
    }
  }
  return best;
}

}  // namespace

NodeId ApspResult::first_hop(NodeId i, NodeId j, const Graph& g) const {
  const std::size_t n = dist.size();
  if (i >= n || j >= n || i == j) return kNoNode;
  const double* D = dist.row(i);
  if (D[j] == kUnreachable) return kNoNode;
  NodeId cur = j;
  for (std::size_t guard = 0; guard < n; ++guard) {
    const NodeId pred = canonical_pred(D, g, weighted, cur);
    if (pred == kNoNode) return kNoNode;  // inconsistent table
    if (pred == i) return cur;
    cur = pred;
  }
  return kNoNode;
}

std::vector<NodeId> ApspResult::path(NodeId i, NodeId j, const Graph& g) const {
  std::vector<NodeId> out;
  const std::size_t n = dist.size();
  if (i >= n || j >= n) return out;
  if (i == j) return {i};
  const double* D = dist.row(i);
  if (D[j] == kUnreachable) return out;
  out.push_back(j);
  NodeId cur = j;
  for (std::size_t guard = 0; guard < n && cur != i; ++guard) {
    cur = canonical_pred(D, g, weighted, cur);
    if (cur == kNoNode) return {};  // inconsistent table
    out.push_back(cur);
  }
  if (cur != i) return {};
  std::reverse(out.begin(), out.end());
  return out;
}

std::size_t ApspResult::hop_count(NodeId i, NodeId j) const {
  if (i == j) return 0;
  if (i >= dist.size() || j >= dist.size()) return kNoPath;
  const double d = dist(i, j);
  if (d == kUnreachable) return kNoPath;
  return static_cast<std::size_t>(d);
}

ApspResult all_pairs_shortest_paths(const Graph& g, bool weighted,
                                    ThreadPool* pool) {
  const std::size_t n = g.node_count();
  ApspResult r;
  r.dist = DistMatrix(n, 0.0);
  r.weighted = weighted;

  ThreadPool& tp = pool ? *pool : global_pool();
  tp.parallel_for(0, n, 1, [&](std::size_t lo, std::size_t hi) {
    for (NodeId s = lo; s < hi; ++s) {
      const SsspResult sssp = weighted ? dijkstra(g, s) : bfs(g, s);
      std::copy_n(sssp.dist.data(), n, r.dist.row(s));
    }
  });
  return r;
}

// ----------------------------------------------------------- delta APSP

namespace {

using HeapItem = std::pair<double, NodeId>;
using MinHeap =
    std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>>;

/// Dijkstra-style relaxation to quiescence from pre-seeded entries.
/// Identical offer arithmetic (d + w under round-to-nearest) to the
/// fresh run; with positive weights the fixpoint is unique, so the
/// settled row is bit-equal to a from-scratch single-source run. When
/// `other_changed` is given it is set if any node except `tracked`
/// improves.
void relax_to_quiescence(const Graph& g, bool weighted, double* D,
                         MinHeap& heap, NodeId tracked = kNoNode,
                         bool* other_changed = nullptr) {
  while (!heap.empty()) {
    const auto [d, x] = heap.top();
    heap.pop();
    if (d > D[x]) continue;  // stale entry
    for (const EdgeTo& e : g.neighbors(x)) {
      const double nd = d + (weighted ? e.weight : 1.0);
      if (nd < D[e.to]) {
        D[e.to] = nd;
        if (other_changed != nullptr && e.to != tracked) {
          *other_changed = true;
        }
        heap.emplace(nd, e.to);
      }
    }
  }
}

/// Shared epilogue: collect flagged rows into a sorted list.
ApspDelta collect_rows(const std::vector<char>& changed) {
  ApspDelta delta;
  for (NodeId s = 0; s < changed.size(); ++s) {
    if (changed[s] != 0) delta.changed_rows.push_back(s);
  }
  return delta;
}

/// Guard for a table that does not match the graph: recompute it and
/// list every row.
ApspDelta full_fallback(ApspResult& r, const Graph& g, ThreadPool* pool) {
  r = all_pairs_shortest_paths(g, r.weighted, pool);
  ApspDelta delta;
  delta.changed_rows.resize(g.node_count());
  for (NodeId s = 0; s < delta.changed_rows.size(); ++s) {
    delta.changed_rows[s] = s;
  }
  return delta;
}

ThreadPool& pool_or_global(ThreadPool* pool) {
  return pool ? *pool : global_pool();
}

/// Per-row scratch for the Ramalingam-Reps deletion, reused across the
/// rows of one parallel chunk; epoch stamps avoid O(n) clears per row.
struct DeleteScratch {
  std::vector<std::uint32_t> affected_epoch;
  std::vector<std::uint32_t> supported_epoch;
  std::vector<NodeId> affected;
  std::uint32_t epoch = 0;

  explicit DeleteScratch(std::size_t n)
      : affected_epoch(n, 0), supported_epoch(n, 0) {}

  bool is_affected(NodeId x) const { return affected_epoch[x] == epoch; }
  bool classified(NodeId x) const {
    return affected_epoch[x] == epoch || supported_epoch[x] == epoch;
  }
};

/// Grows the affected set from initial candidate `z` (old distances in
/// D, new graph g), then re-settles it from boundary offers. Returns
/// true when the row changed. `extra` optionally supplies the removed
/// adjacency of a detached node (batch deletion): when `extra_node` is
/// confirmed affected its former neighbors become candidates even
/// though the new graph no longer lists them.
bool delete_update_row(const Graph& g, bool weighted, double* D, NodeId z,
                       DeleteScratch& scratch, NodeId extra_node = kNoNode,
                       const std::vector<EdgeTo>* extra = nullptr) {
  ++scratch.epoch;
  scratch.affected.clear();
  MinHeap candidates;
  candidates.emplace(D[z], z);

  // Phase 1: classify candidates in increasing old-distance order. A
  // candidate is affected iff it has no unaffected neighbor that
  // supports its old value exactly; ties in old distance cannot
  // support each other (support needs a strict decrease), so the order
  // among equal keys does not matter.
  while (!candidates.empty()) {
    const auto [dx, x] = candidates.top();
    candidates.pop();
    if (scratch.classified(x)) continue;
    bool supported = false;
    for (const EdgeTo& e : g.neighbors(x)) {
      const double dy = D[e.to];
      if (scratch.is_affected(e.to)) continue;
      if (dy < dx && dy + (weighted ? e.weight : 1.0) == dx) {
        supported = true;
        break;
      }
    }
    if (supported) {
      scratch.supported_epoch[x] = scratch.epoch;
      continue;
    }
    scratch.affected_epoch[x] = scratch.epoch;
    scratch.affected.push_back(x);
    const std::vector<EdgeTo>& out =
        (x == extra_node && extra != nullptr) ? *extra : g.neighbors(x);
    for (const EdgeTo& e : out) {
      const double dy = D[e.to];
      if (dy == kUnreachable || scratch.classified(e.to)) continue;
      if (dx < dy && dx + (weighted ? e.weight : 1.0) == dy) {
        candidates.emplace(dy, e.to);
      }
    }
  }
  if (scratch.affected.empty()) return false;

  // Phase 2: re-settle the affected set from unaffected-boundary
  // offers. The boundary values are final (deletion never improves a
  // distance), so this is exactly the tail of a fresh Dijkstra.
  for (const NodeId x : scratch.affected) D[x] = kUnreachable;
  MinHeap heap;
  for (const NodeId x : scratch.affected) {
    double best = kUnreachable;
    for (const EdgeTo& e : g.neighbors(x)) {
      if (scratch.is_affected(e.to)) continue;
      const double dy = D[e.to];
      if (dy == kUnreachable) continue;
      const double offer = dy + (weighted ? e.weight : 1.0);
      if (offer < best) best = offer;
    }
    if (best < D[x]) {
      D[x] = best;
      heap.emplace(best, x);
    }
  }
  relax_to_quiescence(g, weighted, D, heap);
  return true;
}

}  // namespace

ApspDelta apsp_add_edge(ApspResult& r, const Graph& g, NodeId u, NodeId v,
                        ThreadPool* pool) {
  const std::size_t n = g.node_count();
  const EdgeTo* edge = g.find_edge(u, v);
  if (edge == nullptr || r.dist.size() != n) return full_fallback(r, g, pool);
  const double w = r.weighted ? edge->weight : 1.0;

  // Pre-scan: rows the new edge strictly improves (two reads per row).
  // Exactly these rows change, since the edge shortens a row only by
  // improving one of its endpoints.
  std::vector<char> seeded(n, 0);
  for (NodeId s = 0; s < n; ++s) {
    const double du = r.dist(s, u);
    const double dv = r.dist(s, v);
    if ((du != kUnreachable && du + w < dv) ||
        (dv != kUnreachable && dv + w < du)) {
      seeded[s] = 1;
    }
  }

  pool_or_global(pool).parallel_for(0, n, 1, [&](std::size_t lo,
                                                 std::size_t hi) {
    for (NodeId s = lo; s < hi; ++s) {
      if (seeded[s] == 0) continue;
      double* D = r.dist.row(s);
      MinHeap heap;
      if (D[u] != kUnreachable && D[u] + w < D[v]) {
        D[v] = D[u] + w;
        heap.emplace(D[v], v);
      } else {
        D[u] = D[v] + w;
        heap.emplace(D[u], u);
      }
      relax_to_quiescence(g, r.weighted, D, heap);
    }
  });
  return collect_rows(seeded);
}

ApspDelta apsp_remove_edge(ApspResult& r, const Graph& g, NodeId u, NodeId v,
                           double weight, ThreadPool* pool) {
  const std::size_t n = g.node_count();
  if (r.dist.size() != n) return full_fallback(r, g, pool);
  const double w = r.weighted ? weight : 1.0;

  // Pre-scan: rows where the removed edge was tight (supported one
  // endpoint's value). Tight is an overestimate of affected — the
  // endpoint may have alternative support — but it is the cheapest
  // sound filter; the per-row update reports whether the row moved.
  std::vector<char> tight(n, 0);
  std::vector<NodeId> casualty(n, kNoNode);
  for (NodeId s = 0; s < n; ++s) {
    const double du = r.dist(s, u);
    const double dv = r.dist(s, v);
    if (du == kUnreachable || dv == kUnreachable) continue;
    NodeId z = kNoNode;
    if (du < dv && du + w == dv) {
      z = v;
    } else if (dv < du && dv + w == du) {
      z = u;
    }
    if (z != kNoNode) {
      tight[s] = 1;
      casualty[s] = z;
    }
  }

  std::vector<char> changed(n, 0);
  pool_or_global(pool).parallel_for(0, n, 1, [&](std::size_t lo,
                                                 std::size_t hi) {
    DeleteScratch scratch(n);
    for (NodeId s = lo; s < hi; ++s) {
      if (tight[s] == 0) continue;
      if (delete_update_row(g, r.weighted, r.dist.row(s), casualty[s],
                            scratch)) {
        changed[s] = 1;
      }
    }
  });
  return collect_rows(changed);
}

ApspDelta apsp_add_node(ApspResult& r, const Graph& g, NodeId v,
                        ThreadPool* pool) {
  const std::size_t n = g.node_count();
  if (v + 1 != n || r.dist.size() + 1 != n) return full_fallback(r, g, pool);
  r.dist.add_node(kUnreachable);
  r.dist(v, v) = 0.0;

  std::vector<char> changed(n, 0);
  changed[v] = 1;
  ThreadPool& tp = pool_or_global(pool);
  // Row v is a fresh single-source run; settle it alongside the old
  // rows' column-v estimates.
  tp.parallel_for(0, n, 1, [&](std::size_t lo, std::size_t hi) {
    for (NodeId s = lo; s < hi; ++s) {
      if (s == v) {
        const SsspResult sssp = r.weighted ? dijkstra(g, v) : bfs(g, v);
        std::copy_n(sssp.dist.data(), n, r.dist.row(v));
        continue;
      }
      double* D = r.dist.row(s);
      // D[v] = min over v's links of fl(D[y] + w) — the same offer
      // multiset a fresh row-s run would minimize over; order
      // irrelevant because min does not round.
      double est = kUnreachable;
      for (const EdgeTo& e : g.neighbors(v)) {
        const double dy = D[e.to];
        if (dy == kUnreachable) continue;
        const double offer = dy + (r.weighted ? e.weight : 1.0);
        if (offer < est) est = offer;
      }
      if (est == kUnreachable) continue;  // v not reachable from s
      D[v] = est;
      MinHeap heap;
      heap.emplace(est, v);
      // New shortcuts through v: changed[s] only when a pre-existing
      // entry moves, not for the new column itself.
      bool other = false;
      relax_to_quiescence(g, r.weighted, D, heap, v, &other);
      if (other) changed[s] = 1;
    }
  });
  return collect_rows(changed);
}

ApspDelta apsp_remove_node_edges(ApspResult& r, const Graph& g, NodeId v,
                                 const std::vector<EdgeTo>& removed,
                                 ThreadPool* pool) {
  const std::size_t n = g.node_count();
  if (v >= n || r.dist.size() != n) return full_fallback(r, g, pool);

  std::vector<char> changed(n, 0);
  pool_or_global(pool).parallel_for(0, n, 1, [&](std::size_t lo,
                                                 std::size_t hi) {
    DeleteScratch scratch(n);
    for (NodeId s = lo; s < hi; ++s) {
      double* D = r.dist.row(s);
      if (s == v) {
        // v is now isolated: exactly what a fresh run from v returns.
        bool any = false;
        for (NodeId t = 0; t < n; ++t) {
          const double want = t == v ? 0.0 : kUnreachable;
          if (D[t] != want) {
            D[t] = want;
            any = true;
          }
        }
        if (any) changed[s] = 1;
        continue;
      }
      if (D[v] == kUnreachable) continue;  // v was not reachable: no-op
      // Batch deletion: v loses every edge, so it is the initial
      // casualty; its former adjacency seeds the candidate expansion.
      if (delete_update_row(g, r.weighted, D, v, scratch, v, &removed)) {
        // Column v collapses to unreachable in every row that could
        // reach v; that alone is not reported (v left the network, no
        // consumer routes to it). A row counts as changed only when a
        // SURVIVING node's distance moved, which keeps changed_rows
        // proportional to the region that actually rerouted.
        for (const NodeId x : scratch.affected) {
          if (x != v) {
            changed[s] = 1;
            break;
          }
        }
      }
    }
  });
  return collect_rows(changed);
}

}  // namespace gred::graph
