#include "geometry/delaunay.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <utility>

#include "geometry/predicates.hpp"

namespace gred::geometry {
namespace {

bool all_collinear(const std::vector<Point2D>& pts) {
  if (pts.size() < 3) return true;
  // Find two distinct points, then test the rest against their line.
  const Point2D& a = pts[0];
  std::size_t second = 1;
  while (second < pts.size() && pts[second] == a) ++second;
  if (second == pts.size()) return true;
  const Point2D& b = pts[second];
  for (std::size_t i = second + 1; i < pts.size(); ++i) {
    if (orient2d(a, b, pts[i]) != Orientation::kCollinear) return false;
  }
  return true;
}

/// Sets `affected` (when given) to all `n` sites: a rebuild may change
/// any adjacency.
void list_every_site(std::size_t n, std::vector<std::size_t>* affected) {
  if (affected == nullptr) return;
  affected->resize(n);
  std::iota(affected->begin(), affected->end(), std::size_t{0});
}

}  // namespace

/// Conflict test: is `p` inside the (possibly unbounded) circumdisk of
/// face `t`? For ghost faces this is the CGAL-style rule — the open
/// half-plane strictly right of the directed hull edge, plus the closed
/// segment for points on its supporting line.
static bool face_in_conflict(const std::vector<Point2D>& pts, std::size_t a,
                             std::size_t b, std::size_t c,
                             std::size_t ghost_vertex, const Point2D& p) {
  if (c != ghost_vertex) {
    return in_circumcircle(pts[a], pts[b], pts[c], p);
  }
  const Point2D& pa = pts[a];
  const Point2D& pb = pts[b];
  switch (orient2d(pa, pb, p)) {
    case Orientation::kClockwise:
      return true;  // strictly outside the hull across this edge
    case Orientation::kCollinear:
      // On the supporting line: conflict only when between a and b
      // (i.e., on the hull edge itself).
      return dot(p - pa, p - pb) <= 0.0;
    case Orientation::kCounterClockwise:
      return false;
  }
  return false;
}

Status DelaunayTriangulation::insert_into_faces(
    const std::vector<Point2D>& pts, std::vector<Face>& faces, std::size_t idx,
    std::vector<std::size_t>* cavity) {
  const Point2D& p = pts[idx];

  using Edge = std::pair<std::size_t, std::size_t>;  // undirected key
  auto canon = [](std::size_t x, std::size_t y) {
    return x < y ? Edge{x, y} : Edge{y, x};
  };

  // Bowyer-Watson cavity over finite and ghost faces.
  std::vector<Face> keep;
  keep.reserve(faces.size());
  std::map<Edge, int> edge_count;
  // For rim edges (x, ghost): whether x was the SOURCE of the removed
  // ghost's directed hull edge (decides the new ghost's direction).
  std::map<std::size_t, bool> ghost_source;
  bool any_conflict = false;

  for (const Face& t : faces) {
    if (!face_in_conflict(pts, t.a, t.b, t.c, kGhostVertex, p)) {
      keep.push_back(t);
      continue;
    }
    any_conflict = true;
    if (cavity != nullptr) {
      if (t.a != kGhostVertex) cavity->push_back(t.a);
      if (t.b != kGhostVertex) cavity->push_back(t.b);
      if (t.c != kGhostVertex) cavity->push_back(t.c);
    }
    ++edge_count[canon(t.a, t.b)];
    ++edge_count[canon(t.b, t.c)];
    ++edge_count[canon(t.c, t.a)];
    if (t.c == kGhostVertex) {
      // When a vertex is source in one removed ghost and target in
      // another, both its (x, ghost) edges are gone (count 2) and the
      // direction is irrelevant.
      ghost_source[t.a] = true;          // t.a is source of edge a->b
      ghost_source.emplace(t.b, false);  // t.b is target
    }
  }
  if (!any_conflict) {
    // With exact predicates this cannot happen for a point not already
    // in the triangulation; fail loudly rather than silently skip.
    return Status(ErrorCode::kInternal,
                  "DelaunayTriangulation: insertion found no conflict "
                  "region for point " +
                      p.to_string());
  }

  faces = std::move(keep);
  for (const auto& [edge, count] : edge_count) {
    if (count != 1) continue;
    if (edge.second == kGhostVertex) {
      // Hull vertex x keeps contact with infinity: new ghost edge
      // oriented by x's role in the removed ghost.
      const std::size_t x = edge.first;
      const bool was_source = ghost_source.count(x) ? ghost_source[x] : true;
      if (was_source) {
        faces.push_back({x, idx, kGhostVertex});
      } else {
        faces.push_back({idx, x, kGhostVertex});
      }
    } else {
      Face t{edge.first, edge.second, idx};
      if (orient2d(pts[t.a], pts[t.b], pts[t.c]) ==
          Orientation::kCollinear) {
        // Exactly collinear rim edge: p extends the hull along this
        // line; the edge stays on the hull, handled by ghost edges.
        continue;
      }
      // Orient with the exact predicate: for sliver triangles
      // (near-collinear sites) the naive double signed_area2 returns
      // sign noise, and one mis-oriented face corrupts every later
      // cavity walk (found by fuzz/fuzz_delaunay.cpp).
      if (orient2d(pts[t.a], pts[t.b], pts[t.c]) ==
          Orientation::kClockwise) {
        std::swap(t.b, t.c);  // make counter-clockwise
      }
      faces.push_back(t);
    }
  }
  return Status::Ok();
}

Result<DelaunayTriangulation> DelaunayTriangulation::build(
    std::vector<Point2D> points, Rng* rng) {
  // Reject duplicates: the nearest-site map would be ambiguous.
  {
    std::vector<Point2D> sorted = points;
    std::sort(sorted.begin(), sorted.end(), lex_less);
    for (std::size_t i = 1; i < sorted.size(); ++i) {
      if (sorted[i] == sorted[i - 1]) {
        return Error(ErrorCode::kInvalidArgument,
                     "DelaunayTriangulation: duplicate point " +
                         sorted[i].to_string());
      }
    }
  }

  DelaunayTriangulation dt;
  dt.points_ = std::move(points);
  const std::size_t n = dt.points_.size();
  dt.adjacency_.assign(n, {});

  if (n <= 1) return dt;
  if (n == 2) {
    dt.adjacency_[0] = {1};
    dt.adjacency_[1] = {0};
    return dt;
  }

  if (all_collinear(dt.points_)) {
    // Degenerate: connect consecutive points along the line so greedy
    // routing still works in 1-D.
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
      return lex_less(dt.points_[x], dt.points_[y]);
    });
    for (std::size_t i = 0; i + 1 < n; ++i) {
      dt.adjacency_[order[i]].push_back(order[i + 1]);
      dt.adjacency_[order[i + 1]].push_back(order[i]);
    }
    for (auto& adj : dt.adjacency_) std::sort(adj.begin(), adj.end());
    return dt;
  }

  const std::vector<Point2D>& pts = dt.points_;

  // Randomized insertion order (Section IV-C: "points are inserted in
  // random order").
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  if (rng != nullptr) {
    rng->shuffle(order);
  } else {
    Rng fallback(0x6d5a3f0c9b1e4a27ULL ^ n);
    fallback.shuffle(order);
  }

  // Bootstrap: move a non-collinear triple to the front of the order.
  {
    std::size_t k = 2;
    while (k < n && orient2d(pts[order[0]], pts[order[1]], pts[order[k]]) ==
                        Orientation::kCollinear) {
      ++k;
    }
    // all_collinear() was false, so k < n.
    std::swap(order[2], order[k]);
  }

  dt.faces_.clear();
  {
    Face seed{order[0], order[1], order[2]};
    if (orient2d(pts[seed.a], pts[seed.b], pts[seed.c]) ==
        Orientation::kClockwise) {
      std::swap(seed.b, seed.c);
    }
    // For a CCW triangle the interior is on the left of each directed
    // edge, so the ghost faces carry the edges as-is.
    dt.faces_.push_back(seed);
    dt.faces_.push_back({seed.a, seed.b, kGhostVertex});
    dt.faces_.push_back({seed.b, seed.c, kGhostVertex});
    dt.faces_.push_back({seed.c, seed.a, kGhostVertex});
  }

  for (std::size_t oi = 3; oi < n; ++oi) {
    const Status inserted = insert_into_faces(pts, dt.faces_, order[oi]);
    if (!inserted.ok()) return inserted.error();
  }

  dt.maintainable_ = true;
  dt.refresh_from_faces();
  return dt;
}

Result<std::size_t> DelaunayTriangulation::insert(
    const Point2D& p, std::vector<std::size_t>* affected) {
  if (affected != nullptr) affected->clear();
  for (const Point2D& q : points_) {
    if (q == p) {
      return Error(ErrorCode::kInvalidArgument,
                   "DelaunayTriangulation::insert: duplicate point " +
                       p.to_string());
    }
  }

  if (!maintainable_) {
    // Degenerate state (tiny or collinear): rebuild from scratch.
    std::vector<Point2D> pts = points_;
    pts.push_back(p);
    auto rebuilt = build(std::move(pts));
    if (!rebuilt.ok()) return rebuilt.error();
    *this = std::move(rebuilt).value();
    list_every_site(points_.size(), affected);
    return points_.size() - 1;
  }

  points_.push_back(p);
  const std::size_t idx = points_.size() - 1;
  const Status inserted = insert_into_faces(points_, faces_, idx, affected);
  if (!inserted.ok()) {
    points_.pop_back();
    return inserted.error();
  }
  refresh_from_faces();
  if (affected != nullptr) {
    affected->push_back(idx);
    std::sort(affected->begin(), affected->end());
    affected->erase(std::unique(affected->begin(), affected->end()),
                    affected->end());
  }
  return idx;
}

Status DelaunayTriangulation::rebuild_without(
    std::size_t idx, std::vector<std::size_t>* affected) {
  std::vector<Point2D> pts = points_;
  pts.erase(pts.begin() + static_cast<std::ptrdiff_t>(idx));
  auto rebuilt = build(std::move(pts));
  if (!rebuilt.ok()) return rebuilt.error();
  *this = std::move(rebuilt).value();
  list_every_site(points_.size(), affected);
  return Status::Ok();
}

Status DelaunayTriangulation::remove(std::size_t idx,
                                     std::vector<std::size_t>* affected) {
  if (affected != nullptr) affected->clear();
  if (idx >= points_.size()) {
    return Status(ErrorCode::kInvalidArgument,
                  "DelaunayTriangulation::remove: index out of range");
  }

  // Degenerate or tiny states: adjacency-only representation, rebuild.
  if (!maintainable_ || points_.size() <= 4) {
    return rebuild_without(idx, affected);
  }

  // Hull sites (any ghost face mentions them) change the hull shape;
  // repairing those locally needs the ghost ring rebuilt, which the
  // ear-clipping below does not do, so they are rebuilt.
  for (const Face& f : faces_) {
    if (f.c == kGhostVertex && (f.a == idx || f.b == idx)) {
      return rebuild_without(idx, affected);
    }
  }

  // Interior site: delete the incident faces and re-triangulate the
  // star polygon by Delaunay ear clipping. Collect the link ring in CCW
  // order by chaining the directed opposite edges of incident faces.
  std::map<std::size_t, std::size_t> ring_next;
  for (const Face& f : faces_) {
    if (f.c == kGhostVertex || !(f.a == idx || f.b == idx || f.c == idx)) {
      continue;
    }
    // CCW face (v, a, b): a -> b is the opposite edge, directed CCW
    // around v.
    std::size_t a, b;
    if (f.a == idx) {
      a = f.b;
      b = f.c;
    } else if (f.b == idx) {
      a = f.c;
      b = f.a;
    } else {
      a = f.a;
      b = f.b;
    }
    ring_next[a] = b;
  }
  if (ring_next.size() < 3) return rebuild_without(idx, affected);

  std::vector<std::size_t> ring;
  ring.reserve(ring_next.size());
  std::size_t cur = ring_next.begin()->first;
  for (std::size_t step = 0; step < ring_next.size(); ++step) {
    ring.push_back(cur);
    const auto it = ring_next.find(cur);
    if (it == ring_next.end()) return rebuild_without(idx, affected);
    cur = it->second;
  }
  // The walk must close into a single cycle covering every ring vertex.
  if (cur != ring.front()) return rebuild_without(idx, affected);

  // Ear clipping: repeatedly clip a convex corner whose circumdisk is
  // empty of the remaining ring vertices. The hole filling of a deleted
  // Delaunay vertex has every triangle's circumdisk empty of ALL ring
  // vertices, so a final verification pass against the full ring
  // certifies the result; any failure (degenerate ring) rebuilds.
  const std::vector<std::size_t> full_ring = ring;
  std::vector<Face> ears;
  ears.reserve(ring.size() - 2);
  while (ring.size() > 3) {
    bool clipped = false;
    for (std::size_t i = 0; i < ring.size(); ++i) {
      const std::size_t a = ring[(i + ring.size() - 1) % ring.size()];
      const std::size_t b = ring[i];
      const std::size_t c = ring[(i + 1) % ring.size()];
      if (orient2d(points_[a], points_[b], points_[c]) !=
          Orientation::kCounterClockwise) {
        continue;
      }
      bool empty = true;
      for (const std::size_t r : ring) {
        if (r == a || r == b || r == c) continue;
        if (in_circumcircle(points_[a], points_[b], points_[c], points_[r])) {
          empty = false;
          break;
        }
      }
      if (!empty) continue;
      ears.push_back({a, b, c});
      ring.erase(ring.begin() + static_cast<std::ptrdiff_t>(i));
      clipped = true;
      break;
    }
    if (!clipped) return rebuild_without(idx, affected);
  }
  if (orient2d(points_[ring[0]], points_[ring[1]], points_[ring[2]]) !=
      Orientation::kCounterClockwise) {
    return rebuild_without(idx, affected);
  }
  ears.push_back({ring[0], ring[1], ring[2]});
  for (const Face& e : ears) {
    for (const std::size_t r : full_ring) {
      if (r == e.a || r == e.b || r == e.c) continue;
      if (in_circumcircle(points_[e.a], points_[e.b], points_[e.c],
                          points_[r])) {
        return rebuild_without(idx, affected);
      }
    }
  }

  // Commit: drop the incident faces, add the ears, erase the site and
  // shift the indices above it down by one (ghost markers excluded).
  std::vector<Face> next_faces;
  next_faces.reserve(faces_.size());
  for (const Face& f : faces_) {
    if (f.c != kGhostVertex && (f.a == idx || f.b == idx || f.c == idx)) {
      continue;
    }
    next_faces.push_back(f);
  }
  next_faces.insert(next_faces.end(), ears.begin(), ears.end());
  const auto compact = [idx](std::size_t v) {
    return (v != kGhostVertex && v > idx) ? v - 1 : v;
  };
  for (Face& f : next_faces) {
    f.a = compact(f.a);
    f.b = compact(f.b);
    f.c = compact(f.c);
  }
  faces_ = std::move(next_faces);
  points_.erase(points_.begin() + static_cast<std::ptrdiff_t>(idx));
  refresh_from_faces();

  if (affected != nullptr) {
    *affected = full_ring;
    for (std::size_t& v : *affected) v = compact(v);
    std::sort(affected->begin(), affected->end());
  }
  return Status::Ok();
}

void DelaunayTriangulation::refresh_from_faces() {
  triangles_.clear();
  for (const Face& t : faces_) {
    if (t.c == kGhostVertex) continue;
    triangles_.push_back(Triangle{{t.a, t.b, t.c}});
  }
  build_adjacency();
}

void DelaunayTriangulation::build_adjacency() {
  adjacency_.assign(points_.size(), {});
  for (const Triangle& t : triangles_) {
    for (int i = 0; i < 3; ++i) {
      const std::size_t u = t.v[i];
      const std::size_t v = t.v[(i + 1) % 3];
      adjacency_[u].push_back(v);
      adjacency_[v].push_back(u);
    }
  }
  for (auto& adj : adjacency_) {
    std::sort(adj.begin(), adj.end());
    adj.erase(std::unique(adj.begin(), adj.end()), adj.end());
  }
}

bool DelaunayTriangulation::are_neighbors(std::size_t i, std::size_t j) const {
  const auto& adj = adjacency_[i];
  return std::binary_search(adj.begin(), adj.end(), j);
}

std::size_t DelaunayTriangulation::edge_count() const {
  std::size_t total = 0;
  for (const auto& adj : adjacency_) total += adj.size();
  return total / 2;
}

std::size_t DelaunayTriangulation::nearest_site(const Point2D& p) const {
  std::size_t best = kNoSite;
  for (std::size_t i = 0; i < points_.size(); ++i) {
    if (best == kNoSite || closer_to(p, points_[i], points_[best])) {
      best = i;
    }
  }
  return best;
}

std::size_t DelaunayTriangulation::greedy_next(std::size_t from,
                                               const Point2D& p) const {
  std::size_t best = kNoSite;
  for (std::size_t nb : adjacency_[from]) {
    if (best == kNoSite || closer_to(p, points_[nb], points_[best])) {
      best = nb;
    }
  }
  if (best == kNoSite) return kNoSite;
  // Advance only when strictly better than the current node under the
  // same total order (distance, then position rank).
  if (closer_to(p, points_[best], points_[from])) return best;
  return kNoSite;
}

std::vector<std::size_t> DelaunayTriangulation::greedy_route(
    std::size_t from, const Point2D& p) const {
  std::vector<std::size_t> path{from};
  std::size_t cur = from;
  // The walk strictly decreases distance-to-p, so it must terminate in
  // at most |sites| steps; the bound is a defensive guard.
  for (std::size_t step = 0; step < points_.size(); ++step) {
    const std::size_t nxt = greedy_next(cur, p);
    if (nxt == kNoSite) break;
    path.push_back(nxt);
    cur = nxt;
  }
  return path;
}

}  // namespace gred::geometry
