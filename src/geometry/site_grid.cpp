#include "geometry/site_grid.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "geometry/argmin.hpp"

namespace gred::geometry {
namespace {

/// True when candidate `i` beats `best` as "nearest to p": the brute
/// force scans indices ascending and replaces only on closer_to, so
/// among coincident sites the lowest index wins. This predicate makes
/// that a total order independent of scan order.
bool better_candidate(const Point2D& p, const std::vector<Point2D>& sites,
                      std::size_t i, std::size_t best) {
  if (best == kNoSite) return true;
  if (closer_to(p, sites[i], sites[best])) return true;
  return sites[i] == sites[best] && i < best;
}

/// Strict total order "i ranks before j as a neighbor of p": distance,
/// then lexicographic position, then site index — the k-candidate
/// generalization of better_candidate.
bool rank_before(const Point2D& p, const std::vector<Point2D>& sites,
                 std::size_t i, std::size_t j) {
  if (closer_to(p, sites[i], sites[j])) return true;
  return sites[i] == sites[j] && i < j;
}

}  // namespace

SiteGrid::SiteGrid(std::vector<Point2D> sites, const Rect& domain)
    : sites_(std::move(sites)) {
  if (sites_.empty()) return;

  double max_x = domain.max_x;
  double max_y = domain.max_y;
  min_x_ = domain.min_x;
  min_y_ = domain.min_y;
  for (const Point2D& s : sites_) {
    min_x_ = std::min(min_x_, s.x);
    min_y_ = std::min(min_y_, s.y);
    max_x = std::max(max_x, s.x);
    max_y = std::max(max_y, s.y);
  }

  // ~1 site per cell: sqrt(n) cells per axis.
  const auto side = static_cast<std::size_t>(
      std::sqrt(static_cast<double>(sites_.size())));
  nx_ = ny_ = std::max<std::size_t>(1, side);
  const double width = max_x - min_x_;
  const double height = max_y - min_y_;
  cell_w_ = width > 0.0 ? width / static_cast<double>(nx_) : 1.0;
  cell_h_ = height > 0.0 ? height / static_cast<double>(ny_) : 1.0;

  // Counting sort of site indices by cell, ascending within each cell.
  std::vector<std::size_t> cell_of(sites_.size());
  std::vector<std::size_t> counts(nx_ * ny_ + 1, 0);
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    cell_of[i] = cell_y(sites_[i].y) * nx_ + cell_x(sites_[i].x);
    ++counts[cell_of[i] + 1];
  }
  for (std::size_t c = 1; c < counts.size(); ++c) counts[c] += counts[c - 1];
  cell_start_ = counts;
  cell_items_.resize(sites_.size());
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    cell_items_[counts[cell_of[i]]++] = i;
  }

  // Neighbourhood lists. Each site joins the list of every cell whose
  // 3 x 3 block holds its cell, i.e. the lists of the cells around its
  // own. Appending the sites in (x, y, index) order leaves every list
  // sorted that way.
  std::vector<std::size_t> order(sites_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const Point2D& pa = sites_[a];
    const Point2D& pb = sites_[b];
    if (pa.x != pb.x) return pa.x < pb.x;
    if (pa.y != pb.y) return pa.y < pb.y;
    return a < b;
  });
  const auto for_block = [&](std::size_t cell, auto&& fn) {
    const std::size_t cx = cell % nx_;
    const std::size_t cy = cell / nx_;
    for (std::size_t y = cy == 0 ? 0 : cy - 1; y <= cy + 1 && y < ny_; ++y) {
      for (std::size_t x = cx == 0 ? 0 : cx - 1; x <= cx + 1 && x < nx_;
           ++x) {
        fn(y * nx_ + x);
      }
    }
  };
  list_start_.assign(nx_ * ny_ + 1, 0);
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    for_block(cell_of[i], [&](std::size_t c) { ++list_start_[c + 1]; });
  }
  for (std::size_t c = 1; c < list_start_.size(); ++c) {
    list_start_[c] += list_start_[c - 1];
  }
  const std::size_t entries = list_start_.back();
  list_sites_.resize(entries);
  list_xy_.assign(2 * entries + kArgminBlock, 0.0);
  std::vector<std::size_t> filled(nx_ * ny_, 0);
  for (const std::size_t i : order) {
    for_block(cell_of[i], [&](std::size_t c) {
      const std::size_t lo = list_start_[c];
      const std::size_t k = list_start_[c + 1] - lo;
      const std::size_t at = filled[c]++;
      list_xy_[2 * lo + at] = sites_[i].x;
      list_xy_[2 * lo + k + at] = sites_[i].y;
      list_sites_[lo + at] = i;
    });
  }
}

std::size_t SiteGrid::cell_x(double x) const {
  const double f = (x - min_x_) / cell_w_;
  if (f <= 0.0) return 0;
  const auto c = static_cast<std::size_t>(f);
  return std::min(c, nx_ - 1);
}

std::size_t SiteGrid::cell_y(double y) const {
  const double f = (y - min_y_) / cell_h_;
  if (f <= 0.0) return 0;
  const auto c = static_cast<std::size_t>(f);
  return std::min(c, ny_ - 1);
}

void SiteGrid::scan_cell(const Point2D& p, std::size_t cx, std::size_t cy,
                         std::size_t& best, double& best_sq) const {
  const std::size_t cell = cy * nx_ + cx;
  const std::size_t lo = cell_start_[cell];
  const std::size_t hi = cell_start_[cell + 1];
  if (lo == hi) return;

  if (best != kNoSite) {
    // Distance from p to the cell's bounding box; skip only when
    // strictly farther (a tie could still win by the lex rank).
    const double bx0 = min_x_ + static_cast<double>(cx) * cell_w_;
    const double by0 = min_y_ + static_cast<double>(cy) * cell_h_;
    const double dx = std::max({bx0 - p.x, 0.0, p.x - (bx0 + cell_w_)});
    const double dy = std::max({by0 - p.y, 0.0, p.y - (by0 + cell_h_)});
    // Slack absorbs the rounding of the bbox corners, so a site one ulp
    // outside its nominal cell can still tie-break its way in.
    if (dx * dx + dy * dy > best_sq + 1e-12 * (1.0 + best_sq)) return;
  }
  for (std::size_t k = lo; k < hi; ++k) {
    const std::size_t i = cell_items_[k];
    if (better_candidate(p, sites_, i, best)) {
      best = i;
      best_sq = squared_distance(p, sites_[i]);
    }
  }
}

void SiteGrid::scan_cell_k(const Point2D& p, std::size_t cx, std::size_t cy,
                           std::size_t k, std::vector<std::size_t>& best,
                           double& worst_sq) const {
  const std::size_t cell = cy * nx_ + cx;
  const std::size_t lo = cell_start_[cell];
  const std::size_t hi = cell_start_[cell + 1];
  if (lo == hi) return;

  if (best.size() == k) {
    const double bx0 = min_x_ + static_cast<double>(cx) * cell_w_;
    const double by0 = min_y_ + static_cast<double>(cy) * cell_h_;
    const double dx = std::max({bx0 - p.x, 0.0, p.x - (bx0 + cell_w_)});
    const double dy = std::max({by0 - p.y, 0.0, p.y - (by0 + cell_h_)});
    if (dx * dx + dy * dy > worst_sq + 1e-12 * (1.0 + worst_sq)) return;
  }
  for (std::size_t idx = lo; idx < hi; ++idx) {
    const std::size_t i = cell_items_[idx];
    if (best.size() == k && !rank_before(p, sites_, i, best.back())) {
      continue;
    }
    // Sorted insert (k is tiny — replica factors of 2-4).
    auto pos = best.begin();
    while (pos != best.end() && rank_before(p, sites_, *pos, i)) ++pos;
    best.insert(pos, i);
    if (best.size() > k) best.pop_back();
    if (best.size() == k) {
      worst_sq = squared_distance(p, sites_[best.back()]);
    }
  }
}

std::vector<std::size_t> SiteGrid::nearest_k(const Point2D& p,
                                             std::size_t k) const {
  std::vector<std::size_t> best;
  if (sites_.empty() || k == 0) return best;
  k = std::min(k, sites_.size());
  best.reserve(k + 1);

  const auto ix = static_cast<std::ptrdiff_t>(cell_x(p.x));
  const auto iy = static_cast<std::ptrdiff_t>(cell_y(p.y));
  const auto snx = static_cast<std::ptrdiff_t>(nx_);
  const auto sny = static_cast<std::ptrdiff_t>(ny_);
  const std::ptrdiff_t max_ring =
      std::max(std::max(ix, snx - 1 - ix), std::max(iy, sny - 1 - iy));
  const double min_cell = std::min(cell_w_, cell_h_);

  double worst_sq = 0.0;
  for (std::ptrdiff_t r = 0; r <= max_ring; ++r) {
    if (best.size() == k && r >= 1) {
      // Same ring cutoff as nearest(), against the k-th best distance.
      const double gap = static_cast<double>(r - 1) * min_cell;
      if (gap * gap > worst_sq) break;
    }
    const auto in_x = [&](std::ptrdiff_t x) { return x >= 0 && x < snx; };
    const auto in_y = [&](std::ptrdiff_t y) { return y >= 0 && y < sny; };
    if (r == 0) {
      scan_cell_k(p, static_cast<std::size_t>(ix),
                  static_cast<std::size_t>(iy), k, best, worst_sq);
      continue;
    }
    for (std::ptrdiff_t x = ix - r; x <= ix + r; ++x) {
      if (!in_x(x)) continue;
      for (std::ptrdiff_t y : {iy - r, iy + r}) {
        if (in_y(y)) {
          scan_cell_k(p, static_cast<std::size_t>(x),
                      static_cast<std::size_t>(y), k, best, worst_sq);
        }
      }
    }
    for (std::ptrdiff_t y = iy - r + 1; y <= iy + r - 1; ++y) {
      if (!in_y(y)) continue;
      for (std::ptrdiff_t x : {ix - r, ix + r}) {
        if (in_x(x)) {
          scan_cell_k(p, static_cast<std::size_t>(x),
                      static_cast<std::size_t>(y), k, best, worst_sq);
        }
      }
    }
  }
  return best;
}

std::size_t SiteGrid::nearest(const Point2D& p) const {
  if (sites_.empty()) return kNoSite;

  // One scan of the list of p's clamped cell (ix, iy): the sites of the
  // block of cells ix-1..ix+1 x iy-1..iy+1 that lie in the grid. The
  // list is sorted by (x, y, index) and the argmin keeps the first
  // minimum, so among the block's sites it returns exactly the brute
  // force's winner: the smallest squared distance, then the smallest
  // (x, y) (closer_to), then the lowest index among coincident sites.
  // The argmin rounds dx*dx + dy*dy as squared_distance does.
  const std::size_t ix = cell_x(p.x);
  const std::size_t iy = cell_y(p.y);
  const std::size_t cell = iy * nx_ + ix;
  const std::size_t lo = list_start_[cell];
  const std::size_t k = list_start_[cell + 1] - lo;
  const double* const xs = list_xy_.data() + 2 * lo;
  const Argmin best = kAvx2Argmin ? argmin_avx2(xs, xs + k, k, p.x, p.y)
                                  : argmin_scalar(xs, xs + k, k, p.x, p.y);

  // That answer is the global one when every site outside the block is
  // strictly farther. A site outside lies in a cell at least two
  // columns or two rows from (ix, iy), so beyond one of the block's
  // borders, and it can be there only on a side where the grid
  // continues (every site lies in the grid). Its distance from p is
  // then at least p's distance to that border, `gap` below; a side
  // with no cells beyond it bounds nothing. (p may lie outside its
  // clamped cell; a border on p's wrong side gives a gap <= 0, and the
  // ring search answers.)
  //
  // Rounding: a site's cell is fl(fl(x - min_x) / cell_w) and a border
  // is fl(min_x + fl(c * cell_w)), so a site in a cell beyond a border
  // may lie a few ulps of M, the grid's largest coordinate magnitude,
  // on the border's near side, and every computed distance carries a
  // few ulps of relative error. Accepting only when
  // d2 + 1e-12 * (1 + d2) < gap^2 (the ring search's cell-skip slack)
  // leaves every outside site's computed squared distance strictly
  // above d2 while M stays below a few hundred; the virtual space is
  // the unit square. Near-ties at a border go to the ring search, and
  // so does a list without a finite distance (index == k: empty, or
  // every squared distance overflowing).
  if (best.index < k) {
    // Left edge of column c, bottom edge of row c.
    const auto col = [&](std::size_t c) {
      return min_x_ + static_cast<double>(c) * cell_w_;
    };
    const auto row = [&](std::size_t c) {
      return min_y_ + static_cast<double>(c) * cell_h_;
    };
    double gap = std::numeric_limits<double>::infinity();
    if (ix >= 2) gap = std::min(gap, p.x - col(ix - 1));
    if (ix + 2 < nx_) gap = std::min(gap, col(ix + 2) - p.x);
    if (iy >= 2) gap = std::min(gap, p.y - row(iy - 1));
    if (iy + 2 < ny_) gap = std::min(gap, row(iy + 2) - p.y);
    if (gap > 0.0 && best.d2 + 1e-12 * (1.0 + best.d2) < gap * gap) {
      return list_sites_[lo + best.index];
    }
  }
  return ring_nearest(p);
}

std::size_t SiteGrid::ring_nearest(const Point2D& p) const {
  const auto ix = static_cast<std::ptrdiff_t>(cell_x(p.x));
  const auto iy = static_cast<std::ptrdiff_t>(cell_y(p.y));
  const auto snx = static_cast<std::ptrdiff_t>(nx_);
  const auto sny = static_cast<std::ptrdiff_t>(ny_);
  // Chebyshev radius that covers the whole grid from (ix, iy).
  const std::ptrdiff_t max_ring =
      std::max(std::max(ix, snx - 1 - ix), std::max(iy, sny - 1 - iy));
  const double min_cell = std::min(cell_w_, cell_h_);

  std::size_t best = kNoSite;
  double best_sq = 0.0;
  for (std::ptrdiff_t r = 0; r <= max_ring; ++r) {
    if (best != kNoSite && r >= 1) {
      // Any cell at ring r is at least (r - 1) whole cells away from
      // the clamped query cell along some axis; strictly farther
      // candidates cannot win even on the tie-break.
      const double gap = static_cast<double>(r - 1) * min_cell;
      if (gap * gap > best_sq) break;
    }
    const auto in_x = [&](std::ptrdiff_t x) { return x >= 0 && x < snx; };
    const auto in_y = [&](std::ptrdiff_t y) { return y >= 0 && y < sny; };
    if (r == 0) {
      scan_cell(p, static_cast<std::size_t>(ix), static_cast<std::size_t>(iy),
                best, best_sq);
      continue;
    }
    for (std::ptrdiff_t x = ix - r; x <= ix + r; ++x) {
      if (!in_x(x)) continue;
      for (std::ptrdiff_t y : {iy - r, iy + r}) {
        if (in_y(y)) {
          scan_cell(p, static_cast<std::size_t>(x),
                    static_cast<std::size_t>(y), best, best_sq);
        }
      }
    }
    for (std::ptrdiff_t y = iy - r + 1; y <= iy + r - 1; ++y) {
      if (!in_y(y)) continue;
      for (std::ptrdiff_t x : {ix - r, ix + r}) {
        if (in_x(x)) {
          scan_cell(p, static_cast<std::size_t>(x),
                    static_cast<std::size_t>(y), best, best_sq);
        }
      }
    }
  }
  return best;
}

}  // namespace gred::geometry
