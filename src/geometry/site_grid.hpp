// Uniform-grid spatial index over a fixed site set for expected-O(1)
// nearest-site queries. The answer agrees exactly with the brute-force
// `nearest_site` scan — same distance metric, same (x, y)-rank
// tie-break, lowest index among coincident sites — so its callers
// replace the O(n) scan without changing a single placement:
// C-regulation's sampling loop (50 × 1,000 queries per set-up), the
// controller's home lookup in placement and in reconcile (one per
// stored copy), and retrieve_nearest_replica.
//
// nearest() first scans one contiguous list: every cell keeps the sites
// of the 3 × 3 block of cells around it, sorted by (x, y, index), and
// geometry's argmin (AVX2 where CPUID reports it) takes that list's
// first minimum. The answer stands when no site outside the block can
// beat it (the argument is beside the code); otherwise the ring search
// answers, growing square rings of cells from the query's cell.
//
// The grid is immutable: a changed site set builds a new grid, one
// counting sort for the ring search and one sort by position for the
// lists, far cheaper than the DT repair of the same join or leave.
#pragma once

#include <cstddef>
#include <vector>

#include "geometry/point.hpp"
#include "geometry/voronoi.hpp"

namespace gred::geometry {

class SiteGrid {
 public:
  SiteGrid() = default;

  /// Indexes `sites` over a grid covering the bounding box of `domain`
  /// and of the sites themselves; queries anywhere in the plane remain
  /// correct (the search expands from the clamped cell).
  SiteGrid(std::vector<Point2D> sites, const Rect& domain);

  std::size_t size() const { return sites_.size(); }
  bool empty() const { return sites_.empty(); }
  const std::vector<Point2D>& sites() const { return sites_; }

  /// Index of the site nearest to `p` under the paper's total order
  /// (squared distance, then lexicographic position, then site index);
  /// kNoSite when the grid is empty.
  std::size_t nearest(const Point2D& p) const;

  /// The k sites nearest to `p`, ascending under the same total order
  /// as nearest() (so nearest_k(p, 1)[0] == nearest(p)). Returns fewer
  /// than k entries only when the grid holds fewer than k sites.
  /// Replica placement uses this to pick fallback homes.
  std::vector<std::size_t> nearest_k(const Point2D& p, std::size_t k) const;

 private:
  std::size_t cell_x(double x) const;
  std::size_t cell_y(double y) const;
  /// nearest() by the ring search from the query's clamped cell.
  std::size_t ring_nearest(const Point2D& p) const;
  /// Considers every site of cell (cx, cy) as a candidate for `p`,
  /// updating `best`/`best_sq`. Skips the cell when its bounding box
  /// is strictly farther than `best_sq`.
  void scan_cell(const Point2D& p, std::size_t cx, std::size_t cy,
                 std::size_t& best, double& best_sq) const;
  /// k-candidate variant: keeps `best` sorted ascending under the
  /// total order, capped at `k` entries; `worst_sq` tracks the squared
  /// distance of best.back() once the list is full.
  void scan_cell_k(const Point2D& p, std::size_t cx, std::size_t cy,
                   std::size_t k, std::vector<std::size_t>& best,
                   double& worst_sq) const;

  std::vector<Point2D> sites_;
  double min_x_ = 0.0;
  double min_y_ = 0.0;
  double cell_w_ = 1.0;
  double cell_h_ = 1.0;
  std::size_t nx_ = 0;
  std::size_t ny_ = 0;
  /// CSR cell layout: cell (cx, cy) holds site indices
  /// cell_items_[cell_start_[cy * nx_ + cx] .. cell_start_[.. + 1]),
  /// ascending, so scan order inside a cell matches the brute force.
  std::vector<std::size_t> cell_start_;
  std::vector<std::size_t> cell_items_;
  /// Neighbourhood lists, CSR over entries: cell c's list is entries
  /// list_start_[c] .. list_start_[c + 1]), k of them, sorted by
  /// (x, y, index). Its x column is list_xy_[2 * list_start_[c] ..)
  /// and its y column follows at + k; list_sites_ names each entry's
  /// site. kArgminBlock zero words end list_xy_.
  std::vector<std::size_t> list_start_;
  std::vector<double> list_xy_;
  std::vector<std::size_t> list_sites_;
};

}  // namespace gred::geometry
