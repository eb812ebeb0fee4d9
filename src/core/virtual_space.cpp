#include "core/virtual_space.hpp"

#include <algorithm>
#include <cmath>

#include "check/invariants.hpp"
#include "core/vivaldi.hpp"
#include "linalg/mds.hpp"
#include "obs/phase_timer.hpp"

namespace gred::core {
namespace {

using geometry::Point2D;

/// Deterministically separates exactly coincident embedded points
/// (possible for graphs with strong symmetry, or joins at one position)
/// so the DT has distinct sites. The nudge is far below one hop of
/// embedded distance and points toward the square's centre, so a site
/// on the boundary stays inside [0,1]^2.
void separate_duplicates(std::vector<Point2D>& pts) {
  const auto inward = [](double v) { return v < 0.5 ? 1.0 : -1.0; };
  bool moved = true;
  double eps = 1e-9;
  while (moved) {
    moved = false;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      for (std::size_t j = i + 1; j < pts.size(); ++j) {
        if (pts[i] == pts[j]) {
          pts[j].x += inward(pts[j].x) * eps * static_cast<double>(j + 1);
          pts[j].y += inward(pts[j].y) * eps * static_cast<double>(i + 1);
          moved = true;
        }
      }
    }
    eps *= 2.0;
  }
}

}  // namespace

Result<VirtualSpace> VirtualSpace::build(
    const std::vector<topology::SwitchId>& participants,
    const graph::ApspResult& apsp, const VirtualSpaceOptions& options) {
  if (participants.empty()) {
    return Error(ErrorCode::kInvalidArgument,
                 "VirtualSpace: no DT participants");
  }
  if (options.margin < 0.0 || options.margin >= 0.5) {
    return Error(ErrorCode::kInvalidArgument,
                 "VirtualSpace: margin must be in [0, 0.5)");
  }

  VirtualSpace vs;
  vs.participants_ = participants;
  const std::size_t n = participants.size();

  {
    const obs::ScopedPhaseTimer embed_timer("mds_embed");
  // Tiny networks: MDS needs m < n; place directly.
  if (n == 1) {
    vs.positions_ = {{0.5, 0.5}};
  } else if (n <= 3) {
    static const Point2D kTiny[3] = {{0.25, 0.35}, {0.75, 0.35}, {0.5, 0.75}};
    vs.positions_.assign(kTiny, kTiny + n);
    if (apsp.dist(participants[0], participants[1]) == graph::kUnreachable) {
      return Error(ErrorCode::kFailedPrecondition,
                   "VirtualSpace: participants are disconnected");
    }
  } else {
    // Distance sub-matrix of the participants (hop counts, or latency
    // costs under weighted_embedding — apsp is chosen by the caller).
    linalg::Matrix dist(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        const double d = apsp.dist(participants[i], participants[j]);
        if (d == graph::kUnreachable) {
          return Error(ErrorCode::kFailedPrecondition,
                       "VirtualSpace: participants are disconnected");
        }
        dist(i, j) = d;
      }
    }

    // Raw embedding: M-position (classical MDS) or Vivaldi.
    std::vector<Point2D> raw(n);
    if (options.embedding == EmbeddingAlgorithm::kMPosition) {
      auto mds = linalg::classical_mds(dist, 2);
      if (!mds.ok()) return mds.error();
      vs.stress_ = mds.value().stress;
      for (std::size_t i = 0; i < n; ++i) {
        raw[i] = {mds.value().coordinates(i, 0),
                  mds.value().coordinates(i, 1)};
      }
    } else {
      VivaldiOptions vopt;
      vopt.seed = options.seed ^ 0x5649u;
      auto viv = vivaldi_embedding(dist, vopt);
      if (!viv.ok()) return viv.error();
      vs.stress_ = viv.value().stress;
      raw = std::move(viv).value().coordinates;
    }

    // Normalize into the unit square, uniform scale, centered.
    double min_x = raw[0].x, max_x = raw[0].x;
    double min_y = raw[0].y, max_y = raw[0].y;
    for (const Point2D& p : raw) {
      min_x = std::min(min_x, p.x);
      max_x = std::max(max_x, p.x);
      min_y = std::min(min_y, p.y);
      max_y = std::max(max_y, p.y);
    }
    const double extent = std::max(max_x - min_x, max_y - min_y);
    const double usable = 1.0 - 2.0 * options.margin;
    const double scale = extent > 0.0 ? usable / extent : 1.0;
    const double cx = 0.5 * (min_x + max_x);
    const double cy = 0.5 * (min_y + max_y);
    vs.positions_.reserve(n);
    for (const Point2D& p : raw) {
      vs.positions_.push_back(
          {0.5 + (p.x - cx) * scale, 0.5 + (p.y - cy) * scale});
    }
  }

  separate_duplicates(vs.positions_);
  }  // embed_timer: the raw-embedding phase ends before C-regulation

  // C-regulation (skipped for the NoCVT variant).
  if (options.cvt_iterations > 0 && n > 1) {
    const obs::ScopedPhaseTimer cvt_timer("cvt");
    geometry::CvtOptions cvt;
    cvt.samples_per_iteration = options.cvt_samples;
    cvt.max_iterations = options.cvt_iterations;
    cvt.domain = geometry::Rect{0.0, 0.0, 1.0, 1.0};
    cvt.density = options.cvt_density;
    cvt.density_bound = options.cvt_density_bound;
    Rng rng(options.seed);
    vs.positions_ =
        geometry::c_regulation(std::move(vs.positions_), cvt, rng).sites;
    separate_duplicates(vs.positions_);
  }

  vs.rebuild_grid();
  return vs;
}

Result<VirtualSpace> VirtualSpace::from_positions(
    std::vector<topology::SwitchId> participants,
    std::vector<geometry::Point2D> positions, const graph::ApspResult& apsp) {
  if (participants.empty() || participants.size() != positions.size()) {
    return Error(ErrorCode::kInvalidArgument,
                 "from_positions: participants/positions size mismatch");
  }
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const Point2D& p = positions[i];
    if (p.x < 0.0 || p.x > 1.0 || p.y < 0.0 || p.y > 1.0) {
      return Error(ErrorCode::kInvalidArgument,
                   "from_positions: position outside the unit square: " +
                       p.to_string());
    }
    for (std::size_t j = i + 1; j < positions.size(); ++j) {
      if (positions[i] == positions[j]) {
        return Error(ErrorCode::kInvalidArgument,
                     "from_positions: duplicate position " + p.to_string());
      }
    }
  }

  // Reachability is symmetric, so one row decides connectivity.
  for (const topology::SwitchId p : participants) {
    if (apsp.dist(participants.front(), p) == graph::kUnreachable) {
      return Error(ErrorCode::kFailedPrecondition,
                   "from_positions: participants are disconnected");
    }
  }

  VirtualSpace vs;
  vs.participants_ = std::move(participants);
  vs.positions_ = std::move(positions);
  vs.rebuild_grid();
  return vs;
}

std::size_t VirtualSpace::index_of(topology::SwitchId sw) const {
  for (std::size_t i = 0; i < participants_.size(); ++i) {
    if (participants_[i] == sw) return i;
  }
  return kNoIndex;
}

topology::SwitchId VirtualSpace::nearest_participant(
    const geometry::Point2D& p) const {
  return participants_[grid_.nearest(p)];
}

std::vector<topology::SwitchId> VirtualSpace::nearest_participants(
    const geometry::Point2D& p, std::size_t k) const {
  std::vector<topology::SwitchId> out;
  for (const std::size_t idx : grid_.nearest_k(p, k)) {
    out.push_back(participants_[idx]);
  }
  return out;
}

void VirtualSpace::rebuild_grid() {
  grid_ = geometry::SiteGrid(positions_, geometry::Rect{0.0, 0.0, 1.0, 1.0});
  // Every packet's home-switch lookup goes through the grid, so each
  // rebuild re-proves (in Debug / GRED_CHECKED builds) that it agrees
  // with the brute-force nearest-site scan on sampled probes.
  GRED_CHECK(check::validate_virtual_space(
      positions_,
      [this](const geometry::Point2D& p) { return grid_.nearest(p); }));
}

void VirtualSpace::add_participant(topology::SwitchId sw,
                                   const geometry::Point2D& p) {
  participants_.push_back(sw);
  positions_.push_back(p);
  // Only a position collision needs the (quadratic) separation pass.
  if (std::find(positions_.begin(), positions_.end() - 1, p) !=
      positions_.end() - 1) {
    separate_duplicates(positions_);
  }
  rebuild_grid();
}

void VirtualSpace::remove_participant(topology::SwitchId sw) {
  const std::size_t idx = index_of(sw);
  if (idx == kNoIndex) return;
  participants_.erase(participants_.begin() +
                      static_cast<std::ptrdiff_t>(idx));
  positions_.erase(positions_.begin() + static_cast<std::ptrdiff_t>(idx));
  rebuild_grid();
}

}  // namespace gred::core
