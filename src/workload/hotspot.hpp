// Skewed + spatially-localized retrieval workload (ROADMAP "Hotspot
// traffic"). Real edge demand is Zipfian over keys with spatial
// locality: a few hot objects dominate, the hot set clusters in one
// geographic region, and the busy region drifts over the day. The
// generator models all three on top of the existing trace machinery:
//
//   * Popularity: a Zipf(α) rank distribution over the identifier
//     universe (α = 0 degenerates to uniform).
//   * Affinity: the unit square is cut into a G×G grid of regions;
//     every identifier belongs to the region its hashed virtual
//     position falls in, and global popularity ranks are assigned
//     region-by-region, so the globally hottest keys cluster
//     spatially instead of spreading uniformly.
//   * Diurnal shift: one region is "active" at a time and receives a
//     `locality` fraction of the traffic (sampled by an in-region
//     Zipf); the active region rotates every `diurnal_period_ms` of
//     event time.
//
// Ingress switches are localized the same way: with probability
// `ingress_locality` a retrieval enters at a switch embedded in the
// key's own region (users near the data ask for it), otherwise at a
// uniformly random switch.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "geometry/point.hpp"
#include "workload/generators.hpp"
#include "workload/zipf.hpp"

namespace gred::workload {

/// One operation of a generated trace.
struct Op {
  enum class Kind { kPlace, kRetrieve };
  Kind kind = Kind::kPlace;
  std::string data_id;
  std::size_t access_switch = 0;  ///< ingress, in [0, switches)
  double at_ms = 0.0;             ///< injection time
};

struct HotspotOptions {
  std::size_t universe = 1000;      ///< distinct data identifiers
  std::string prefix = "hot";
  std::size_t grid = 4;             ///< G: regions are a G×G grid
  double zipf_exponent = 1.0;       ///< α for global and in-region ranks
  double locality = 0.7;            ///< P(op targets the active region)
  double ingress_locality = 0.7;    ///< P(ingress in the key's region)
  double diurnal_period_ms = 5000;  ///< active-region rotation period
  double mean_interarrival_ms = 1.0;
};

/// Deterministic hotspot workload over a fixed identifier universe and
/// a fixed set of switch virtual positions (index = switch id).
class HotspotWorkload {
 public:
  HotspotWorkload(HotspotOptions options,
                  std::vector<geometry::Point2D> switch_positions);

  const std::vector<std::string>& ids() const { return ids_; }
  const HotspotOptions& options() const { return options_; }

  /// Total regions (G×G); some may hold no keys.
  std::size_t region_count() const {
    return options_.grid * options_.grid;
  }
  /// Regions that actually hold at least one key.
  std::size_t occupied_region_count() const { return occupied_.size(); }

  /// Region index of a virtual-space point.
  std::size_t region_of(const geometry::Point2D& p) const;
  /// Region the k-th identifier's hashed position falls in.
  std::size_t key_region(std::size_t k) const { return key_region_[k]; }
  /// The hot region at event time `at_ms` (rotates over occupied
  /// regions every diurnal_period_ms).
  std::size_t active_region(double at_ms) const;

  /// Stationary demand share of each region (indexed by region, sums
  /// to 1 over occupied regions): the diurnal rotation's time average
  /// of the locality mass plus the region's share of the global Zipf
  /// mass. Feed this into VirtualSpaceOptions::cvt_density so
  /// C-regulation equalizes expected demand instead of area.
  std::vector<double> region_demand() const;

  /// Samples an identifier index for a retrieval at `at_ms`.
  std::size_t sample_key(double at_ms, Rng& rng) const;
  /// Samples an ingress switch for a retrieval of identifier `key`.
  std::size_t sample_ingress(std::size_t key, Rng& rng) const;

  /// `ops` retrievals with Poisson arrivals: key by popularity at the
  /// arrival time, ingress localized to the key's region. The caller
  /// places ids() beforehand.
  std::vector<Op> retrieval_trace(std::size_t ops, Rng& rng) const;

 private:
  HotspotOptions options_;
  std::vector<geometry::Point2D> switch_positions_;
  std::vector<std::string> ids_;
  std::vector<std::size_t> key_region_;   ///< per key: its region
  std::vector<std::size_t> rank_to_key_;  ///< global rank -> key index
  /// Occupied regions in rotation order; parallel to region_keys_ /
  /// region_zipf_.
  std::vector<std::size_t> occupied_;
  std::vector<std::vector<std::size_t>> region_keys_;
  std::vector<ZipfSampler> region_zipf_;
  /// occupied index of each region, kNoRegion when empty.
  std::vector<std::size_t> region_slot_;
  std::vector<std::vector<std::size_t>> region_switches_;
  ZipfSampler global_zipf_;

  static constexpr std::size_t kNoRegion = static_cast<std::size_t>(-1);
};

}  // namespace gred::workload
