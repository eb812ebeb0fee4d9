// GredProtocol: the data-plane operations of Section V as a library
// API. Every operation builds a packet, injects it at an access switch,
// and reports the route together with the stretch measurement used
// throughout the evaluation. Replication (Section VI) hashes
// "<id>#<copy>" per copy and serves reads from the replica whose home
// is nearest to the access point in the virtual space.
#pragma once

#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/controller.hpp"
#include "core/metrics.hpp"
#include "crypto/data_key.hpp"
#include "sden/network.hpp"

namespace gred::core {

/// Client-side retry policy for retrieve_with_fallback. Backoff is
/// simulated (accumulated in the outcome, never slept): 1 ms before the
/// second attempt, doubling per further attempt, capped at 8 ms.
struct RetryPolicy {
  /// Total route attempts, the first included (>= 1).
  std::size_t max_attempts = 3;
};

/// Report of one placement or retrieval.
struct OpReport {
  sden::RouteResult route;
  topology::SwitchId ingress = 0;
  /// Switch of the server the packet was delivered to.
  topology::SwitchId destination = 0;
  std::size_t selected_hops = 0;
  std::size_t shortest_hops = 0;
  double stretch = 1.0;

  /// Latency view (identical to the hop view on unit-weight links):
  /// cost of the walked path, cost of the weighted shortest path, and
  /// their ratio.
  double selected_cost = 0.0;
  double shortest_cost = 0.0;
  double latency_stretch = 1.0;

  /// True when the ingress switch's hot-key cache answered the
  /// retrieval without routing: route.switch_path is just {ingress},
  /// hops are 0, stretch is 1, and route.delivered_to stays empty
  /// (no server was visited; route.responder names the original
  /// filler). The delay model charges cache_service_ms instead of the
  /// network round trip.
  bool served_from_cache = false;
};

/// What a fallback retrieval did, attempt by attempt.
struct RetrievalOutcome {
  /// Report of the successful attempt (valid only when found).
  OpReport report;
  bool found = false;
  /// Classified status of the last attempt when !found: one of the
  /// retryable routing codes, or kNotFound when routes succeeded but
  /// no replica held the item. Never kInternal for plain misses.
  Status final_status = Status::Ok();
  std::size_t attempts = 0;
  /// Attempts that were re-targeted at a non-primary replica home.
  std::size_t fallbacks = 0;
  /// Simulated client backoff accumulated across retries.
  double backoff_ms = 0.0;
  /// True when a retry/fallback succeeded after the first attempt
  /// failed.
  bool recovered = false;
};

class GredProtocol {
 public:
  /// Both objects must outlive the protocol; the controller must be
  /// initialized against `net`.
  GredProtocol(sden::SdenNetwork& net, const Controller& controller)
      : net_(&net), controller_(&controller) {}

  /// Places `payload` under `data_id`, entering the network at
  /// `ingress` (Section V-A). When the controller has replication
  /// enabled, the primary placement is followed by one placement per
  /// additional replica home, re-targeted at that home's own virtual
  /// position (same data_id — the k-replica scheme, unlike the hashed
  /// "<id>#<c>" scheme of place_replicated). Returns the primary's
  /// report.
  Result<OpReport> place(const std::string& data_id,
                         const std::string& payload,
                         topology::SwitchId ingress);

  /// Retrieves `data_id` (Section V-C). `route.found` tells whether any
  /// delivered server held the data.
  ///
  /// When the network has its hot-key cache enabled, the ingress
  /// switch's cache is consulted first: a hit returns a report with
  /// served_from_cache set (identical payload/found/status by the
  /// coherence rule in sden/hot_key_cache.hpp); a found miss fills the
  /// cache when it is in kLearn mode. Cached retrieve() and
  /// place()/remove() (whose deliveries invalidate cached copies) must
  /// not run concurrently with each other; concurrent cached
  /// retrievals are safe in kServe mode. A load tracker installed on
  /// the network is credited at the serving switch either way.
  Result<OpReport> retrieve(const std::string& data_id,
                            topology::SwitchId ingress);

  /// Invalidates `data_id` (Section V-B's data expiry / migration to
  /// the cloud): routed like a retrieval; the holding server erases the
  /// item. `route.found` tells whether anything was erased.
  Result<OpReport> remove(const std::string& data_id,
                          topology::SwitchId ingress);

  /// Places `copies` replicas: copy c is stored under the hash of
  /// "<data_id>#<c>" (Section VI).
  Result<std::vector<OpReport>> place_replicated(const std::string& data_id,
                                                 const std::string& payload,
                                                 unsigned copies,
                                                 topology::SwitchId ingress);

  /// Reads the replica whose home switch is nearest (in the virtual
  /// space) to the ingress switch among `copies` replicas.
  Result<OpReport> retrieve_nearest_replica(const std::string& data_id,
                                            unsigned copies,
                                            topology::SwitchId ingress);

  /// Fault-tolerant retrieval: tries the primary home first; on a
  /// classified retryable routing failure (kRoutingLoop / kNoRoute /
  /// kLinkDown) or a clean miss, re-targets the request at the item's
  /// next replica home with capped exponential backoff, up to
  /// `policy.max_attempts`. The Result is an error only for caller
  /// mistakes (controller not initialized); a retrieval that exhausts
  /// its attempts returns Ok with found == false and the classified
  /// final_status.
  Result<RetrievalOutcome> retrieve_with_fallback(
      const std::string& data_id, topology::SwitchId ingress,
      const RetryPolicy& policy = {});

  sden::SdenNetwork& network() { return *net_; }
  const Controller& controller() const { return *controller_; }

 private:
  /// retrieve() with `data_id` already hashed: key == DataKey(data_id).
  Result<OpReport> retrieve(const std::string& data_id,
                            const crypto::DataKey& key,
                            topology::SwitchId ingress);
  /// Routes `packet` from `ingress` and fills `report`, which must be
  /// default-constructed or left by an earlier call (every field a
  /// delivered route reports is rewritten). Returns the routing
  /// failure, or Ok.
  Status route_into(sden::Packet& packet, topology::SwitchId ingress,
                    OpReport& report);
  /// route_into over the report held by `out` (which must hold one),
  /// replacing it with the failure when routing fails. Each request
  /// builds one Result in place and returns it by name, so its report
  /// is never copied or moved.
  void run_into(sden::Packet& packet, topology::SwitchId ingress,
                Result<OpReport>& out);

  sden::SdenNetwork* net_;
  const Controller* controller_;
};

}  // namespace gred::core
