#include "core/protocol.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/switch_load.hpp"
#include "sden/route_errors.hpp"

namespace gred::core {
namespace {

/// retrieve_with_fallback's simulated client backoff: charged before
/// the second attempt, multiplied per further attempt, capped (ms).
constexpr double kBackoffMs = 1.0;
constexpr double kBackoffMultiplier = 2.0;
constexpr double kBackoffCapMs = 8.0;

// `key` must be DataKey(data_id): callers hash each identifier once and
// build every packet of the request from that key.
sden::Packet make_packet(sden::PacketType type, const std::string& data_id,
                         const crypto::DataKey& key, std::string payload) {
  sden::Packet pkt;
  pkt.type = type;
  pkt.data_id = data_id;
  const crypto::SpacePoint pos = key.position();
  pkt.target = {pos.x, pos.y};
  // Cache H(d) so the terminal switch's H(d) mod s server choice does
  // not hash the identifier a second time.
  pkt.set_key(key);
  pkt.payload = std::move(payload);
  return pkt;
}

}  // namespace

Status GredProtocol::route_into(sden::Packet& packet,
                                topology::SwitchId ingress,
                                OpReport& report) {
  if (!controller_->initialized()) {
    return Status(ErrorCode::kFailedPrecondition,
                  "GredProtocol: controller not initialized");
  }
  report.ingress = ingress;
  net_->route(packet, ingress, report.route);
  if (!report.route.status.ok()) return report.route.status;
  if (report.route.delivered_to.empty()) {
    return Status(ErrorCode::kInternal, "packet was not delivered");
  }
  report.destination =
      net_->server(report.route.delivered_to.front()).info().attached_to;
  report.selected_hops = report.route.hop_count();
  const std::size_t shortest =
      controller_->apsp().hop_count(ingress, report.destination);
  report.shortest_hops =
      shortest == graph::kNoPath ? 0 : shortest;
  report.stretch = routing_stretch(report.selected_hops,
                                   report.shortest_hops);

  report.selected_cost = report.route.path_cost;
  const double wdist =
      controller_->apsp_latency().dist(ingress, report.destination);
  report.shortest_cost = wdist == graph::kUnreachable ? 0.0 : wdist;
  if (report.shortest_cost > 0.0) {
    report.latency_stretch = report.selected_cost / report.shortest_cost;
  } else {
    report.latency_stretch = report.selected_cost == 0.0
                                 ? 1.0
                                 : report.selected_cost;
  }
  return Status::Ok();
}

void GredProtocol::run_into(sden::Packet& packet, topology::SwitchId ingress,
                            Result<OpReport>& out) {
  Status routed = route_into(packet, ingress, out.value());
  // The status is a copy, so replacing the report that held it is safe.
  if (!routed.ok()) out = routed.error();
}

Result<OpReport> GredProtocol::place(const std::string& data_id,
                                     const std::string& payload,
                                     topology::SwitchId ingress) {
  const crypto::DataKey key(data_id);
  Result<OpReport> primary(std::in_place);
  sden::Packet pkt =
      make_packet(sden::PacketType::kPlacement, data_id, key, payload);
  run_into(pkt, ingress, primary);
  if (!primary.ok()) return primary;
  if (controller_->replication_factor() > 1) {
    // k-replica placement: each additional copy keeps the same data_id
    // but re-targets the packet at the replica home's own virtual
    // position, so greedy routing delivers it there and H(d) mod s
    // picks that home's server.
    const std::vector<topology::SwitchId> homes =
        controller_->replica_homes(key);
    for (std::size_t c = 1; c < homes.size(); ++c) {
      sden::Packet copy_pkt =
          make_packet(sden::PacketType::kPlacement, data_id, key, payload);
      copy_pkt.target = net_->const_switch_at(homes[c]).position();
      OpReport copy;
      Status routed = route_into(copy_pkt, ingress, copy);
      if (!routed.ok()) {
        primary = routed.error();
        return primary;
      }
    }
  }
  return primary;
}

Result<OpReport> GredProtocol::retrieve(const std::string& data_id,
                                        topology::SwitchId ingress) {
  return retrieve(data_id, crypto::DataKey(data_id), ingress);
}

Result<OpReport> GredProtocol::retrieve(const std::string& data_id,
                                        const crypto::DataKey& key,
                                        topology::SwitchId ingress) {
  // One report per request, filled in place and returned by name.
  Result<OpReport> out(std::in_place);
  const crypto::Digest& digest = key.digest();
  sden::HotKeyCache* cache = net_->hot_key_cache();
  obs::SwitchLoadTracker* loads = net_->load_tracker();
  if (cache != nullptr && cache->enabled()) {
    if (!controller_->initialized()) {
      out = Error(ErrorCode::kFailedPrecondition,
                  "GredProtocol: controller not initialized");
      return out;
    }
    if (const sden::HotKeyCache::Entry* hit = cache->probe(ingress, digest)) {
      // Served at the ingress: no routing, no server visit. The report
      // mirrors a zero-hop retrieval (stretch 1 by definition);
      // delivered_to stays empty because no delivery happened.
      OpReport& report = out.value();
      report.ingress = ingress;
      report.destination = ingress;
      report.served_from_cache = true;
      report.route.switch_path.push_back(ingress);
      report.route.found = true;
      report.route.responder = hit->responder;
      report.route.payload = hit->payload;
      if (loads != nullptr) loads->record(ingress);
      return out;
    }
  }
  sden::Packet pkt =
      make_packet(sden::PacketType::kRetrieval, data_id, key, {});
  run_into(pkt, ingress, out);
  if (out.ok()) {
    const OpReport& rep = out.value();
    if (rep.route.found && cache != nullptr && cache->enabled() &&
        cache->mode() == sden::HotKeyCache::Mode::kLearn) {
      cache->insert(ingress, digest, rep.route.payload, rep.destination,
                    rep.route.responder);
    }
    // Load lands on the switch whose server answered, which is where
    // hotspot pressure concentrates (a cache hit above lands on the
    // ingress instead).
    if (loads != nullptr) loads->record(rep.destination);
  }
  return out;
}

Result<OpReport> GredProtocol::remove(const std::string& data_id,
                                      topology::SwitchId ingress) {
  Result<OpReport> out(std::in_place);
  sden::Packet pkt = make_packet(sden::PacketType::kRemoval, data_id,
                                 crypto::DataKey(data_id), {});
  run_into(pkt, ingress, out);
  return out;
}

Result<std::vector<OpReport>> GredProtocol::place_replicated(
    const std::string& data_id, const std::string& payload, unsigned copies,
    topology::SwitchId ingress) {
  if (copies == 0) {
    return Error(ErrorCode::kInvalidArgument,
                 "place_replicated: copies must be >= 1");
  }
  std::vector<OpReport> reports;
  reports.reserve(copies);
  for (unsigned c = 0; c < copies; ++c) {
    auto r = place(crypto::replica_identifier(data_id, c), payload, ingress);
    if (!r.ok()) return r.error();
    reports.push_back(std::move(r).value());
  }
  return reports;
}

Result<OpReport> GredProtocol::retrieve_nearest_replica(
    const std::string& data_id, unsigned copies,
    topology::SwitchId ingress) {
  if (copies == 0) {
    return Error(ErrorCode::kInvalidArgument,
                 "retrieve_nearest_replica: copies must be >= 1");
  }
  // Const view: plain reads must not count as network changes.
  const sden::SdenNetwork& net = *net_;
  if (ingress >= net.switch_count()) {
    return sden::route_errors::bad_ingress().error();
  }
  if (!net.switch_at(ingress).dt_participant()) {
    return Error(ErrorCode::kFailedPrecondition,
                 "retrieve_nearest_replica: ingress is not a DT "
                 "participant (no virtual position)");
  }
  const geometry::Point2D access = net.switch_at(ingress).position();

  // Section VI: distances in the virtual space identify the closest
  // copy, since network distance is embedded in the positions.
  std::string best_id;
  crypto::DataKey best_key{crypto::Digest{}};
  double best_dist = 0.0;
  for (unsigned c = 0; c < copies; ++c) {
    std::string id = crypto::replica_identifier(data_id, c);
    const crypto::DataKey key(id);
    const crypto::SpacePoint pos = key.position();
    const topology::SwitchId home =
        controller_->home_switch({pos.x, pos.y});
    const double d = geometry::distance(
        access, net.switch_at(home).position());
    if (c == 0 || d < best_dist) {
      best_id = std::move(id);
      best_key = key;
      best_dist = d;
    }
  }
  return retrieve(best_id, best_key, ingress);
}

Result<RetrievalOutcome> GredProtocol::retrieve_with_fallback(
    const std::string& data_id, topology::SwitchId ingress,
    const RetryPolicy& policy) {
  // The outcome, and the report inside it, are filled in place: every
  // attempt routes into out.report, and the Result is returned by name.
  Result<RetrievalOutcome> result(std::in_place);
  if (!controller_->initialized()) {
    result = Error(ErrorCode::kFailedPrecondition,
                   "GredProtocol: controller not initialized");
    return result;
  }
  if (policy.max_attempts < 1) {
    result = Error(ErrorCode::kInvalidArgument,
                   "retrieve_with_fallback: max_attempts must be >= 1");
    return result;
  }

  const crypto::DataKey key(data_id);
  // Attempt i targets homes[i mod k]: primary first, then the next
  // replica homes in virtual-space order, wrapping around.
  const std::vector<topology::SwitchId> homes =
      controller_->replica_homes(key);

  RetrievalOutcome& out = result.value();
  double backoff = kBackoffMs;
  Status last = Status::Ok();
  for (std::size_t attempt = 0; attempt < policy.max_attempts; ++attempt) {
    if (attempt > 0) {
      // Simulated client backoff: charged to the outcome, never slept.
      out.backoff_ms += backoff;
      backoff = std::min(backoff * kBackoffMultiplier, kBackoffCapMs);
    }
    const bool fallback = !homes.empty() && attempt % homes.size() != 0;
    sden::Packet pkt =
        make_packet(sden::PacketType::kRetrieval, data_id, key, {});
    // Each attempt is a distinct send: salt the flaky-link drop hash
    // with the ordinal so a retry of the same key along the same link
    // gets a fresh drop decision (otherwise a flaky link that dropped
    // attempt 0 drops every retry too, regardless of backoff).
    pkt.retry_attempt = static_cast<std::uint32_t>(attempt);
    if (fallback) {
      pkt.target =
          net_->const_switch_at(homes[attempt % homes.size()]).position();
    }
    ++out.attempts;
    if (fallback) ++out.fallbacks;

    // Every field the report keeps is rewritten by a successful
    // attempt, so a failed one leaves nothing behind but scratch.
    Status routed = route_into(pkt, ingress, out.report);
    if (routed.ok() && out.report.route.found) {
      out.found = true;
      out.recovered = attempt > 0;
      break;
    }
    if (routed.ok()) {
      // Clean miss at this replica: another copy may still exist.
      last = Status(ErrorCode::kNotFound,
                    "retrieve_with_fallback: no replica held the item");
    } else if (is_retryable_route_error(routed.error().code)) {
      last = std::move(routed);
    } else {
      // Caller mistake or invariant violation — surface it loudly
      // instead of masking it as a retries-exhausted miss.
      result = routed.error();
      return result;
    }
  }
  if (!out.found) {
    // The report describes the successful attempt only.
    out.report = OpReport{};
    out.final_status = last;
  }

  if (obs::enabled()) {
    static obs::Counter& attempts =
        obs::registry().counter("protocol.retrieval_attempts");
    static obs::Counter& fallbacks =
        obs::registry().counter("protocol.retrieval_fallbacks");
    static obs::Counter& recovered =
        obs::registry().counter("protocol.retrieval_recovered");
    static obs::Counter& failed =
        obs::registry().counter("protocol.retrieval_failed");
    attempts.add(out.attempts);
    fallbacks.add(out.fallbacks);
    if (out.recovered) recovered.add();
    if (!out.found) failed.add();
  }
  return result;
}

}  // namespace gred::core
