#include "core/controller.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <utility>

#include "check/invariants.hpp"
#include "common/thread_pool.hpp"
#include "graph/properties.hpp"
#include "obs/events.hpp"
#include "obs/obs.hpp"
#include "obs/phase_timer.hpp"
#include "obs/switch_load.hpp"

namespace gred::core {
namespace {

using geometry::Point2D;
using topology::ServerId;
using topology::SwitchId;

/// Installed flow entries across the network (event-log bookkeeping;
/// computed only while obs is enabled).
std::size_t total_flow_entries(const sden::SdenNetwork& net) {
  std::size_t total = 0;
  for (SwitchId sw = 0; sw < net.switch_count(); ++sw) {
    total += net.switch_at(sw).table().entry_count();
  }
  return total;
}

/// Captures the before-state of a dynamics op at construction and
/// appends one event-log entry in finish(), including how many switches
/// the op patched. Inert (two loads) when obs is disabled.
class EventRecorder {
 public:
  EventRecorder(obs::EventKind kind, const sden::SdenNetwork& net,
                std::size_t subject, std::size_t peer = 0)
      : active_(obs::enabled()), net_(net) {
    if (!active_) return;
    ev_.kind = kind;
    ev_.subject = static_cast<std::uint32_t>(subject);
    ev_.peer = static_cast<std::uint32_t>(peer);
    ev_.entries_before = total_flow_entries(net_);
    start_ = std::chrono::steady_clock::now();
  }

  void finish(const Controller& ctrl, const Status& status,
              std::size_t migrated,
              std::size_t subject = static_cast<std::size_t>(-1)) {
    if (!active_) return;
    ev_.ok = status.ok();
    ev_.patched = ctrl.last_affected_switches().size();
    if (!status.ok()) ev_.status = status.error().to_string();
    if (subject != static_cast<std::size_t>(-1)) {
      ev_.subject = static_cast<std::uint32_t>(subject);
    }
    ev_.migrated = migrated;
    ev_.entries_after = total_flow_entries(net_);
    ev_.duration_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
    obs::event_log().append(std::move(ev_));
  }

 private:
  bool active_;
  const sden::SdenNetwork& net_;
  obs::DynamicsEvent ev_;
  std::chrono::steady_clock::time_point start_{};
};

/// Switches that join the DT: those with at least one attached server.
std::vector<SwitchId> find_participants(const topology::EdgeNetwork& desc) {
  std::vector<SwitchId> out;
  for (SwitchId sw = 0; sw < desc.switch_count(); ++sw) {
    if (!desc.servers_at(sw).empty()) out.push_back(sw);
  }
  return out;
}

/// Whether an installed rewrite still holds under the current topology.
/// It is dropped when the original server no longer hangs off its
/// switch, the delegate left, or the physical link the handoff rides is
/// gone. Items on a dropped delegate are not stranded: migration
/// re-homes them because their expected placement no longer has an
/// active rewrite.
bool rewrite_valid(const sden::SdenNetwork& net, SwitchId sw,
                   const sden::RewriteEntry& rw) {
  if (sw >= net.switch_count() || rw.via_switch >= net.switch_count() ||
      rw.original >= net.server_count() ||
      rw.replacement >= net.server_count()) {
    return false;
  }
  // attached_to alone is not enough: a removed switch keeps its server
  // records but detaches them, so membership in servers_at is the
  // live-attachment test.
  const topology::EdgeNetwork& desc = net.description();
  const auto& own_servers = desc.servers_at(sw);
  const auto& via_servers = desc.servers_at(rw.via_switch);
  return std::find(own_servers.begin(), own_servers.end(), rw.original) !=
             own_servers.end() &&
         std::find(via_servers.begin(), via_servers.end(), rw.replacement) !=
             via_servers.end() &&
         desc.switches().find_edge(sw, rw.via_switch) != nullptr;
}

}  // namespace

Status Controller::initialize(sden::SdenNetwork& net) {
  const std::vector<SwitchId> participants =
      find_participants(net.description());
  if (participants.empty()) {
    return Status(ErrorCode::kFailedPrecondition,
                  "Controller: no switch has attached servers");
  }

  recompute_apsp(net);
  auto space = VirtualSpace::build(participants, routing_apsp(), options_);
  if (!space.ok()) return space.error();
  space_ = std::move(space).value();
  const Status installed = reinstall(net);
  if (installed.ok()) initialized_ = true;
  return installed;
}

Status Controller::initialize_with_positions(
    sden::SdenNetwork& net,
    const std::vector<SwitchId>& participants,
    const std::vector<Point2D>& positions) {
  const std::vector<SwitchId> expected =
      find_participants(net.description());
  if (participants != expected) {
    return Status(ErrorCode::kFailedPrecondition,
                  "initialize_with_positions: participant set does not "
                  "match the switches with servers");
  }
  recompute_apsp(net);
  auto space =
      VirtualSpace::from_positions(participants, positions, routing_apsp());
  if (!space.ok()) return space.error();
  space_ = std::move(space).value();
  const Status installed = reinstall(net);
  if (installed.ok()) initialized_ = true;
  return installed;
}

topology::SwitchId Controller::home_switch(const Point2D& p) const {
  return space_.nearest_participant(p);
}

Result<Controller::Placement> Controller::expected_placement(
    const sden::SdenNetwork& net, const crypto::DataKey& key) const {
  if (!initialized_) {
    return Error(ErrorCode::kFailedPrecondition,
                 "Controller not initialized");
  }
  Placement p;
  const crypto::SpacePoint pos = key.position();
  p.sw = home_switch({pos.x, pos.y});
  const auto& servers = net.description().servers_at(p.sw);
  if (servers.empty()) {
    return Error(ErrorCode::kInternal, "home switch has no servers");
  }
  p.server = servers[static_cast<std::size_t>(key.mod(servers.size()))];
  return p;
}

Status Controller::enable_replication(sden::SdenNetwork& net,
                                      ReplicationOptions opts) {
  if (!initialized_) {
    return Status(ErrorCode::kFailedPrecondition,
                  "enable_replication: Controller not initialized");
  }
  if (opts.factor < 1) {
    return Status(ErrorCode::kInvalidArgument,
                  "enable_replication: factor must be >= 1");
  }
  if (opts.region_diverse && opts.region_grid < 1) {
    return Status(ErrorCode::kInvalidArgument,
                  "enable_replication: region_grid must be >= 1");
  }
  replication_ = opts;
  replication_enabled_ = true;
  // Bring pre-existing items up to the factor right away, so callers
  // can enable replication on a populated deployment.
  auto repaired = restore_replication(net);
  if (!repaired.ok()) {
    replication_enabled_ = false;
    return repaired.error();
  }
  return Status::Ok();
}

std::size_t Controller::region_of(const geometry::Point2D& p) const {
  const std::size_t g = replication_.region_grid;
  const auto clamp_axis = [g](double v) {
    if (!(v > 0.0)) return std::size_t{0};  // also catches NaN
    const std::size_t cell =
        static_cast<std::size_t>(v * static_cast<double>(g));
    return cell >= g ? g - 1 : cell;
  };
  return clamp_axis(p.x) + g * clamp_axis(p.y);
}

std::size_t Controller::region_of_participant(topology::SwitchId sw) const {
  const std::size_t idx = space_.index_of(sw);
  if (idx >= space_.positions().size()) {
    return replication_.region_grid * replication_.region_grid;
  }
  return region_of(space_.positions()[idx]);
}

std::size_t Controller::alive_region_count() const {
  const std::size_t cells =
      replication_.region_grid * replication_.region_grid;
  std::vector<std::uint8_t> seen(cells, 0);
  std::size_t distinct = 0;
  for (const geometry::Point2D& p : space_.positions()) {
    const std::size_t r = region_of(p);
    if (seen[r] == 0) {
      seen[r] = 1;
      ++distinct;
    }
  }
  return distinct;
}

std::vector<topology::SwitchId> Controller::replica_homes(
    const crypto::DataKey& key) const {
  const crypto::SpacePoint pos = key.position();
  const geometry::Point2D p{pos.x, pos.y};
  const std::size_t k = replication_factor();
  if (!replication_enabled_ || !replication_.region_diverse || k <= 1) {
    return space_.nearest_participants(p, k);
  }

  // Region-diverse filter over the nearest order: walk the candidates
  // ascending by distance, taking the first home of each fresh region.
  // The nearest participant is taken unconditionally (element 0 stays
  // home_switch(), so routing and expected placement never move), and
  // when fewer than k regions are populated the remainder falls back
  // to the nearest skipped candidates — plain nearest-k behaviour.
  // Candidate fetches double until the filter is satisfied or the
  // whole space has been scanned, keeping the common case O(k) homes
  // from an O(4k) prefix instead of an O(n) scan.
  const std::size_t n = space_.participants().size();
  std::size_t fetch = std::min(n, std::max<std::size_t>(4 * k, 8));
  for (;;) {
    const std::vector<topology::SwitchId> cand =
        space_.nearest_participants(p, fetch);
    std::vector<topology::SwitchId> homes;
    std::vector<std::size_t> used_regions;
    homes.reserve(k);
    for (const topology::SwitchId sw : cand) {
      if (homes.size() == k) break;
      const std::size_t r = region_of_participant(sw);
      if (std::find(used_regions.begin(), used_regions.end(), r) !=
          used_regions.end()) {
        continue;
      }
      homes.push_back(sw);
      used_regions.push_back(r);
    }
    if (homes.size() == k || fetch == n) {
      for (const topology::SwitchId sw : cand) {
        if (homes.size() == k) break;
        if (std::find(homes.begin(), homes.end(), sw) == homes.end()) {
          homes.push_back(sw);
        }
      }
      return homes;
    }
    fetch = std::min(n, fetch * 2);
  }
}

Result<std::vector<Controller::Placement>> Controller::replica_placements(
    const sden::SdenNetwork& net, const crypto::DataKey& key) const {
  if (!initialized_) {
    return Error(ErrorCode::kFailedPrecondition,
                 "Controller not initialized");
  }
  std::vector<Placement> out;
  for (const SwitchId home : replica_homes(key)) {
    const auto& servers = net.description().servers_at(home);
    if (servers.empty()) {
      return Error(ErrorCode::kInternal, "replica home has no servers");
    }
    Placement p;
    p.sw = home;
    p.server = servers[static_cast<std::size_t>(key.mod(servers.size()))];
    out.push_back(p);
  }
  return out;
}

Result<std::vector<ServerId>> Controller::replica_targets(
    const sden::SdenNetwork& net, const crypto::DataKey& key) const {
  auto placements = replica_placements(net, key);
  if (!placements.ok()) return placements.error();
  std::vector<ServerId> targets;
  for (const Placement& p : placements.value()) {
    const sden::RewriteEntry* rw =
        net.switch_at(p.sw).table().find_rewrite(p.server);
    const ServerId target = rw != nullptr ? rw->replacement : p.server;
    if (std::find(targets.begin(), targets.end(), target) == targets.end()) {
      targets.push_back(target);
    }
  }
  return targets;
}

Result<std::size_t> Controller::restore_replication(sden::SdenNetwork& net) {
  ItemMoves moves;
  return restore_replication(net, moves);
}

Result<std::size_t> Controller::restore_replication(sden::SdenNetwork& net,
                                                    ItemMoves& moves) {
  if (!initialized_) {
    return Error(ErrorCode::kFailedPrecondition,
                 "Controller not initialized");
  }
  if (replication_factor() <= 1) return std::size_t{0};

  // Per-item holder lists (std::map: deterministic order, so a given
  // state always produces the same copy plan).
  std::map<std::string, std::vector<ServerId>> holders;
  for (ServerId s = 0; s < net.server_count(); ++s) {
    for (const auto& [id, payload] : net.server(s).items()) {
      holders[id].push_back(s);
    }
  }
  for (const auto& [id, held_by] : holders) {
    auto targets = replica_targets(net, crypto::DataKey(id));
    if (!targets.ok()) return targets.error();
    for (const ServerId t : targets.value()) {
      if (std::find(held_by.begin(), held_by.end(), t) == held_by.end()) {
        moves.copy(id, held_by.front(), t);
      }
    }
  }
  return moves.apply(net);
}

Status Controller::repair_replication_after_dynamics(sden::SdenNetwork& net,
                                                     ItemMoves& moves) {
  if (!replication_enabled_) return Status::Ok();
  auto repaired = restore_replication(net, moves);
  if (!repaired.ok()) return repaired.error();
  return Status::Ok();
}

Result<ServerId> Controller::resolve_store_target(
    const sden::SdenNetwork& net, const crypto::DataKey& key) const {
  const auto placement = expected_placement(net, key);
  if (!placement.ok()) return placement.error();
  const sden::RewriteEntry* rw =
      net.switch_at(placement.value().sw).table().find_rewrite(
          placement.value().server);
  return rw != nullptr ? rw->replacement : placement.value().server;
}

Status Controller::extend_range_impl(sden::SdenNetwork& net,
                                     ServerId overloaded) {
  if (overloaded >= net.server_count()) {
    return Status(ErrorCode::kOutOfRange, "extend_range: unknown server");
  }
  const SwitchId sw = net.server(overloaded).info().attached_to;
  // Read-only: a rejected extension must not count as a change.
  if (std::as_const(net).switch_at(sw).table().match_rewrite(overloaded)
          .has_value()) {
    // Re-extending would upsert the rewrite toward a possibly
    // different delegate and strand the items already delegated to
    // the old one; callers must retract first.
    return Status(ErrorCode::kFailedPrecondition,
                  "extend_range: extension already active; retract first");
  }

  // Pick the delegate: the server with the most remaining capacity on
  // any physical-neighbor switch (Section V-B).
  ServerId best = topology::kNoServer;
  SwitchId best_via = sden::kNoSwitch;
  std::size_t best_remaining = 0;
  for (const graph::EdgeTo& e : net.description().switches().neighbors(sw)) {
    for (ServerId candidate : net.description().servers_at(e.to)) {
      const std::size_t remaining = net.server(candidate).remaining_capacity();
      if (best == topology::kNoServer || remaining > best_remaining) {
        best = candidate;
        best_via = e.to;
        best_remaining = remaining;
      }
    }
  }
  if (best == topology::kNoServer) {
    return Status(ErrorCode::kUnavailable,
                  "extend_range: no neighbor switch has servers");
  }

  sden::RewriteEntry rewrite;
  rewrite.original = overloaded;
  rewrite.replacement = best;
  rewrite.via_switch = best_via;
  net.switch_at(sw).table().add_rewrite(rewrite);
  // A rewrite touches exactly one switch's flow table (its plan region
  // gains the deliver-fallback flag), so the event needs no recompute.
  last_affected_.assign(1, sw);
  return Status::Ok();
}

Status Controller::retract_range_impl(sden::SdenNetwork& net,
                                      ServerId overloaded) {
  if (overloaded >= net.server_count()) {
    return Status(ErrorCode::kOutOfRange, "retract_range: unknown server");
  }
  const SwitchId sw = net.server(overloaded).info().attached_to;
  // Read-only: a rejected retraction must not count as a change.
  const auto rewrite =
      std::as_const(net).switch_at(sw).table().match_rewrite(overloaded);
  if (!rewrite.has_value()) {
    return Status(ErrorCode::kNotFound,
                  "retract_range: no extension active for this server");
  }

  // Pull back the items that belong to `overloaded` (Section V-B: the
  // server "first retrieves the data which should be placed in [it]").
  // All or nothing: if the owner fills up mid-pullback, nothing moves
  // and the extension stays.
  ItemMoves pullback;
  for (const auto& [id, payload] : net.server(rewrite->replacement).items()) {
    const auto placement = expected_placement(net, crypto::DataKey(id));
    if (placement.ok() && placement.value().server == overloaded) {
      pullback.move(id, rewrite->replacement, overloaded);
    }
  }
  const auto pulled = pullback.apply(net);
  if (!pulled.ok()) return pulled.error();

  net.switch_at(sw).table().remove_rewrite(overloaded);
  last_affected_.assign(1, sw);
  return Status::Ok();
}

Result<std::size_t> Controller::extend_for_load(
    sden::SdenNetwork& net, const obs::SwitchLoadTracker& loads,
    const LoadExtensionOptions& opts) {
  if (!initialized_) {
    return Error(ErrorCode::kFailedPrecondition,
                 "extend_for_load: Controller not initialized");
  }
  if (!(opts.hot_factor >= 1.0)) {  // also rejects NaN
    return Error(ErrorCode::kInvalidArgument,
                 "extend_for_load: hot_factor must be >= 1");
  }
  if (opts.max_extensions == 0) return std::size_t{0};

  // Baseline: mean EWMA over the DT participants (transit switches
  // never serve retrievals and would only drag the mean down).
  const std::vector<SwitchId>& participants = space_.participants();
  std::vector<std::size_t> over(participants.begin(), participants.end());
  const double mean = loads.mean_ewma(over);
  if (mean <= 0.0) return std::size_t{0};

  std::vector<std::pair<double, SwitchId>> hot;
  for (const SwitchId sw : participants) {
    const double w = loads.ewma(sw);
    if (w > opts.hot_factor * mean) hot.emplace_back(w, sw);
  }
  // Hottest first; ties by id for determinism.
  std::sort(hot.begin(), hot.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });

  std::size_t performed = 0;
  for (const auto& [w, sw] : hot) {
    if (performed >= opts.max_extensions) break;
    // The switch's busiest extension-free server carries the hot keys.
    ServerId victim = topology::kNoServer;
    std::size_t victim_served = 0;
    for (const ServerId s : net.description().servers_at(sw)) {
      if (std::as_const(net).switch_at(sw).table().find_rewrite(s) !=
          nullptr) {
        continue;
      }
      const std::size_t served = net.server(s).retrievals_served();
      if (victim == topology::kNoServer || served > victim_served) {
        victim = s;
        victim_served = served;
      }
    }
    if (victim == topology::kNoServer) continue;
    // Event-recorded like any capacity-triggered extension; a switch
    // with no eligible neighbor simply stays hot.
    if (!extend_range(net, victim).ok()) continue;
    ++performed;

    // Spread the existing hot set: move the (deterministic) digest-
    // parity half of the victim's owned items onto the delegate, as
    // many as it has room for. The data plane retrieves from both ends
    // of a rewrite, and retract_range moves exactly these items back,
    // so the extension stays reversible.
    const auto rw =
        std::as_const(net).switch_at(sw).table().match_rewrite(victim);
    if (!rw.has_value()) continue;
    std::size_t room = net.server(rw->replacement).remaining_capacity();
    ItemMoves spread;
    for (const auto& [id, payload] : net.server(victim).items()) {
      if (room == 0) break;
      const crypto::DataKey key(id);
      if (key.mod(2) != 0) continue;
      const auto placement = expected_placement(net, key);
      if (placement.ok() && placement.value().server == victim) {
        spread.move(id, victim, rw->replacement);
        --room;
      }
    }
    (void)spread.apply(net);
  }
  return performed;
}

Result<std::size_t> Controller::migrate_items(sden::SdenNetwork& net,
                                              ItemMoves& moves) {
  if (replication_factor() > 1) return migrate_items_replicated(net, moves);
  for (ServerId s = 0; s < net.server_count(); ++s) {
    for (const auto& [id, payload] : net.server(s).items()) {
      const crypto::DataKey key(id);
      const auto placement = expected_placement(net, key);
      if (!placement.ok()) return placement.error();
      // Rewrite-aware: under an active extension, new stores go to the
      // delegate, and items already on either the home server or its
      // delegate are in place (the data plane retrieves from both).
      const sden::RewriteEntry* rw =
          std::as_const(net).switch_at(placement.value().sw).table()
              .find_rewrite(placement.value().server);
      const ServerId target =
          rw != nullptr ? rw->replacement : placement.value().server;
      if (s != placement.value().server && s != target) {
        moves.move(id, s, target);
      }
    }
  }
  return moves.apply(net);
}

Result<std::size_t> Controller::migrate_items_replicated(
    sden::SdenNetwork& net, ItemMoves& moves) {
  // Per-item holder lists, deterministic order.
  std::map<std::string, std::vector<ServerId>> holders;
  for (ServerId s = 0; s < net.server_count(); ++s) {
    for (const auto& [id, payload] : net.server(s).items()) {
      holders[id].push_back(s);
    }
  }

  std::vector<std::pair<std::string, ServerId>> drops;
  for (const auto& [id, held_by] : holders) {
    const crypto::DataKey key(id);
    auto placements = replica_placements(net, key);
    if (!placements.ok()) return placements.error();
    auto targets = replica_targets(net, key);
    if (!targets.ok()) return targets.error();

    // In place: on a replica home's server, or on the delegate a
    // rewrite redirects it to (the data plane retrieves from both).
    const auto in_place = [&](ServerId s) {
      for (const Placement& p : placements.value()) {
        if (p.server == s) return true;
      }
      return std::find(targets.value().begin(), targets.value().end(), s) !=
             targets.value().end();
    };

    std::vector<ServerId> missing;
    for (const ServerId t : targets.value()) {
      if (std::find(held_by.begin(), held_by.end(), t) == held_by.end()) {
        missing.push_back(t);
      }
    }
    // Misplaced copies fill distinct missing targets first — each
    // (to, id) pair stays unique — and surplus copies are dropped
    // (restore_replication re-creates any target the moves could not
    // cover).
    std::size_t next_missing = 0;
    for (const ServerId s : held_by) {
      if (in_place(s)) continue;
      if (next_missing < missing.size()) {
        moves.move(id, s, missing[next_missing++]);
      } else {
        drops.emplace_back(id, s);
      }
    }
  }
  // Drops go last, so a capacity failure surfaces before any copy is
  // given up.
  for (const auto& [id, s] : drops) moves.drop(id, s);
  return moves.apply(net);
}

geometry::Point2D Controller::fit_position(const sden::SdenNetwork& net,
                                           SwitchId sw) const {
  const graph::SsspResult sssp =
      options_.weighted_embedding
          ? graph::dijkstra(net.description().switches(), sw)
          : graph::bfs(net.description().switches(), sw);
  const auto& participants = space_.participants();
  const auto& positions = space_.positions();

  // Centroid of the participants nearest to the joiner (Section VI: a
  // join "only affects its neighbors"). A centroid lies in its points'
  // hull, so the joiner lands among its neighbours instead of being
  // pulled out to the square's boundary.
  double nearest = graph::kUnreachable;
  Point2D sum{0.0, 0.0};
  std::size_t count = 0;
  for (std::size_t i = 0; i < participants.size(); ++i) {
    const double d = sssp.dist[participants[i]];
    if (d == graph::kUnreachable || d > nearest) continue;
    if (d < nearest) {
      nearest = d;
      sum = {0.0, 0.0};
      count = 0;
    }
    sum = sum + positions[i];
    ++count;
  }
  if (count == 0) return {0.5, 0.5};
  if (count == 1) {
    // A lone nearest participant: step from it toward the square's
    // centre, so the two sites stay distinct.
    return sum + (Point2D{0.5, 0.5} - sum) * 0.125;
  }
  return sum / static_cast<double>(count);
}

void Controller::recompute_apsp(const sden::SdenNetwork& net) {
  const obs::ScopedPhaseTimer timer("apsp");
  const graph::Graph& g = net.description().switches();
  // The two tables are independent; build both at once, each fanning
  // its sources across the same pool.
  ThreadPool& pool = global_pool();
  pool.run_all({
      [&] { apsp_ = graph::all_pairs_shortest_paths(g, /*weighted=*/false,
                                                    &pool); },
      [&] { apsp_weighted_ = graph::all_pairs_shortest_paths(
                g, /*weighted=*/true, &pool); },
  });
}

Status Controller::add_link_impl(sden::SdenNetwork& net, SwitchId u,
                                 SwitchId v, double weight) {
  if (!initialized_) {
    return Status(ErrorCode::kFailedPrecondition,
                  "Controller not initialized");
  }
  const Status added =
      net.description().switches().has_edge(u, v)
          ? Status(ErrorCode::kFailedPrecondition, "link already exists")
          : net.add_link(u, v, weight);
  if (!added.ok()) return added;

  // A new link only shortens paths, so no step of its delta can fail
  // (every DT neighbour stays reachable); no checkpoint is needed.
  GraphDelta delta;
  delta.kind = GraphDelta::Kind::kLinkAdd;
  delta.u = u;
  delta.v = v;
  return rebuild_and_install_incremental(net, delta);
}

Status Controller::remove_link_impl(sden::SdenNetwork& net, SwitchId u,
                                    SwitchId v) {
  if (!initialized_) {
    return Status(ErrorCode::kFailedPrecondition,
                  "Controller not initialized");
  }
  if (!net.description().switches().has_edge(u, v)) {
    return Status(ErrorCode::kNotFound, "remove_link: no such link");
  }
  // Pre-check: participants must stay mutually reachable without it.
  {
    graph::Graph probe = net.description().switches();
    probe.remove_edge(u, v);
    const auto& parts = space_.participants();
    const graph::SsspResult reach = graph::bfs(probe, parts.front());
    for (SwitchId p : parts) {
      if (reach.dist[p] == graph::kUnreachable) {
        return Status(ErrorCode::kFailedPrecondition,
                      "remove_link: failure would disconnect participants");
      }
    }
  }
  Checkpoint cp = checkpoint(net);
  GraphDelta delta;
  delta.kind = GraphDelta::Kind::kLinkRemove;
  delta.u = u;
  delta.v = v;
  delta.weight = net.description().switches().find_edge(u, v)->weight;
  net.remove_link(u, v);
  // Losing the link may have invalidated a range extension whose
  // handoff ran over it (the install drops such rewrites). Items
  // already delegated would then be stranded on the ex-delegate —
  // unreachable through the home server — so migration pulls every
  // out-of-place item back.
  return commit_topology_event(net, delta, cp);
}

Status Controller::commit_topology_event(sden::SdenNetwork& net,
                                         const GraphDelta& delta,
                                         Checkpoint& cp) {
  const Status rebuilt = rebuild_and_install_incremental(net, delta);
  if (!rebuilt.ok()) return roll_back(net, cp, rebuilt);
  const Status moved = [&]() -> Status {
    const obs::ScopedPhaseTimer timer("migrate");
    auto migrated = migrate_items(net, cp.moves);
    if (!migrated.ok()) return migrated.error();
    last_migration_ = migrated.value();
    return repair_replication_after_dynamics(net, cp.moves);
  }();
  if (!moved.ok()) return roll_back(net, cp, moved);
  return Status::Ok();
}

Controller::Checkpoint Controller::checkpoint(
    const sden::SdenNetwork& net) const {
  Checkpoint cp;
  cp.description = net.description();
  cp.space = space_;
  for (SwitchId sw = 0; sw < net.switch_count(); ++sw) {
    for (const sden::RewriteEntry& rw :
         net.const_switch_at(sw).table().rewrites()) {
      cp.rewrites.emplace_back(sw, rw);
    }
  }
  return cp;
}

Status Controller::roll_back(sden::SdenNetwork& net, Checkpoint& cp,
                             Status cause) {
  // Moved items go back first, while every server they touched exists.
  cp.moves.undo(net);
  net.restore_topology(cp.description);
  space_ = cp.space;
  // The op may have dropped rewrites (a leaving switch's own, or ones
  // whose handoff link or delegate went away). Put them back; the
  // reinstall keeps every one that is valid again.
  for (const auto& [sw, rw] : cp.rewrites) {
    if (net.const_switch_at(sw).table().find_rewrite(rw.original) ==
        nullptr) {
      net.switch_at(sw).table().add_rewrite(rw);
    }
  }
  // Rebuilds exactly the state installed when the op began, so this
  // cannot meaningfully fail.
  recompute_apsp(net);
  (void)reinstall(net);
  return cause;
}

void Controller::begin_event() { last_affected_.clear(); }

Status Controller::reinstall(sden::SdenNetwork& net) {
  // Every switch's state is replaced, so there is no meaningful
  // "affected subset" to report.
  last_affected_.clear();
  auto dt = MultiHopDT::build(space_.participants(), space_.positions(),
                              net.description().switches(), routing_apsp());
  if (!dt.ok()) return dt.error();
  dt_ = std::move(dt).value();
  std::vector<SwitchId> all(net.switch_count());
  std::iota(all.begin(), all.end(), SwitchId{0});
  return install_patch(net, all, "install");
}

Status Controller::rebuild_and_install_incremental(sden::SdenNetwork& net,
                                                   const GraphDelta& delta) {
  const obs::ScopedPhaseTimer timer("incremental_rebuild");
  const graph::Graph& g = net.description().switches();
  ThreadPool& pool = global_pool();

  // 1. Delta-APSP on both tables (independent, like recompute_apsp).
  graph::ApspDelta hop;
  graph::ApspDelta wgt;
  switch (delta.kind) {
    case GraphDelta::Kind::kLinkAdd:
      pool.run_all({
          [&] { hop = graph::apsp_add_edge(apsp_, g, delta.u, delta.v,
                                           &pool); },
          [&] { wgt = graph::apsp_add_edge(apsp_weighted_, g, delta.u,
                                           delta.v, &pool); },
      });
      break;
    case GraphDelta::Kind::kLinkRemove:
      pool.run_all({
          [&] { hop = graph::apsp_remove_edge(apsp_, g, delta.u, delta.v,
                                              1.0, &pool); },
          [&] { wgt = graph::apsp_remove_edge(apsp_weighted_, g, delta.u,
                                              delta.v, delta.weight,
                                              &pool); },
      });
      break;
    case GraphDelta::Kind::kSwitchAdd:
      pool.run_all({
          [&] { hop = graph::apsp_add_node(apsp_, g, delta.u, &pool); },
          [&] { wgt = graph::apsp_add_node(apsp_weighted_, g, delta.u,
                                           &pool); },
      });
      break;
    case GraphDelta::Kind::kSwitchRemove:
      pool.run_all({
          [&] { hop = graph::apsp_remove_node_edges(
                    apsp_, g, delta.u, delta.removed_edges, &pool); },
          [&] { wgt = graph::apsp_remove_node_edges(
                    apsp_weighted_, g, delta.u, delta.removed_edges,
                    &pool); },
      });
      break;
  }

  // The routing table's changed rows drive the affected set.
  const graph::ApspDelta& routing_delta =
      options_.weighted_embedding ? wgt : hop;

  // 2. DT repair for switch join/leave, at the joiner's stored position
  // (the space's collision nudge moves only the appended site). The
  // repair rebuilds the participants it reports; `touched` accumulates
  // every switch whose installable state changed.
  std::vector<std::size_t> repaired;
  std::vector<SwitchId> touched;
  if (delta.joined_dt) {
    const Status dt_repaired =
        delta.kind == GraphDelta::Kind::kSwitchAdd
            ? dt_.add_participant(delta.u, space_.positions().back(), g,
                                  routing_apsp(), &repaired, &touched)
            : dt_.remove_participant(delta.u, g, routing_apsp(), &repaired,
                                     &touched);
    if (!dt_repaired.ok()) return dt_repaired;
  }

  // 3. The affected participants beyond the DT rim: those whose
  // distance row moved, and those whose (unchanged-distance) virtual
  // links canonically routed through the changed region — only a path
  // that meets a node with changed adjacency can change while its
  // endpoints' distances stay put.
  const std::vector<SwitchId>& parts = dt_.participants();
  std::vector<std::size_t> rebuild;
  const std::vector<graph::NodeId>& rows = routing_delta.changed_rows;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (std::binary_search(rows.begin(), rows.end(),
                           static_cast<graph::NodeId>(parts[i]))) {
      rebuild.push_back(i);
    }
  }
  switch (delta.kind) {
    case GraphDelta::Kind::kLinkAdd:
    case GraphDelta::Kind::kLinkRemove: {
      for (const std::size_t i :
           dt_.participants_with_vlinks_through({delta.u, delta.v})) {
        rebuild.push_back(i);
      }
      // The endpoints' own candidate tables encode link-existence (a
      // DT edge flips between physical and multi-hop with the link),
      // which can change even when no distance moved.
      for (const SwitchId end : {delta.u, delta.v}) {
        const std::size_t i = space_.index_of(end);
        if (i != VirtualSpace::kNoIndex) rebuild.push_back(i);
      }
      break;
    }
    case GraphDelta::Kind::kSwitchAdd:
      // The new node has the largest id, so the smallest-id canonical
      // predecessor rule never reroutes an unchanged-distance path
      // through it; strictly better paths show up as changed rows. Its
      // attach links are link-adds in disguise, though: each endpoint
      // gains a physical-neighbor candidate even when its distance row
      // and DT cell are untouched.
      for (const graph::EdgeTo& e : g.neighbors(delta.u)) {
        const std::size_t i = space_.index_of(e.to);
        if (i != VirtualSpace::kNoIndex) rebuild.push_back(i);
      }
      break;
    case GraphDelta::Kind::kSwitchRemove:
      for (const SwitchId sw : delta.vlinks_through) {
        const std::size_t i = space_.index_of(sw);
        if (i != VirtualSpace::kNoIndex) rebuild.push_back(i);
      }
      // Symmetric to the join case: each torn-down link's surviving
      // endpoint loses its physical-neighbor candidate.
      for (const graph::EdgeTo& e : delta.removed_edges) {
        const std::size_t i = space_.index_of(e.to);
        if (i != VirtualSpace::kNoIndex) rebuild.push_back(i);
      }
      break;
  }
  std::sort(rebuild.begin(), rebuild.end());
  rebuild.erase(std::unique(rebuild.begin(), rebuild.end()), rebuild.end());
  std::sort(repaired.begin(), repaired.end());
  for (const std::size_t i : rebuild) {
    // The DT repair already rebuilt its rim; don't redo those.
    if (std::binary_search(repaired.begin(), repaired.end(), i)) continue;
    const Status rebuilt = dt_.rebuild_participant(i, g, routing_apsp(),
                                                   &touched);
    if (!rebuilt.ok()) return rebuilt;
    touched.push_back(parts[i]);
  }

  // A joining or leaving switch is always installed, even as a
  // server-less transit. (Link endpoints whose tables did not change
  // need no install: the link change alone makes the plan recompile.)
  if (delta.kind == GraphDelta::Kind::kSwitchAdd ||
      delta.kind == GraphDelta::Kind::kSwitchRemove) {
    touched.push_back(delta.u);
  }

  const Status patched = install_patch(net, touched, "install_patch");
  if (!patched.ok()) return patched;
  last_affected_ = std::move(touched);
  return Status::Ok();
}

Status Controller::install_patch(sden::SdenNetwork& net,
                                 std::vector<SwitchId>& touched,
                                 const char* phase) {
  const obs::ScopedPhaseTimer timer(phase);
  // Range-extension rewrites are durable data-plane state (Section
  // V-B): each patched switch keeps its still-valid ones, or the
  // delegation would silently vanish and strand the delegated items.
  // Validity is re-checked network-wide on every install, pulling any
  // switch that lost a rewrite into the patch set — O(switches +
  // rewrites), noise next to the rebuilt participants' path work.
  for (SwitchId sw = 0; sw < net.switch_count(); ++sw) {
    for (const sden::RewriteEntry& rw :
         net.const_switch_at(sw).table().rewrites()) {
      if (!rewrite_valid(net, sw, rw)) {
        touched.push_back(sw);
        break;
      }
    }
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());

  const topology::EdgeNetwork& desc = net.description();
  std::vector<sden::RewriteEntry> keep;
  for (const SwitchId t : touched) {
    if (t >= net.switch_count()) {
      return Status(ErrorCode::kInternal,
                    "install_patch: touched switch out of range");
    }
    keep.clear();
    for (const sden::RewriteEntry& rw :
         net.const_switch_at(t).table().rewrites()) {
      if (rewrite_valid(net, t, rw)) keep.push_back(rw);
    }
    // The controller owns all switch state (per-flow entries never
    // exist), so a patched switch is wiped and installed fresh.
    sden::Switch& sw = net.switch_at(t);
    sw.reset();
    const std::size_t i = space_.index_of(t);
    if (i != VirtualSpace::kNoIndex) {
      sw.set_position(space_.positions()[i]);
      sw.set_local_servers(desc.servers_at(t));
      for (const DtNeighborInfo& cand : dt_.candidates_of(t)) {
        sden::NeighborEntry entry;
        entry.neighbor = cand.neighbor;
        entry.position = cand.position;
        entry.physical = cand.physical;
        entry.first_hop = cand.first_hop;
        sw.table().add_neighbor(entry);
      }
    }
    const auto relays = dt_.relay_entries().find(t);
    if (relays != dt_.relay_entries().end()) {
      for (const sden::RelayEntry& relay : relays->second) {
        sw.table().add_relay(relay);
      }
    }
    for (const sden::RewriteEntry& rw : keep) sw.table().add_rewrite(rw);
  }

  // Machine-checked invariants (Debug / GRED_CHECKED builds), global so
  // they re-prove after every install — cold, rollback or patch — that
  // the DT kept its empty-circumcircle property, the APSP tables agree
  // with the component structure, and the installed greedy/relay
  // entries realize the DT: the facts the stretch≈1 guarantee rests on.
  GRED_CHECK(check::validate_delaunay(dt_.triangulation()));
  GRED_CHECK(check::validate_graph(desc.switches(), apsp_,
                                   /*weighted=*/false));
  GRED_CHECK(check::validate_graph(desc.switches(), apsp_weighted_,
                                   /*weighted=*/true));
  GRED_CHECK(check::validate_flow_tables(net, space_.participants(),
                                         space_.positions(),
                                         &dt_.triangulation()));
  return Status::Ok();
}

Result<topology::SwitchId> Controller::add_switch_impl(
    sden::SdenNetwork& net, const std::vector<SwitchId>& links,
    std::size_t server_count, std::size_t capacity) {
  if (!initialized_) {
    return Error(ErrorCode::kFailedPrecondition,
                 "Controller not initialized");
  }
  if (links.empty()) {
    return Error(ErrorCode::kInvalidArgument,
                 "add_switch: new switch must have at least one link");
  }
  // Join is all-or-nothing: a half-joined switch never leaks into the
  // topology (add_switch/attach_server are append-only, so a rollback
  // truncates back to the checkpoint's counts).
  Checkpoint cp = checkpoint(net);
  auto added = net.add_switch(links);
  if (!added.ok()) {
    // net.add_switch may fail after adding the node (e.g. a duplicate
    // link in `links`); the rollback undoes that partial state.
    return roll_back(net, cp, added.error()).error();
  }
  const SwitchId sw = added.value();
  for (std::size_t k = 0; k < server_count; ++k) {
    auto attached = net.attach_server(sw, capacity);
    if (!attached.ok()) return roll_back(net, cp, attached.error()).error();
  }

  GraphDelta delta;
  delta.kind = GraphDelta::Kind::kSwitchAdd;
  delta.u = sw;
  if (server_count > 0) {
    // The new node joins the DT; others keep their positions
    // (Section VI: a join "only affects its neighbors").
    delta.joined_dt = true;
    space_.add_participant(sw, fit_position(net, sw));
  }
  // A rollback undoes the migration before the new switch's servers
  // are truncated away, so no item is lost with them.
  const Status committed = commit_topology_event(net, delta, cp);
  if (!committed.ok()) return committed.error();
  return sw;
}

Status Controller::remove_switch_impl(sden::SdenNetwork& net, SwitchId sw) {
  if (!initialized_) {
    return Status(ErrorCode::kFailedPrecondition,
                  "Controller not initialized");
  }
  if (sw >= net.switch_count()) {
    return Status(ErrorCode::kOutOfRange, "remove_switch: unknown switch");
  }

  // Pre-check: remaining participants must stay mutually reachable.
  {
    graph::Graph probe = net.description().switches();
    probe.remove_edges_of(sw);
    std::vector<SwitchId> remaining;
    for (SwitchId p : space_.participants()) {
      if (p != sw) remaining.push_back(p);
    }
    if (remaining.empty()) {
      return Status(ErrorCode::kFailedPrecondition,
                    "remove_switch: last participant cannot leave");
    }
    const graph::SsspResult reach = graph::bfs(probe, remaining.front());
    for (SwitchId p : remaining) {
      if (reach.dist[p] == graph::kUnreachable) {
        return Status(ErrorCode::kFailedPrecondition,
                      "remove_switch: removal disconnects participants");
      }
    }
  }

  // The delta's pre-capture: the leaving node's adjacency and the
  // vlinks crossing it exist only before the teardown.
  GraphDelta delta;
  delta.kind = GraphDelta::Kind::kSwitchRemove;
  delta.u = sw;
  delta.removed_edges = net.description().switches().neighbors(sw);
  delta.joined_dt = space_.index_of(sw) != VirtualSpace::kNoIndex;
  // Virtual links relay through transit switches too, so the crossing
  // set matters whether or not `sw` was a participant.
  for (const std::size_t i : dt_.participants_with_vlinks_through({sw})) {
    delta.vlinks_through.push_back(dt_.participants()[i]);
  }

  // Leave is all-or-nothing, like join: a failed re-placement moves
  // every item back and restores the links, the server attachment and
  // the virtual space.
  Checkpoint cp = checkpoint(net);
  net.remove_switch_links(sw);
  space_.remove_participant(sw);
  // The leaving switch's servers are detached but still hold their
  // items, so migration re-places these orphans along with every item
  // whose home changed — through the same rewrite-aware targets, with
  // store() enforcing each target's capacity.
  return commit_topology_event(net, delta, cp);
}

Result<std::size_t> Controller::ItemMoves::apply(sden::SdenNetwork& net) {
  const std::size_t mark = applied_;
  for (; applied_ < steps_.size(); ++applied_) {
    Step& step = steps_[applied_];
    const std::string* payload = net.server(step.from).find(step.id);
    Status done = payload == nullptr
                      ? Status(ErrorCode::kInternal,
                               "item moves: source copy vanished")
                      : Status::Ok();
    if (done.ok() && step.kind == Kind::kDrop) {
      step.payload = *payload;
    } else if (done.ok()) {
      done = net.store_item(step.to, step.id, *payload);
    }
    if (!done.ok()) {
      undo_to(net, mark);
      steps_.resize(mark);
      return done.error();
    }
    if (step.kind != Kind::kCopy) net.erase_item(step.from, step.id);
  }
  return steps_.size() - mark;
}

void Controller::ItemMoves::undo(sden::SdenNetwork& net) {
  if (applied_ == 0) return;
  undo_to(net, 0);
  steps_.clear();
}

void Controller::ItemMoves::undo_to(sden::SdenNetwork& net,
                                    std::size_t mark) {
  for (; applied_ > mark; --applied_) {
    Step& step = steps_[applied_ - 1];
    if (step.kind == Kind::kMove) {
      if (auto moved = net.server(step.to).fetch(step.id)) {
        step.payload = std::move(*moved);
      }
    }
    if (step.kind != Kind::kDrop) net.erase_item(step.to, step.id);
    if (step.kind != Kind::kCopy) {
      (void)net.store_item(step.from, step.id, std::move(step.payload));
    }
  }
}

// --- Observability wrappers -----------------------------------------
// Each public dynamics/extension op logs one dynamics event (audit
// trail for Section V-B / Section VI reconfigurations) around its
// _impl. With obs disabled the wrappers add two relaxed loads.

Status Controller::extend_range(sden::SdenNetwork& net,
                                ServerId overloaded) {
  begin_event();
  EventRecorder ev(obs::EventKind::kExtendRange, net, overloaded);
  const Status status = extend_range_impl(net, overloaded);
  ev.finish(*this, status, /*migrated=*/0);
  return status;
}

Status Controller::retract_range(sden::SdenNetwork& net,
                                 ServerId overloaded) {
  begin_event();
  EventRecorder ev(obs::EventKind::kRetractRange, net, overloaded);
  const Status status = retract_range_impl(net, overloaded);
  ev.finish(*this, status, /*migrated=*/0);
  return status;
}

Result<topology::SwitchId> Controller::add_switch(
    sden::SdenNetwork& net, const std::vector<SwitchId>& links,
    std::size_t server_count, std::size_t capacity) {
  begin_event();
  EventRecorder ev(obs::EventKind::kAddSwitch, net, net.switch_count());
  auto result = add_switch_impl(net, links, server_count, capacity);
  ev.finish(*this, result.ok() ? Status::Ok() : Status(result.error()),
            result.ok() ? last_migration_ : 0,
            result.ok() ? result.value() : net.switch_count());
  return result;
}

Status Controller::remove_switch(sden::SdenNetwork& net, SwitchId sw) {
  begin_event();
  EventRecorder ev(obs::EventKind::kRemoveSwitch, net, sw);
  const Status status = remove_switch_impl(net, sw);
  ev.finish(*this, status, status.ok() ? last_migration_ : 0);
  return status;
}

Status Controller::add_link(sden::SdenNetwork& net, SwitchId u, SwitchId v,
                            double weight) {
  begin_event();
  EventRecorder ev(obs::EventKind::kAddLink, net, u, v);
  const Status status = add_link_impl(net, u, v, weight);
  ev.finish(*this, status, /*migrated=*/0);
  return status;
}

Status Controller::remove_link(sden::SdenNetwork& net, SwitchId u,
                               SwitchId v) {
  begin_event();
  EventRecorder ev(obs::EventKind::kRemoveLink, net, u, v);
  const Status status = remove_link_impl(net, u, v);
  ev.finish(*this, status, status.ok() ? last_migration_ : 0);
  return status;
}

}  // namespace gred::core
