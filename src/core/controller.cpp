#include "core/controller.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "check/invariants.hpp"
#include "common/thread_pool.hpp"
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
/// gone. Items on a dropped delegate are not stranded: the reconcile
/// pass re-homes them because their placement no longer has an active
/// rewrite.
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

/// Every installed rewrite, with the switch holding it.
std::vector<std::pair<SwitchId, sden::RewriteEntry>> installed_rewrites(
    const sden::SdenNetwork& net) {
  std::vector<std::pair<SwitchId, sden::RewriteEntry>> out;
  for (SwitchId sw = 0; sw < net.switch_count(); ++sw) {
    for (const sden::RewriteEntry& rw :
         net.const_switch_at(sw).table().rewrites()) {
      out.emplace_back(sw, rw);
    }
  }
  return out;
}

/// `key`'s placement at home switch `sw`: H(d) mod s picks h, and h's
/// rewrite, if one is installed, picks t.
Result<Controller::Placement> place_at(const sden::SdenNetwork& net,
                                       const crypto::DataKey& key,
                                       SwitchId sw) {
  const auto& servers = net.description().servers_at(sw);
  if (servers.empty()) {
    return Error(ErrorCode::kInternal, "home switch has no servers");
  }
  Controller::Placement p;
  p.sw = sw;
  p.server = servers[static_cast<std::size_t>(key.mod(servers.size()))];
  const sden::RewriteEntry* rw =
      net.const_switch_at(sw).table().find_rewrite(p.server);
  p.target = rw != nullptr ? rw->replacement : p.server;
  return p;
}

/// `p`'s cell of a g x g partition of the unit square.
std::size_t region_cell(const Point2D& p, std::size_t g) {
  const auto clamp_axis = [g](double v) {
    if (!(v > 0.0)) return std::size_t{0};  // also catches NaN
    const std::size_t cell =
        static_cast<std::size_t>(v * static_cast<double>(g));
    return cell >= g ? g - 1 : cell;
  };
  return clamp_axis(p.x) + g * clamp_axis(p.y);
}

/// Controller::replica_homes of position `p` over `space` under `opts`.
std::vector<SwitchId> replica_homes_in(const VirtualSpace& space,
                                       const ReplicationOptions& opts,
                                       const Point2D& p) {
  const std::size_t k = opts.factor;
  if (!opts.region_diverse || k <= 1) {
    return space.nearest_participants(p, k);
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
  const std::size_t n = space.participants().size();
  std::size_t fetch = std::min(n, std::max<std::size_t>(4 * k, 8));
  for (;;) {
    const std::vector<SwitchId> cand = space.nearest_participants(p, fetch);
    std::vector<SwitchId> homes;
    std::vector<std::size_t> used_regions;
    homes.reserve(k);
    for (const SwitchId sw : cand) {
      if (homes.size() == k) break;
      const std::size_t r =
          region_cell(space.positions()[space.index_of(sw)], opts.region_grid);
      if (std::find(used_regions.begin(), used_regions.end(), r) !=
          used_regions.end()) {
        continue;
      }
      homes.push_back(sw);
      used_regions.push_back(r);
    }
    if (homes.size() == k || fetch == n) {
      for (const SwitchId sw : cand) {
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
  const crypto::SpacePoint pos = key.position();
  return place_at(net, key, home_switch({pos.x, pos.y}));
}

Status Controller::placements(const sden::SdenNetwork& net,
                              const crypto::DataKey& key,
                              std::vector<Placement>& out) const {
  out.clear();
  if (!initialized_) {
    return Status(ErrorCode::kFailedPrecondition,
                  "Controller not initialized");
  }
  const auto add = [&](SwitchId sw) {
    auto p = place_at(net, key, sw);
    if (!p.ok()) return Status(p.error());
    out.push_back(p.value());
    return Status::Ok();
  };
  // One copy needs one nearest-site query, not a candidate list.
  if (replication_factor() == 1) {
    const crypto::SpacePoint pos = key.position();
    return add(home_switch({pos.x, pos.y}));
  }
  for (const SwitchId sw : replica_homes(key)) {
    const Status added = add(sw);
    if (!added.ok()) return added;
  }
  return Status::Ok();
}

check::CheckReport Controller::validate_placement(
    const sden::SdenNetwork& net) const {
  std::vector<Placement> homes;
  return check::validate_placement(net, [&](const std::string& id) {
    std::vector<check::HomeServers> out;
    if (placements(net, crypto::DataKey(id), homes).ok()) {
      for (const Placement& p : homes) out.push_back({p.server, p.target});
    }
    return out;
  });
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
  Checkpoint cp = checkpoint(net);
  replication_ = opts;
  const Status reconciled = reconcile(net, cp);
  if (!reconciled.ok()) {
    cp.moves.undo(net);
    replication_ = cp.replication;
  }
  return reconciled;
}

std::size_t Controller::region_of(const geometry::Point2D& p) const {
  return region_cell(p, replication_.region_grid);
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
  return replica_homes_in(space_, replication_, {pos.x, pos.y});
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

Status Controller::reconcile(sden::SdenNetwork& net, Checkpoint& cp) {
  // 1. Scan every stored copy, server-major. A copy on a home's h or t
  // whose item has every home held needs nothing; every other item is
  // collected, in order of first sight, with its misplaced copies.
  struct Pending {
    std::string id;
    std::vector<ServerId> misplaced;
  };
  std::vector<Pending> pending;
  std::unordered_map<std::string, std::size_t> pending_at;
  std::vector<Placement> homes;
  for (ServerId s = 0; s < net.server_count(); ++s) {
    for (const auto& [id, payload] : net.server(s).items()) {
      const Status placed = placements(net, crypto::DataKey(id), homes);
      if (!placed.ok()) return placed;
      const auto here = [s](const Placement& p) {
        return p.server == s || p.target == s;
      };
      const bool in_place = std::any_of(homes.begin(), homes.end(), here);
      if (in_place &&
          std::all_of(homes.begin(), homes.end(), [&](const Placement& p) {
            return here(p) || net.server(p.server).contains(id) ||
                   net.server(p.target).contains(id);
          })) {
        continue;
      }
      const auto [at, fresh] = pending_at.try_emplace(id, pending.size());
      if (fresh) pending.push_back({id, {}});
      if (!in_place) pending[at->second].misplaced.push_back(s);
    }
  }

  // 2. Plan each collected item. `held` lists the servers that hold it
  // once the moves apply, each marked when its copy is one that reads
  // returned (an answered holder, or the target of an answered copy).
  // Nothing has moved yet, so storage is as the op found it. Which copy
  // wins matters only when the item has two or more; only then are the
  // answered ones found, at each home of `cp`: a retrieval queried h and
  // t and answered from t if t held a copy (the last of its two
  // targets), else from h.
  std::vector<std::pair<std::size_t, ServerId>> drops;
  std::vector<std::tuple<std::size_t, ServerId, ServerId>> copies;
  std::vector<std::pair<ServerId, bool>> held;
  std::vector<ServerId> returned;
  const auto answered = [&returned](ServerId s) {
    return std::find(returned.begin(), returned.end(), s) != returned.end();
  };
  for (std::size_t i = 0; i < pending.size(); ++i) {
    const std::string& id = pending[i].id;
    std::vector<ServerId>& misplaced = pending[i].misplaced;
    const crypto::DataKey key(id);
    const Status placed = placements(net, key, homes);
    if (!placed.ok()) return placed;
    held.clear();
    const auto holds = [&held](ServerId s) {
      return std::any_of(held.begin(), held.end(),
                         [s](const auto& h) { return h.first == s; });
    };
    for (const Placement& p : homes) {
      for (const ServerId s : {p.server, p.target}) {
        if (!holds(s) && net.server(s).contains(id)) {
          held.emplace_back(s, false);
        }
      }
    }
    returned.clear();
    if (held.size() + misplaced.size() > 1) {
      const crypto::SpacePoint pos = key.position();
      for (const SwitchId sw :
           replica_homes_in(cp.space, cp.replication, {pos.x, pos.y})) {
        const auto& servers = cp.description.servers_at(sw);
        const ServerId h =
            servers[static_cast<std::size_t>(key.mod(servers.size()))];
        ServerId t = h;
        for (const auto& [at, rw] : cp.rewrites) {
          if (at == sw && rw.original == h) t = rw.replacement;
        }
        if (net.server(t).contains(id)) {
          returned.push_back(t);
        } else if (net.server(h).contains(id)) {
          returned.push_back(h);
        }
      }
      for (auto& h : held) h.second = answered(h.first);
    }
    const auto home_held = [&](const Placement& p, bool need_answered) {
      return std::any_of(held.begin(), held.end(), [&](const auto& h) {
        return (h.first == p.server || h.first == p.target) &&
               (h.second || !need_answered);
      });
    };
    // Answered copies first, each group in scan order.
    std::stable_partition(misplaced.begin(), misplaced.end(), answered);
    std::size_t next = 0;
    const auto move_next = [&](const Placement& p) {
      held.emplace_back(p.target, answered(misplaced[next]));
      cp.moves.move(id, misplaced[next++], p.target);
    };
    // Misplaced copies fill the unheld homes; an answered copy left over
    // replaces a home's copy that reads did not return.
    for (const Placement& p : homes) {
      if (next < misplaced.size() && !home_held(p, false)) move_next(p);
    }
    for (const Placement& p : homes) {
      if (next < misplaced.size() && answered(misplaced[next]) &&
          !home_held(p, true)) {
        move_next(p);
      }
    }
    for (; next < misplaced.size(); ++next) {
      drops.emplace_back(i, misplaced[next]);
    }
    // Homes still unheld copy from the holder reads returned, if any.
    if (held.empty()) continue;
    const auto source = std::find_if(held.begin(), held.end(),
                                     [](const auto& h) { return h.second; });
    const ServerId from =
        source != held.end() ? source->first : held.front().first;
    for (const Placement& p : homes) {
      if (!home_held(p, false)) {
        copies.emplace_back(i, from, p.target);
        held.emplace_back(p.target, false);
      }
    }
  }

  // 3. Apply in scan order: moves, then drops, then copies.
  for (const auto& [i, from] : drops) cp.moves.drop(pending[i].id, from);
  const auto moved = cp.moves.apply(net);
  if (!moved.ok()) return moved.error();
  last_migration_ = moved.value();
  for (const auto& [i, from, to] : copies) {
    cp.moves.copy(pending[i].id, from, to);
  }
  const auto copied = cp.moves.apply(net);
  if (!copied.ok()) return copied.error();
  return Status::Ok();
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
  // unreachable through the home server — so the reconcile pass pulls
  // every out-of-place copy back.
  return commit_topology_event(net, delta, cp);
}

Status Controller::commit_topology_event(sden::SdenNetwork& net,
                                         const GraphDelta& delta,
                                         Checkpoint& cp) {
  const Status rebuilt = rebuild_and_install_incremental(net, delta);
  if (!rebuilt.ok()) return roll_back(net, cp, rebuilt);
  const Status moved = [&] {
    const obs::ScopedPhaseTimer timer("migrate");
    return reconcile(net, cp);
  }();
  if (!moved.ok()) return roll_back(net, cp, moved);
  GRED_CHECK(validate_placement(net));
  return Status::Ok();
}

Controller::Checkpoint Controller::checkpoint(
    const sden::SdenNetwork& net) const {
  Checkpoint cp;
  cp.description = net.description();
  cp.space = space_;
  cp.rewrites = installed_rewrites(net);
  cp.replication = replication_;
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
  // A rollback undoes the item moves before the new switch's servers
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
  // items, so the reconcile pass re-places these orphans along with
  // every copy whose home changed — onto the same rewrite-aware
  // targets, with store() enforcing each target's capacity.
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
      if (const std::string* old = net.server(step.to).find(step.id)) {
        step.payload = *old;
        step.overwrote = true;
      }
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
    std::string moved;
    if (step.kind == Kind::kMove) {
      if (auto copy = net.server(step.to).fetch(step.id)) {
        moved = std::move(*copy);
      }
    }
    if (step.kind != Kind::kDrop && step.overwrote) {
      (void)net.store_item(step.to, step.id, std::move(step.payload));
    } else if (step.kind != Kind::kDrop) {
      net.erase_item(step.to, step.id);
    }
    if (step.kind == Kind::kMove) {
      (void)net.store_item(step.from, step.id, std::move(moved));
    } else if (step.kind == Kind::kDrop) {
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
