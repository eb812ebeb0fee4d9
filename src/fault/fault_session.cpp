#include "fault/fault_session.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "sden/hot_key_cache.hpp"

namespace gred::fault {

FaultSession::FaultSession(core::GredSystem& system, FaultPlan plan)
    : system_(&system), plan_(std::move(plan)) {
  state_.seed = plan_.options().seed;
  system_->network().set_fault_state(&state_);
}

FaultSession::~FaultSession() {
  system_->network().set_fault_state(nullptr);
}

Result<std::size_t> FaultSession::advance(std::size_t now) {
  const std::vector<FaultEvent>& events = plan_.events();
  std::size_t applied = 0;
  while (true) {
    const bool can_inject =
        next_inject_ < events.size() && events[next_inject_].at_event <= now;
    const bool can_repair =
        next_repair_ < events.size() && events[next_repair_].repair_at <= now;
    if (!can_inject && !can_repair) break;
    const bool do_inject =
        can_inject &&
        (!can_repair ||
         events[next_inject_].at_event <= events[next_repair_].repair_at);
    std::size_t acted_at = 0;
    if (do_inject) {
      acted_at = events[next_inject_].at_event;
      inject(events[next_inject_]);
      ++next_inject_;
    } else {
      acted_at = events[next_repair_].repair_at;
      Status repaired = repair(events[next_repair_]);
      if (!repaired.ok()) return repaired.error();
      ++next_repair_;
    }
    ++applied;
    // Recovery accounting samples availability at every state change,
    // stamped with the action's own event-clock time.
    if (track_recovery_) scan_recovery(acted_at);
  }
  return applied;
}

Result<std::size_t> FaultSession::finish() {
  return advance(std::numeric_limits<std::size_t>::max());
}

void FaultSession::inject(const FaultEvent& event) {
  bool hard = true;
  switch (event.kind) {
    case FaultKind::kSwitchCrash:
      state_.set_switch_down(event.subject, true);
      break;
    case FaultKind::kLinkDown:
      state_.set_link_drop(event.subject, event.peer, 1.0);
      break;
    case FaultKind::kLinkFlaky:
      state_.set_link_drop(event.subject, event.peer,
                           event.drop_probability);
      hard = false;
      break;
    case FaultKind::kRegionKill:
      // The whole region dies in one timeline step — the correlated
      // analogue of kSwitchCrash.
      for (const topology::SwitchId m : event.members) {
        state_.set_switch_down(m, true);
      }
      break;
    case FaultKind::kPartition:
      // Every link crossing the cut goes hard-down together.
      for (const auto& [u, v] : event.cut_links) {
        state_.set_link_drop(u, v, 1.0);
      }
      break;
  }
  // A hard fault breaks the hot-key cache's coherence contract: a
  // crash destroys the cached holder's data, and a hard link-down
  // precedes a repair that migrates it. Without this bump, a cached
  // pre-crash answer keeps serving a payload whose only copy just
  // died, masking the outage (and corrupting RPO accounting). Flaky
  // links keep data intact and reachable, so they don't invalidate.
  if (hard) {
    if (sden::HotKeyCache* cache = system_->network().hot_key_cache()) {
      cache->invalidate_all();
    }
  }
  if (obs::enabled()) {
    static obs::Counter& injected =
        obs::registry().counter("fault.injected");
    injected.add();
  }
}

namespace {

/// Erases everything stored on `sw`'s servers — the copies a crash
/// physically destroyed — so the controller teardown's orphan rescue
/// has nothing to save. Returns the number of items wiped.
std::size_t wipe_switch_storage(core::GredSystem& system,
                                topology::SwitchId sw) {
  std::size_t wiped = 0;
  sden::SdenNetwork& net = system.network();
  for (const topology::ServerId sid : net.description().servers_at(sw)) {
    std::vector<std::string> ids;
    ids.reserve(net.server(sid).item_count());
    for (const auto& [id, payload] : net.server(sid).items()) {
      ids.push_back(id);
    }
    for (const std::string& id : ids) net.erase_item(sid, id);
    wiped += ids.size();
  }
  return wiped;
}

}  // namespace

Status FaultSession::repair(const FaultEvent& event) {
  switch (event.kind) {
    case FaultKind::kSwitchCrash: {
      // The crash destroyed the switch's storage: wipe its servers
      // before the controller tears it down, so remove_switch's
      // graceful orphan rescue has nothing to save and the data is
      // genuinely lost unless replicas exist elsewhere.
      items_wiped_ += wipe_switch_storage(*system_, event.subject);
      Status removed = system_->remove_switch(event.subject);
      if (!removed.ok()) return removed;
      state_.set_switch_down(event.subject, false);
      break;
    }
    case FaultKind::kLinkDown: {
      Status removed = system_->remove_link(event.subject, event.peer);
      if (!removed.ok()) return removed;
      state_.clear_link(event.subject, event.peer);
      break;
    }
    case FaultKind::kLinkFlaky:
      // Transient loss subsides on its own; the topology is intact.
      state_.clear_link(event.subject, event.peer);
      break;
    case FaultKind::kRegionKill: {
      // Every member crashed at inject time, so wipe ALL their storage
      // before any teardown: a mid-repair reconcile pass must never
      // find a "surviving" copy on a switch that is merely later in the
      // removal order — that would resurrect destroyed data. Then
      // replay the generator's removal order, every prefix of which
      // keeps the survivors connected.
      for (const topology::SwitchId m : event.members) {
        items_wiped_ += wipe_switch_storage(*system_, m);
      }
      for (const topology::SwitchId m : event.members) {
        Status removed = system_->remove_switch(m);
        if (!removed.ok()) return removed;
        state_.set_switch_down(m, false);
      }
      break;
    }
    case FaultKind::kPartition:
      // The cut heals: links come back as one correlated restore. The
      // topology was never changed, so there is no controller surgery
      // — just the data plane clearing.
      for (const auto& [u, v] : event.cut_links) {
        state_.clear_link(u, v);
      }
      break;
  }
  if (obs::enabled()) {
    static obs::Counter& repaired =
        obs::registry().counter("fault.repaired");
    repaired.add();
  }
  return Status::Ok();
}

void FaultSession::enable_recovery_tracking() {
  track_recovery_ = true;
  scan_recovery(0);  // baseline: everything placed so far, healthy
}

void FaultSession::scan_recovery(std::size_t now) {
  const auto& net = system_->network();
  const auto& desc = net.description();
  const std::size_t n = desc.switch_count();

  // Reachable = up and inside the largest connected component of the
  // up topology with hard-down links removed (what a surviving ingress
  // can actually route in). Partitions make this non-trivial.
  std::vector<std::uint8_t> up(n, 0);
  for (topology::SwitchId s = 0; s < n; ++s) {
    up[s] = state_.switch_is_down(s) ? 0 : 1;
  }
  std::vector<std::uint32_t> comp(n, 0);  // 0 = unvisited
  std::uint32_t next_comp = 0;
  std::uint32_t best_comp = 0;
  std::size_t best_size = 0;
  std::vector<topology::SwitchId> stack;
  for (topology::SwitchId s = 0; s < n; ++s) {
    if (up[s] == 0 || comp[s] != 0) continue;
    ++next_comp;
    comp[s] = next_comp;
    stack.assign(1, s);
    std::size_t size = 0;
    while (!stack.empty()) {
      const topology::SwitchId u = stack.back();
      stack.pop_back();
      ++size;
      for (const graph::EdgeTo& e : desc.switches().neighbors(u)) {
        const auto v = static_cast<topology::SwitchId>(e.to);
        if (up[v] == 0 || comp[v] != 0) continue;
        if (state_.link_drop_probability(u, v) >= 1.0) continue;
        comp[v] = next_comp;
        stack.push_back(v);
      }
    }
    if (size > best_size) {
      best_size = size;
      best_comp = next_comp;
    }
  }

  // Count reachable copies per item over attached servers only (a
  // removed switch keeps no attached servers, so teardown naturally
  // drops its storage from the census).
  std::map<std::string, std::size_t> reachable;
  for (topology::SwitchId s = 0; s < n; ++s) {
    const bool ok = up[s] != 0 && comp[s] == best_comp;
    for (const topology::ServerId sid : desc.servers_at(s)) {
      for (const auto& [id, payload] : net.server(sid).items()) {
        auto [it, inserted] = reachable.emplace(id, 0);
        if (ok) ++it->second;
        (void)inserted;
      }
    }
  }
  for (const auto& [id, copies] : reachable) {
    (void)copies;
    recovery_.emplace(id, RecoveryRecord{});
  }

  const std::size_t target =
      std::min(system_->controller().replication_factor(),
               system_->controller().space().participants().size());
  for (auto& [id, rec] : recovery_) {
    const auto it = reachable.find(id);
    const std::size_t copies = it == reachable.end() ? 0 : it->second;
    rec.lost = copies == 0;
    if (copies == 0) {
      if (rec.first_unavailable == RecoveryRecord::kNever) {
        rec.first_unavailable = now;
      }
      rec.degraded = true;
    } else if (copies < target) {
      rec.degraded = true;
    } else if (rec.degraded) {
      rec.restored_at = now;
      rec.degraded = false;
    }
  }
}

std::size_t FaultSession::items_ever_unavailable() const {
  std::size_t count = 0;
  for (const auto& [id, rec] : recovery_) {
    if (rec.first_unavailable != RecoveryRecord::kNever) ++count;
  }
  return count;
}

std::size_t FaultSession::items_lost() const {
  std::size_t count = 0;
  for (const auto& [id, rec] : recovery_) {
    if (rec.lost) ++count;
  }
  return count;
}

}  // namespace gred::fault
