// FaultSession: replays a FaultPlan against a live GredSystem. The
// session owns the data-plane FaultState and installs it on the
// network for its lifetime; advancing the event clock first *injects*
// due failures (packets start dropping, classified kLinkDown) and then
// *repairs* due events — the delayed controller recompute:
//
//   switch crash -> wipe the dead switch's servers (those copies are
//                   genuinely lost; only replicas survive), then
//                   Controller::remove_switch
//   link down    -> Controller::remove_link
//   flaky link   -> the transient loss clears; no topology change
//
// Each repair also clears the matching data-plane fault, so after a
// fully advanced plan the FaultState is empty again. Every repair is a
// controller dynamics op, so it ends in the controller's reconcile
// pass, which brings surviving items back to the replication factor.
#pragma once

#include <cstddef>
#include <map>
#include <string>

#include "common/error.hpp"
#include "core/system.hpp"
#include "fault/fault_plan.hpp"
#include "sden/fault_state.hpp"

namespace gred::fault {

/// Per-item recovery accounting (RPO/RTO inputs). Times are event-clock
/// indices of the session scans that observed each transition.
struct RecoveryRecord {
  static constexpr std::size_t kNever = static_cast<std::size_t>(-1);
  /// First scan at which zero copies were reachable (kNever = always
  /// available). Items counted here are the recovery *point* exposure.
  std::size_t first_unavailable = kNever;
  /// First scan back at the full replication target after a
  /// degradation; with first_unavailable, yields the recovery time.
  std::size_t restored_at = kNever;
  /// Zero copies reachable at the latest scan (a final true = the
  /// disaster destroyed every copy; the item is gone).
  bool lost = false;
  /// Currently below the replication target (internal bookkeeping,
  /// exposed for diagnostics).
  bool degraded = false;
};

class FaultSession {
 public:
  /// Installs this session's FaultState on `system`'s network. The
  /// system must outlive the session.
  FaultSession(core::GredSystem& system, FaultPlan plan);
  ~FaultSession();

  FaultSession(const FaultSession&) = delete;
  FaultSession& operator=(const FaultSession&) = delete;
  FaultSession(FaultSession&&) = delete;
  FaultSession& operator=(FaultSession&&) = delete;

  /// Applies everything due at or before `now` on the event clock:
  /// injections and repairs interleaved in time order (injections
  /// first on ties, so a zero stale window still injects before it
  /// repairs). Returns the number of actions applied. A failed
  /// controller repair aborts with its status.
  Result<std::size_t> advance(std::size_t now);

  /// Runs the remainder of the plan to completion.
  Result<std::size_t> finish();

  std::size_t injected() const { return next_inject_; }
  std::size_t repaired() const { return next_repair_; }
  bool done() const { return next_repair_ == plan_.events().size(); }

  /// Items wiped from crashed switches' servers so far — copies the
  /// fault genuinely destroyed; only replication can recover them.
  std::size_t items_wiped() const { return items_wiped_; }

  /// Opt-in RPO/RTO accounting: scans item availability after every
  /// applied action (and once now, as the baseline). A copy counts as
  /// reachable when its server is attached to an up switch inside the
  /// largest connected component of the up topology with hard-down
  /// links removed — i.e. the network a surviving ingress can actually
  /// route in. O(servers + items) per action; keep off on hot benches.
  void enable_recovery_tracking();
  bool recovery_tracking() const { return track_recovery_; }
  const std::map<std::string, RecoveryRecord>& recovery() const {
    return recovery_;
  }
  /// Items that at some scan had zero reachable copies (RPO exposure).
  std::size_t items_ever_unavailable() const;
  /// Items with zero copies at the latest scan (destroyed outright).
  std::size_t items_lost() const;

  const FaultPlan& plan() const { return plan_; }
  const sden::FaultState& state() const { return state_; }

 private:
  void inject(const FaultEvent& event);
  Status repair(const FaultEvent& event);
  void scan_recovery(std::size_t now);

  core::GredSystem* system_;
  FaultPlan plan_;
  sden::FaultState state_;
  std::size_t next_inject_ = 0;
  std::size_t next_repair_ = 0;
  std::size_t items_wiped_ = 0;
  bool track_recovery_ = false;
  std::map<std::string, RecoveryRecord> recovery_;
};

}  // namespace gred::fault
