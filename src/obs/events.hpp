// Dynamics event log: an audit trail of every Section VI topology
// change and Section V-B range-extension change the controller
// executes. Each entry records what was asked, whether it succeeded,
// how many switches its delta patched, how many items migrated, and the
// installed flow-entry count before and after — enough to reconstruct
// what a reconfiguration actually did to the data plane.
//
// Control-plane rate only (a handful of events per churn op), so a
// mutex-guarded vector is the right tool; entries are appended only
// while obs::enabled() is on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace gred::obs {

enum class EventKind : std::uint8_t {
  kAddSwitch,
  kRemoveSwitch,
  kAddLink,
  kRemoveLink,
  kExtendRange,
  kRetractRange,
};

const char* event_kind_name(EventKind kind);

struct DynamicsEvent {
  std::uint64_t seq = 0;  ///< assigned by the log, append order
  EventKind kind = EventKind::kAddSwitch;
  bool ok = false;            ///< the operation returned Status Ok
  std::string status;         ///< status message when !ok, else empty
  /// Primary subject: the switch added/removed, the u of a link op,
  /// or the overloaded server of an extension.
  std::uint32_t subject = 0;
  /// Secondary subject: the v of a link op, the delegate server of an
  /// extension; 0 otherwise.
  std::uint32_t peer = 0;
  /// Switches whose flow tables the op patched
  /// (Controller::last_affected_switches()); 0 when it failed.
  std::size_t patched = 0;
  std::size_t migrated = 0;        ///< items moved by the op
  std::size_t entries_before = 0;  ///< installed flow entries, pre-op
  std::size_t entries_after = 0;   ///< installed flow entries, post-op
  double duration_ms = 0.0;
};

class EventLog {
 public:
  /// Appends (assigning seq) and returns the entry's seq.
  std::uint64_t append(DynamicsEvent ev);

  std::vector<DynamicsEvent> snapshot() const;
  std::size_t size() const;
  void clear();

 private:
  mutable gred::Mutex mu_;
  std::vector<DynamicsEvent> events_ GRED_GUARDED_BY(mu_);
  std::uint64_t next_seq_ GRED_GUARDED_BY(mu_) = 0;
};

/// The process-wide log the controller appends to.
EventLog& event_log();

}  // namespace gred::obs
