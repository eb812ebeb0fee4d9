#include "obs/events.hpp"

namespace gred::obs {

const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kAddSwitch:
      return "add_switch";
    case EventKind::kRemoveSwitch:
      return "remove_switch";
    case EventKind::kAddLink:
      return "add_link";
    case EventKind::kRemoveLink:
      return "remove_link";
    case EventKind::kExtendRange:
      return "extend_range";
    case EventKind::kRetractRange:
      return "retract_range";
  }
  return "unknown";
}

std::uint64_t EventLog::append(DynamicsEvent ev) {
  gred::MutexLock lock(mu_);
  ev.seq = next_seq_++;
  events_.push_back(std::move(ev));
  return events_.back().seq;
}

std::vector<DynamicsEvent> EventLog::snapshot() const {
  gred::MutexLock lock(mu_);
  return events_;
}

std::size_t EventLog::size() const {
  gred::MutexLock lock(mu_);
  return events_.size();
}

void EventLog::clear() {
  gred::MutexLock lock(mu_);
  events_.clear();
  next_seq_ = 0;
}

EventLog& event_log() {
  static EventLog instance;
  return instance;
}

}  // namespace gred::obs
