// A minimal discrete-event engine. The response-delay experiments
// (Fig. 8) replay retrieval requests through it with per-link latency
// and FIFO queueing at servers, which is what the testbed's wall-clock
// measurements capture.
//
// Engineered for replay throughput: events live in a 4-ary implicit
// min-heap (shallower than a binary heap, children share a cache
// line), handlers are move-only SmallFunctions (no per-event heap
// allocation for the simulator's capture sizes), and reserve() lets a
// replay pre-size the storage for its request count.
#pragma once

#include <cstddef>
#include <vector>

#include "common/small_function.hpp"

namespace gred::sden {

class EventQueue {
 public:
  using Handler = SmallFunction<void()>;

  /// Schedules `handler` at absolute time `t` (>= now; earlier times
  /// are clamped to now to keep time monotonic).
  void schedule_at(double t, Handler handler);

  /// Schedules `handler` at now() + dt.
  void schedule_after(double dt, Handler handler);

  /// Pre-sizes the event storage (e.g. to the replay's request count).
  void reserve(std::size_t events) { heap_.reserve(events); }

  /// Runs the earliest event; false when the queue is empty.
  bool step();

  /// Runs until no events remain.
  void run();

  double now() const { return now_; }
  std::size_t pending() const { return heap_.size(); }
  std::size_t processed() const { return processed_; }

 private:
  struct Event {
    double time;
    std::size_t seq;  ///< FIFO tie-break for simultaneous events
    Handler handler;
  };

  /// Strict (time, seq) order — seq makes it total, so simultaneous
  /// events run first-scheduled-first.
  static bool earlier(const Event& a, const Event& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  void sift_up(std::size_t i);
  void sift_down(std::size_t i);

  std::vector<Event> heap_;  ///< 4-ary min-heap: children of i are 4i+1..4i+4
  double now_ = 0.0;
  std::size_t next_seq_ = 0;
  std::size_t processed_ = 0;
};

}  // namespace gred::sden
