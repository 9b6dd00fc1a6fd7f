// The reference event queue: the obviously-correct differential oracle for
// sim::EventEngine.
//
// A binary heap of std::function closures with the engine's exact
// observable contract: timestamp order, FIFO tie-break at equal times,
// reentrant scheduling, run_until's <=-deadline semantics and advance_to's
// external events.  The library runs every simulator on the calendar-queue
// sim::EventEngine; this header lives with the tests as the oracle of the
// randomized differential test in event_engine_test.cpp, and as the heap
// baseline in bench_event_queue.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "util/units.hpp"

namespace lp::sim {

class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Schedule `fn` to run at absolute time `when`.
  void schedule_at(TimePoint when, Callback fn) {
    heap_.push(Item{when, next_seq_++, std::move(fn)});
  }

  /// Schedule `fn` to run `delay` after the current time.
  void schedule_in(Duration delay, Callback fn) {
    schedule_at(now_ + delay, std::move(fn));
  }

  /// Current simulation time (the timestamp of the event being processed,
  /// or of the last processed event).
  [[nodiscard]] TimePoint now() const { return now_; }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }

  /// Process events in timestamp order until the queue drains or
  /// `max_events` have run.  Returns the number of events processed.
  std::size_t run(std::size_t max_events = SIZE_MAX) {
    std::size_t processed = 0;
    while (!heap_.empty() && processed < max_events) {
      dispatch_top();
      ++processed;
    }
    return processed;
  }

  /// Process events with timestamp <= `until`.
  std::size_t run_until(TimePoint until) {
    std::size_t processed = 0;
    while (!heap_.empty() && heap_.top().when <= until) {
      dispatch_top();
      ++processed;
    }
    return processed;
  }

  /// The sequence number the next schedule_at() would take.
  [[nodiscard]] std::uint64_t reserve_seq() { return next_seq_++; }

  /// Runs every event that precedes (when, seq), then sets now() to `when`.
  std::size_t advance_to(TimePoint when, std::uint64_t seq) {
    std::size_t processed = 0;
    while (!heap_.empty() && (heap_.top().when < when ||
                              (heap_.top().when == when && heap_.top().seq < seq))) {
      dispatch_top();
      ++processed;
    }
    now_ = when;
    return processed;
  }

 private:
  struct Item {
    TimePoint when;
    std::uint64_t seq;  ///< FIFO tie-break for equal timestamps
    Callback fn;
  };
  struct Later {
    bool operator()(const Item& a, const Item& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  void dispatch_top() {
    // Move out before pop: top() is const-qualified so a plain copy would
    // deep-copy the std::function closure on every dispatch.  Moving from
    // the element is safe because pop() runs before anything can observe
    // the moved-from state, and it must happen before the callback runs —
    // the callback may schedule new events and reshape the heap.
    Item item = std::move(const_cast<Item&>(heap_.top()));
    heap_.pop();
    now_ = item.when;
    item.fn();
  }

  std::priority_queue<Item, std::vector<Item>, Later> heap_;
  TimePoint now_{};
  std::uint64_t next_seq_{0};
};

}  // namespace lp::sim
