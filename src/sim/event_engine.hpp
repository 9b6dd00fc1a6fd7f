// The library's one discrete-event core: a hierarchical calendar (bucket)
// queue over slab-allocated event records with a small-buffer handler type.
// All three fault-driven simulators dispatch through it (TrainingRun,
// serve::ServingSim, cluster::ClusterScheduler), as does the decentralized
// router, and they share one Poisson re-arm, arm() below.
//
// The original lp::sim::EventQueue (now tests/event_queue.hpp, the reference
// oracle) is a std::priority_queue of std::function closures: every
// schedule heap-allocates a closure, every dispatch pays O(log n) sift-down
// plus a std::function move, and at millions of pending events the heap's
// pointer-chasing comparisons dominate.  The serving simulator needs to
// process tens of millions of events per wall-clock second, so this engine
// replaces the heap with the classic calendar-queue design (R. Brown, CACM
// 1988) tuned for that regime:
//
//   * Event records live in a chunked slab (indices, not pointers; records
//     never move until freed) and are recycled through a free list — zero
//     per-event heap traffic in steady state.
//   * Handlers are InlineHandler: a move-only callable with 32 bytes of
//     inline storage.  Every lambda the simulator schedules fits inline;
//     oversized callables fall back to one heap allocation.
//   * The bucket array adapts: it doubles when occupancy exceeds two events
//     per bucket, halves when it drops below one half, and re-derives the
//     bucket width from the observed inter-event gaps on every resize, so
//     enqueue/dequeue stay O(1) amortized for the stationary arrival
//     processes simulations produce.
//
// Observable contract (identical to EventQueue, verified by a randomized
// differential test in tests/event_engine_test.cpp):
//
//   * Events run in ascending timestamp order; equal timestamps run in
//     schedule (FIFO) order, across bucket boundaries and resizes.
//   * Callbacks may schedule freely, including at exactly now() (the new
//     event runs later in the same run(), after every event already due at
//     that instant) and in the past (the event is simply the next minimum).
//   * run_until(t) runs every event with timestamp <= t, including events
//     scheduled exactly at the deadline by other deadline events.
//   * now() is the timestamp of the event being processed (or the last one
//     processed); run_until never advances it past the last dispatch.
//   * advance_to(when, seq) with a seq from reserve_seq() behaves as if the
//     caller's event had been scheduled when the seq was taken and were
//     being dispatched now.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/rng.hpp"
#include "util/units.hpp"

namespace lp::sim {

/// Move-only type-erased `void()` callable with inline storage.  Callables
/// up to kInlineBytes that are nothrow-move-constructible are stored in
/// place; anything larger lives behind a single heap allocation.  Trivially
/// copyable callables (the common case: a few captured pointers) relocate
/// by memcpy and destroy as a no-op — no indirect call on either path.
class InlineHandler {
 public:
  static constexpr std::size_t kInlineBytes = 32;

  InlineHandler() = default;

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineHandler> &&
                                        std::is_invocable_r_v<void, D&>>>
  InlineHandler(F&& f) {  // NOLINT(google-explicit-constructor): mirrors std::function
    if constexpr (sizeof(D) <= kInlineBytes && alignof(D) <= kInlineAlign &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = inline_ops<D>();
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = heap_ops<D>();
    }
  }

  InlineHandler(InlineHandler&& o) noexcept { move_from(o); }
  InlineHandler& operator=(InlineHandler&& o) noexcept {
    if (this != &o) {
      reset();
      move_from(o);
    }
    return *this;
  }
  InlineHandler(const InlineHandler&) = delete;
  InlineHandler& operator=(const InlineHandler&) = delete;
  ~InlineHandler() { reset(); }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  void operator()() { ops_->invoke(buf_); }

  void reset() {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  static constexpr std::size_t kInlineAlign = 8;

  struct Ops {
    void (*invoke)(void*);
    /// Move-construct the stored callable into dst and destroy it in src.
    /// nullptr means the callable is trivially copyable: memcpy the buffer.
    void (*relocate)(void* dst, void* src);
    /// nullptr means trivially destructible: nothing to do.
    void (*destroy)(void*);
  };

  template <typename D>
  [[nodiscard]] static const Ops* inline_ops() {
    if constexpr (std::is_trivially_copyable_v<D>) {
      static constexpr Ops ops{
          [](void* p) { (*std::launder(reinterpret_cast<D*>(p)))(); },
          nullptr,
          nullptr,
      };
      return &ops;
    } else {
      static constexpr Ops ops{
          [](void* p) { (*std::launder(reinterpret_cast<D*>(p)))(); },
          [](void* dst, void* src) {
            D* s = std::launder(reinterpret_cast<D*>(src));
            ::new (dst) D(std::move(*s));
            s->~D();
          },
          [](void* p) { std::launder(reinterpret_cast<D*>(p))->~D(); },
      };
      return &ops;
    }
  }

  template <typename D>
  [[nodiscard]] static const Ops* heap_ops() {
    static constexpr Ops ops{
        [](void* p) { (**std::launder(reinterpret_cast<D**>(p)))(); },
        [](void* dst, void* src) {
          ::new (dst) D*(*std::launder(reinterpret_cast<D**>(src)));
        },
        [](void* p) { delete *std::launder(reinterpret_cast<D**>(p)); },
    };
    return &ops;
  }

  void move_from(InlineHandler& o) noexcept {
    ops_ = o.ops_;
    if (ops_ != nullptr) {
      if (ops_->relocate != nullptr) {
        ops_->relocate(buf_, o.buf_);
      } else {
        std::memcpy(buf_, o.buf_, kInlineBytes);
      }
      o.ops_ = nullptr;
    }
  }

  alignas(kInlineAlign) unsigned char buf_[kInlineBytes]{};
  const Ops* ops_{nullptr};
};

/// Calendar-queue event engine.  Drop-in API match for EventQueue.
class EventEngine {
 public:
  using Callback = InlineHandler;

  EventEngine();
  ~EventEngine();

  EventEngine(const EventEngine&) = delete;
  EventEngine& operator=(const EventEngine&) = delete;

  /// Schedule `fn` to run at absolute time `when`.
  void schedule_at(TimePoint when, Callback fn);

  /// Schedule `fn` to run `delay` after the current time.
  void schedule_in(Duration delay, Callback fn);

  /// Current simulation time (the timestamp of the event being processed,
  /// or of the last processed event).
  [[nodiscard]] TimePoint now() const { return TimePoint::at_seconds(now_s_); }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t pending() const { return size_; }

  /// Process events in timestamp order until the queue drains or
  /// `max_events` have run.  Returns the number of events processed.
  std::size_t run(std::size_t max_events = SIZE_MAX);

  /// Process events with timestamp <= `until`.
  std::size_t run_until(TimePoint until);

  /// External events: a caller that keeps a stream of events outside the
  /// queue (serve::ServingSim's open-loop arrivals) merges it into the
  /// engine's order.  reserve_seq() takes the sequence number a
  /// schedule_at() at this point would have given the event;
  /// advance_to(when, seq) runs every pending event that precedes
  /// (when, seq) in (when, seq) order — reentrant schedules included — then
  /// sets now() to `when`, so the caller dispatches its event exactly where
  /// the engine would have.  Returns the number of events processed.
  [[nodiscard]] std::uint64_t reserve_seq() { return next_seq_++; }
  std::size_t advance_to(TimePoint when, std::uint64_t seq);

  /// Introspection for tests and the microbench: current bucket-array size
  /// and bucket width (seconds).
  [[nodiscard]] std::size_t bucket_count() const { return nbuckets_; }
  [[nodiscard]] double bucket_width() const { return width_; }

 private:
  /// One pending event: a 64-byte (one cache line) slab-resident record
  /// with the handler inline and an intrusive `next` link, so a bucket is
  /// just a head index and insert/resize never allocate (the classic
  /// calendar-queue layout).  The virtual bucket is re-derived from `when`
  /// wherever it is needed — always through the same virtual_bucket()
  /// expression, so the enqueue-time and scan-time mappings agree exactly.
  struct Node {
    double when;
    std::uint64_t seq;
    std::uint32_t next;
    InlineHandler fn;
  };
  static_assert(sizeof(Node) == 64);

  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::size_t kChunkShift = 15;  ///< 32768 events = 2 MiB per chunk
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;
  static constexpr std::size_t kChunkMask = kChunkSize - 1;
  static constexpr std::size_t kMinBuckets = 16;
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 21;

  struct Slot {
    alignas(Node) unsigned char raw[sizeof(Node)];
  };

  [[nodiscard]] Node* at(std::uint32_t idx) {
    return std::launder(reinterpret_cast<Node*>(
        chunks_[idx >> kChunkShift][idx & kChunkMask].raw));
  }

  [[nodiscard]] std::uint32_t alloc_slot();
  [[nodiscard]] std::uint64_t virtual_bucket(double when) const;
  void insert(double when, InlineHandler fn);
  /// Locates the next event in (when, seq) order.  Advances the day cursor
  /// over empty days; never removes.  On success fills the winner's slab
  /// index and its list predecessor (kNil if it is the bucket head).
  /// Returns false only when empty().  The answer is kept (min_idx_) until
  /// a dispatch or resize, and insert keeps it current, so asking again
  /// without dispatching (advance_to before an external event) is O(1).
  [[nodiscard]] bool find_min(std::uint32_t* idx, std::uint32_t* prev);
  /// Full scan for the global minimum; repositions the day cursor on its
  /// day.  Called when a whole calendar year of days turned up empty (the
  /// pending events are all far in the future).
  void locate_min_day();
  /// Rebuild the bucket array with `nbuckets` buckets and a width re-derived
  /// from the pending events' inter-event gaps.
  void resize(std::size_t nbuckets);
  void maybe_grow();
  void maybe_shrink();
  /// Dispatch event `idx` (list predecessor `prev`): unlink, invoke the
  /// handler in place, then free its slot.
  void dispatch(std::uint32_t idx, std::uint32_t prev);
  /// Dispatches events in (when, seq) order while the next one is `due`,
  /// at most `max_events`; the loop behind run, run_until and advance_to.
  template <typename Due>
  std::size_t drain(std::size_t max_events, Due due);

  /// Slab chunks after the first, and a bucket head array of 2 MiB or
  /// more, are 2 MiB-aligned allocations hinted MADV_HUGEPAGE on Linux: at
  /// millions of pending events the slab spans hundreds of megabytes of
  /// randomly-accessed memory, and 4 KiB pages turn every node visit into a
  /// TLB walk.  A small engine stays on 4 KiB pages, so it does not zero a
  /// 2 MiB page per allocation on first touch.
  std::vector<Slot*> chunks_;
  std::vector<std::uint32_t> free_;
  std::uint32_t slab_used_{0};

  std::uint32_t* heads_{nullptr};  ///< bucket list heads into the slab
  std::size_t nbuckets_{0};
  std::vector<std::uint32_t> scratch_;  ///< resize work list, reused
  double width_{1e-6};
  double inv_width_{1e6};  ///< 1/width_: map with a multiply, not a divide
  std::uint64_t cur_vb_{0};  ///< day cursor: the virtual bucket being drained
  /// find_min's last answer and its list predecessor; kNil when unknown.
  std::uint32_t min_idx_{kNil};
  std::uint32_t min_prev_{kNil};
  std::size_t size_{0};
  std::uint64_t next_seq_{0};
  double now_s_{0.0};
};

/// The Poisson re-arm every fault-driven simulator shares: schedules `fn`
/// one Exp(rate) gap of `rng` after `from`, only if that lands strictly
/// before `horizon` (measured from time zero; arrivals, faults and flaps stop
/// there).  An infinite gap is never scheduled, whatever the horizon.
/// Returns the drawn time.
TimePoint arm(EventEngine& engine, TimePoint from, Rng& rng, double rate,
              Duration horizon, EventEngine::Callback fn);

}  // namespace lp::sim
