// Order-sensitive folds over simulator reports, shared by the digest pins
// (driver_pin_test.cpp) and the thread-count matrix (determinism_test.cpp).
// Each suite seeds its own fold, so their constants stay independent.
#pragma once

#include <bit>
#include <cstdint>

#include "lightpath/types.hpp"
#include "serve/serving_sim.hpp"
#include "util/units.hpp"

namespace lp::test {

/// Order-sensitive fold over report fields, starting from `Seed`.
template <std::uint64_t Seed>
struct Fold {
  std::uint64_t h{Seed};
  void add(std::uint64_t v) { h = fabric::hash_mix(h, v); }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(Duration d) { add(d.to_seconds()); }
};

/// Folds every ServingReport field, the latency stream included.
template <std::uint64_t Seed>
std::uint64_t fold_serving(const serve::ServingReport& r) {
  Fold<Seed> f;
  f.add(r.arrival_rate);
  for (std::uint64_t c :
       {r.offered, r.completed, r.met_slo, r.abandoned, r.in_flight_at_end, r.rounds,
        r.kv_migrations, r.expert_sends, r.send_failures, r.expert_ring_rounds,
        r.kv_striped, r.fault_events, r.detections, r.repairs, r.repair_failures,
        r.churn_flushes, r.replicas_offline, r.flap_episodes, r.flap_transitions,
        r.flap_repairs, r.suppressed_repairs, r.quarantines,
        r.transient_repair_failures, r.host.messages, r.host.hits, r.host.misses,
        r.host.evictions, r.digest}) {
    f.add(c);
  }
  for (Duration d : {r.stall_time, r.flap_stall, r.p50, r.p99, r.p999, r.max_latency,
                     r.host.reconfig_time, r.host.transfer_time}) {
    f.add(d);
  }
  for (double s : r.latencies) f.add(s);
  return f.h;
}

}  // namespace lp::test
