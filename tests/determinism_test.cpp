// Thread-count invariance of the four fault-driven sweeps with every knob on.
//
// Each simulator promises a report that is bit-identical at any thread
// count.  The per-module `*AtAnyThreadCount` tests check that mostly at
// default knobs; here the resilience, gray, serving and cluster sweeps run
// with flaps on in both hysteresis arms, BER bursts on (the GrayModelParams
// default), jittered rung backoff and, for the cluster, slice morphing.
// Each sweep runs at 1, 2 and 8 threads and an order-sensitive fold of every
// field of every point must match.  Each test also asserts that the knobs
// reach their branches, so the matrix cannot go stale by no longer
// exercising them.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>

#include "cluster/scheduler.hpp"
#include "lightpath/types.hpp"
#include "runtime/training_run.hpp"
#include "report_fold.hpp"
#include "serve/serving_sim.hpp"

namespace lp {
namespace {

constexpr std::uint64_t kFoldSeed = 0xde7e2a1d15c0ffeeULL;
using Fold = test::Fold<kFoldSeed>;

/// Folds the sweep at 1, 2 and 8 threads and expects one value.
void expect_thread_invariant(const std::function<std::uint64_t(unsigned)>& sweep) {
  const std::uint64_t serial = sweep(1);
  for (const unsigned threads : {2u, 8u}) {
    EXPECT_EQ(sweep(threads), serial) << threads << " threads";
  }
}

void jittered_backoff(runtime::RecoveryPolicy& recovery) {
  recovery.rung_backoff.base = Duration::micros(50.0);
  recovery.rung_backoff.jitter_fraction = 0.5;
}

runtime::RunConfig training_base() {
  runtime::RunConfig c;
  c.ring_tiles_per_wafer = 8;
  c.iterations = 300;
  c.flap_rate_per_hour = 60.0;
  jittered_backoff(c.recovery);
  return c;
}

TEST(Determinism, ResilienceSweepAllKnobs) {
  for (const bool hysteresis : {true, false}) {
    runtime::ResilienceSweepConfig config;
    config.base = training_base();
    config.base.gray_hysteresis = hysteresis;
    config.mtbf_points = {0.02, 0.2};
    config.trials = 2;
    std::uint64_t flap_sensitive = 0;
    expect_thread_invariant([&](unsigned threads) {
      config.threads = threads;
      const runtime::ResilienceSweepReport report = runtime::run_resilience_sweep(config);
      EXPECT_EQ(report.points.size(), 4u);
      Fold f;
      flap_sensitive = 0;
      for (const runtime::MtbfPointReport& pt : report.points) {
        f.add(pt.mtbf_hours);
        f.add(static_cast<std::uint64_t>(pt.policy));
        f.add(std::uint64_t{pt.trials});
        for (double v : {pt.goodput_mean, pt.goodput_min, pt.goodput_max,
                         pt.lost_redo_seconds, pt.lost_detection_seconds,
                         pt.lost_recovery_seconds, pt.recover_p50_seconds,
                         pt.recover_p99_seconds}) {
          f.add(v);
        }
        for (std::uint64_t c :
             {pt.fault_events, pt.detections, pt.rollbacks, pt.elastic_shrinks,
              pt.migrations, pt.transient_repair_failures, pt.suppressed_repairs,
              pt.quarantines}) {
          f.add(c);
        }
        for (std::uint64_t c : pt.recovered_by) f.add(c);
        flap_sensitive += pt.transient_repair_failures;
      }
      return f.h;
    });
    EXPECT_GT(flap_sensitive, 0u) << "flap climbs must fail transiently";
  }
}

TEST(Determinism, GraySweepAllKnobs) {
  runtime::GraySweepConfig config;
  config.base = training_base();
  config.base.mtbf_hours = 0.1;
  config.flap_rates_per_hour = {16.0, 128.0};
  config.trials = 2;
  std::uint64_t ber_bursts = 0;
  std::uint64_t misclassifications = 0;
  std::uint64_t suppressed = 0;
  expect_thread_invariant([&](unsigned threads) {
    config.threads = threads;
    const runtime::GraySweepReport report = runtime::run_gray_sweep(config);
    EXPECT_EQ(report.points.size(), 4u);
    ber_bursts = misclassifications = suppressed = 0;
    for (const runtime::GrayPointReport& pt : report.points) {
      ber_bursts += pt.ber_bursts;
      misclassifications += pt.misclassifications;
      suppressed += pt.suppressed_repairs;
    }
    return report.digest();  // folds every field of every point
  });
  EXPECT_GT(ber_bursts, 0u);
  EXPECT_GT(misclassifications, 0u) << "the naive arm must misclassify";
  EXPECT_GT(suppressed, 0u) << "the damped arm must suppress";
}

TEST(Determinism, ServingSweepAllKnobs) {
  for (const bool hysteresis : {true, false}) {
    serve::ServingSweepConfig config;
    serve::ServingParams& p = config.base;
    p.replicas = 4;
    p.tiles_per_replica = 4;
    p.batch_capacity = 16;
    p.horizon = Duration::millis(10.0);
    p.drain = Duration::millis(20.0);
    p.host.max_peers = 4;
    p.expert_peers = 2;
    p.mtbf_hours = 2e-5;
    p.flap_rate_per_hour = 2e5;
    p.gray_hysteresis = hysteresis;
    jittered_backoff(p.recovery);
    config.arrival_rates = {20e3, 80e3};
    std::uint64_t faults = 0;
    std::uint64_t flaps = 0;
    expect_thread_invariant([&](unsigned threads) {
      config.threads = threads;
      const serve::ServingSweepReport report = serve::run_serving_sweep(config);
      EXPECT_EQ(report.points.size(), 2u);
      Fold f;
      faults = flaps = 0;
      for (const serve::ServingReport& r : report.points) {
        f.add(test::fold_serving<kFoldSeed>(r));
        faults += r.fault_events;
        flaps += r.flap_transitions;
      }
      return f.h;
    });
    EXPECT_GT(faults, 0u);
    EXPECT_GT(flaps, 0u);
  }
}

TEST(Determinism, ClusterSweepAllKnobs) {
  for (const bool hysteresis : {true, false}) {
    cluster::ClusterSweepConfig config;
    cluster::ClusterParams& p = config.base;
    p.cluster.racks = 4;
    p.horizon = Duration::seconds(60.0);
    p.drain = Duration::seconds(60.0);
    p.arrival_rate_per_s = 4.0;
    p.service_mean = Duration::seconds(30.0);
    p.service_min = Duration::seconds(2.0);
    p.fabric_wafers = 2;
    p.flap_rate_per_hour = 600.0;
    p.gray_hysteresis = hysteresis;
    p.morph_enabled = true;
    jittered_backoff(p.recovery);
    config.mtbf_points = {0.05, 0.5};
    config.trials = 1;
    std::uint64_t faults = 0;
    std::uint64_t morphs = 0;
    expect_thread_invariant([&](unsigned threads) {
      config.threads = threads;
      const cluster::ClusterSweepReport report = cluster::run_cluster_sweep(config);
      EXPECT_EQ(report.points.size(), 4u);
      Fold f;
      f.add(report.digest);
      faults = morphs = 0;
      for (const cluster::ClusterPointReport& pt : report.points) {
        f.add(pt.mtbf_hours);
        f.add(static_cast<std::uint64_t>(pt.policy));
        f.add(std::uint64_t{pt.trials});
        for (double v : {pt.accepted_load_mean, pt.goodput_mean, pt.queue_delay_p50_s,
                         pt.queue_delay_p99_s, pt.frag_stranding_avg,
                         pt.utilization_avg}) {
          f.add(v);
        }
        for (std::uint64_t c : {pt.completed, pt.offered, pt.requeues, pt.aborted,
                                pt.morphs, pt.elastic_shrinks, pt.migrations,
                                pt.fault_events}) {
          f.add(c);
        }
        faults += pt.fault_events;
        morphs += pt.morphs;
      }
      return f.h;
    });
    EXPECT_GT(faults, 0u);
    EXPECT_GT(morphs, 0u) << "faults must reach the morph path";
  }
}

}  // namespace
}  // namespace lp
