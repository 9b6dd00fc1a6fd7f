// Tests of the runtime layer: the bounded-timeout recovery driver and the
// event-driven training-run simulator (fault timeline -> detection ->
// recovery -> rollback -> goodput accounting).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "collective/schedule.hpp"
#include "core/training_sim.hpp"
#include "fault/fault.hpp"
#include "fault/gray.hpp"
#include "fault/health.hpp"
#include "lightpath/fabric.hpp"
#include "routing/plan_cache.hpp"
#include "routing/repair.hpp"
#include "runtime/recovery.hpp"
#include "runtime/training_run.hpp"
#include "util/parallel.hpp"

namespace lp::runtime {
namespace {

using fabric::Fabric;
using fabric::GlobalTile;

// --- drive_recovery --------------------------------------------------------

TEST(DriveRecovery, RetuneRecoversOnTheFirstClimb) {
  Fabric fab;
  const auto id = fab.connect(GlobalTile{0, 0}, GlobalTile{0, 3}, 2);
  ASSERT_TRUE(id.ok());
  routing::DegradedCircuit victim;
  victim.id = id.value();
  victim.dead_lasers = 2;
  const RecoveryResult res = drive_recovery(fab, victim, RecoveryPolicy{});
  EXPECT_TRUE(res.recovered);
  EXPECT_FALSE(res.fell_through);
  EXPECT_FALSE(res.plan_failure);
  EXPECT_EQ(res.rung, routing::RepairRung::kRetune);
  EXPECT_EQ(res.climbs, 1u);
  EXPECT_EQ(res.backoff_latency, Duration::zero());
  ASSERT_EQ(res.circuits.size(), 1u);
  EXPECT_EQ(res.circuits.front(), id.value());
}

TEST(DriveRecovery, UnknownVictimIsAPlanFailure) {
  Fabric fab;
  routing::DegradedCircuit victim;
  victim.id = 9999;
  const RecoveryResult res = drive_recovery(fab, victim, RecoveryPolicy{});
  EXPECT_TRUE(res.plan_failure);
  EXPECT_FALSE(res.recovered);
  EXPECT_FALSE(res.fell_through);
  EXPECT_EQ(res.climbs, 1u) << "a plan failure is diagnosed on the first climb";
}

// drive_recovery is strictly optical: when every optical rung is out of
// ideas the ladder lands on rung 5, which is reported as fell_through (the
// caller degrades elastically) and charged nothing for migration.
TEST(DriveRecovery, OpticalExhaustionFallsThroughWithoutMigrationCharge) {
  Fabric fab;
  const auto id = fab.connect(GlobalTile{0, 0}, GlobalTile{0, 3}, 2);
  ASSERT_TRUE(id.ok());
  routing::DegradedCircuit victim;
  victim.id = id.value();
  victim.dst_dead = true;  // retune/reroute cannot help, no spares offered
  const RecoveryResult res = drive_recovery(fab, victim, RecoveryPolicy{});
  EXPECT_FALSE(res.recovered);
  EXPECT_TRUE(res.fell_through);
  EXPECT_EQ(res.rung, routing::RepairRung::kRackMigration);
  EXPECT_EQ(fab.circuit(id.value()), nullptr) << "the dead edge is torn down";
  EXPECT_LT(res.total(), Duration::seconds(1.0))
      << "rung 5 is a free sentinel here, not a 600 s migration";
}

TEST(DriveRecovery, BudgetExhaustionBacksOffExponentially) {
  Fabric fab;
  const auto id = fab.connect(GlobalTile{0, 0}, GlobalTile{0, 3}, 2);
  ASSERT_TRUE(id.ok());
  routing::DegradedCircuit victim;
  victim.id = id.value();
  victim.hard_down = true;
  routing::EscalationOptions base;
  base.validate = [](const Fabric&, fabric::CircuitId) { return false; };
  RecoveryPolicy policy;
  policy.initial_budget = Duration::micros(0.001);  // below one probe's cost
  policy.backoff_base = Duration::micros(10.0);
  policy.backoff_factor = 2.0;
  policy.max_attempts = 2;
  const RecoveryResult res = drive_recovery(fab, victim, policy, base);
  EXPECT_EQ(res.climbs, 3u) << "two bounded climbs, then the unbounded one";
  EXPECT_TRUE(res.fell_through) << "validator rejects everything";
  EXPECT_DOUBLE_EQ(res.backoff_latency.to_seconds(), 30e-6)
      << "10 us + 20 us of exponential backoff";
  EXPECT_GT(res.repair_latency, Duration::zero());
}

// --- Heartbeat detector ----------------------------------------------------

TEST(HeartbeatDetector, TickBoundaryIsClosed) {
  RecoveryPolicy policy;
  policy.heartbeat_interval = Duration::seconds(0.25);
  policy.detection_latency = Duration::seconds(0.125);
  // A strike on a tick (t = 0 included) is noticed at that very tick.
  EXPECT_EQ(policy.heartbeat_tick(Duration::zero()), Duration::zero());
  EXPECT_EQ(policy.heartbeat_tick(Duration::seconds(0.75)), Duration::seconds(0.75));
  EXPECT_EQ(policy.heartbeat_tick(Duration::seconds(0.5625)), Duration::seconds(0.75));
  EXPECT_EQ(policy.detected_at(Duration::seconds(0.75)), Duration::seconds(0.875));
  EXPECT_EQ(policy.detected_at(Duration::seconds(0.8125)), Duration::seconds(1.125));
}

// --- GrayController ----------------------------------------------------------

/// Five 1 ms dips, one per second, on tile 1's east port of wafer 0.
fault::GrayEpisode five_dip_episode() {
  fault::GrayEpisode ep;
  ep.tile = GlobalTile{0, 1};
  ep.direction = fabric::Direction::kEast;
  ep.trace = fault::FlapTrace{{0.0, 0.001, 1.0, 1.001, 2.0, 2.001, 3.0, 3.001, 4.0, 4.001}};
  return ep;
}

/// Next to no score decay between dips; the second flap quarantines.
fault::FlapDamperParams two_strike_damper() {
  fault::FlapDamperParams p;
  p.half_life_seconds = 1e9;
  p.suspect_threshold = 1.5;
  p.quarantine_threshold = 1.9;
  return p;
}

struct GrayRig {
  Fabric fab;
  routing::PlanCache cache{fab};
  fabric::CircuitId victim{fab.connect(GlobalTile{0, 0}, GlobalTile{0, 3}, 2).value()};
};

Duration play_five(GrayController& gray, GrayRig& rig,
                   const std::function<bool(Duration&)>& on_climb) {
  return gray.play(five_dip_episode(), Duration::seconds(10.0), rig.fab, rig.victim,
                   RecoveryPolicy{}, routing::EscalationOptions{}, on_climb);
}

TEST(GrayController, NaiveClimbsEveryDipDampedRidesOutQuarantine) {
  const auto keep_going = [](Duration&) { return true; };
  GrayRig naive_rig;
  GrayController naive{GrayResponse::kNaive, two_strike_damper(), naive_rig.cache};
  play_five(naive, naive_rig, keep_going);
  EXPECT_EQ(naive.stats().transitions, 5u);
  EXPECT_EQ(naive.stats().climbs, 5u);
  EXPECT_GT(naive.stats().transient_failures, 0u) << "every attempt inside a dip fails";
  EXPECT_EQ(naive.damper().stats().flaps, 0u) << "the naive arm never scores flaps";
  EXPECT_NE(naive_rig.fab.circuit(naive_rig.victim), nullptr) << "thrash commits nothing";

  GrayRig damped_rig;
  GrayController damped{GrayResponse::kDamped, two_strike_damper(), damped_rig.cache};
  play_five(damped, damped_rig, keep_going);
  EXPECT_EQ(damped.stats().transitions, 5u);
  EXPECT_EQ(damped.stats().climbs, 1u) << "the second flap quarantines; the rest ride out";
  EXPECT_EQ(damped.damper().stats().quarantines, 1u);
  EXPECT_EQ(damped.damper().stats().suppressed_repairs, 3u);
  EXPECT_EQ(damped.now(), Duration::seconds(14.0)) << "view time is the last dip's";
  EXPECT_EQ(damped.stats().dark, naive.stats().dark) << "every dip is dark either way";
}

TEST(GrayController, RideOutChargesDarkTimeOnly) {
  GrayRig rig;
  GrayController gray{GrayResponse::kRideOut, two_strike_damper(), rig.cache};
  const Duration stall = play_five(gray, rig, [](Duration&) {
    ADD_FAILURE() << "a ridden-out dip never climbs";
    return true;
  });
  EXPECT_EQ(gray.stats().transitions, 5u);
  EXPECT_EQ(gray.stats().climbs, 0u);
  EXPECT_EQ(stall, gray.stats().dark);
  EXPECT_NEAR(stall.to_seconds(), 0.005, 1e-12);
}

TEST(GrayController, HookChargesStallAndStopsTheEpisode) {
  GrayRig rig;
  GrayController gray{GrayResponse::kNaive, two_strike_damper(), rig.cache};
  int calls = 0;
  const Duration stall = play_five(gray, rig, [&](Duration& s) {
    if (++calls < 2) return true;
    s += Duration::seconds(1.0);
    return false;
  });
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(gray.stats().transitions, 2u) << "dips after the stop are never played";
  EXPECT_EQ(gray.stats().climbs, 2u);
  EXPECT_GT(stall, Duration::seconds(1.002))
      << "dark time, two climbs and the hook's charge";
}

TEST(GrayController, QuarantineViewRejectsWithoutBumpingTheEpoch) {
  GrayRig rig;
  fault::FlapDamperParams one_strike = two_strike_damper();
  one_strike.quarantine_threshold = 0.9;
  one_strike.suspect_threshold = 0.5;
  GrayController gray{GrayResponse::kDamped, one_strike, rig.cache};
  const routing::Demand d{{0, 0}, {0, 3}, 1};  // straight east run across tile 1
  ASSERT_TRUE(rig.cache.route_for(d).has_value()) << "nothing has flapped yet";
  const std::uint64_t misses = rig.cache.stats().route_misses;

  fault::GrayEpisode ep = five_dip_episode();
  ep.trace = fault::FlapTrace{{0.0, 0.001}};
  const std::uint64_t epoch = rig.fab.epoch();
  gray.play(ep, Duration::seconds(10.0), rig.fab, rig.victim, RecoveryPolicy{}, {},
            [](Duration&) { return true; });
  EXPECT_EQ(gray.stats().climbs, 0u) << "the first flap quarantines at once";
  EXPECT_FALSE(rig.cache.route_for(d).has_value());
  EXPECT_GE(rig.cache.stats().quarantine_rejections, 1u);
  EXPECT_EQ(rig.fab.epoch(), epoch) << "quarantine is a view, not an invalidation";

  // Past the hold the component is on probation: the memoized route is warm.
  gray.set_now(Duration::seconds(10.0) + one_strike.quarantine_hold);
  EXPECT_TRUE(rig.cache.route_for(d).has_value());
  EXPECT_EQ(rig.cache.stats().route_misses, misses) << "the entry survived the hold";
}

// --- TrainingRun -----------------------------------------------------------

TEST(TrainingRun, HealthyRunDeliversFullGoodput) {
  RunConfig config;
  config.iterations = 40;
  config.mtbf_hours = 1.0e12;  // effectively no faults
  TrainingRun run{config};
  const RunReport report = run.run();
  EXPECT_EQ(report.iterations_completed, config.iterations);
  EXPECT_EQ(report.fault_events, 0u);
  EXPECT_EQ(report.ring_size_final, report.ring_size_initial);
  EXPECT_NEAR(report.goodput(), 1.0, 1e-12);
  EXPECT_EQ(report.lost.total(), Duration::zero());
}

TEST(TrainingRun, ReportIsAPureFunctionOfTheConfig) {
  RunConfig config;
  config.iterations = 30;
  config.mtbf_hours = 0.02;  // several faults inside the run
  TrainingRun a{config};
  TrainingRun b{config};
  const RunReport ra = a.run();
  const RunReport rb = b.run();
  EXPECT_EQ(ra.iterations_completed, rb.iterations_completed);
  EXPECT_EQ(ra.fault_events, rb.fault_events);
  EXPECT_EQ(ra.faults_injected, rb.faults_injected);
  EXPECT_EQ(ra.detections, rb.detections);
  EXPECT_EQ(ra.rollbacks, rb.rollbacks);
  EXPECT_EQ(ra.elastic_shrinks, rb.elastic_shrinks);
  EXPECT_EQ(ra.recovered_by, rb.recovered_by);
  EXPECT_EQ(ra.ring_size_final, rb.ring_size_final);
  EXPECT_EQ(ra.wall_clock.to_seconds(), rb.wall_clock.to_seconds())
      << "must be bit-identical";
  EXPECT_EQ(ra.recover_seconds, rb.recover_seconds);
}

TEST(TrainingRun, HeartbeatDetectionChargesTickPlusLatency) {
  RunConfig config;
  config.iterations = 5;
  // One scripted chip death at t=10.5 ms, during bucket compute (the first
  // collective starts at 25 ms), with spares available for respare.
  config.script = {{Duration::millis(10.5),
                    {{.kind = fault::FaultKind::kChipDeath, .tile = {0, 5}}}}};
  TrainingRun run{config};
  const RunReport report = run.run();
  ASSERT_EQ(report.detections, 1u);
  EXPECT_EQ(report.mid_collective_faults, 0u) << "struck during compute";
  // Heartbeats every 5 ms: the 10.5 ms strike is noticed at 15 ms, diagnosed
  // 100 us later -> 4.6 ms of detection lag.
  EXPECT_NEAR(report.lost.detection.to_seconds(), 4.6e-3, 1e-9);
}

// A strike exactly at an iteration boundary lands after that iteration
// completed (and checkpointed), so the rollback replays nothing.
TEST(TrainingRun, IterationEndingAtAStrikeCompletesFirst) {
  RunConfig healthy;
  healthy.iterations = 3;
  healthy.mtbf_hours = std::numeric_limits<double>::infinity();
  // The end of iteration 3, summed exactly as the run's clock sums it.
  const Duration boundary = TrainingRun{healthy}.run().wall_clock;

  RunConfig config;
  config.iterations = 5;
  config.checkpoint_interval = Duration::zero();  // every boundary checkpoints
  config.script = {{boundary, {{.kind = fault::FaultKind::kChipDeath, .tile = {0, 5}}}}};
  const RunReport report = TrainingRun{config}.run();
  ASSERT_EQ(report.rollbacks, 1u);
  EXPECT_EQ(report.lost.redo, Duration::zero())
      << "iteration 3 ends at the strike, so it completes and checkpoints first";
  EXPECT_EQ(report.iterations_completed, config.iterations);
}

TEST(TrainingRun, ChipDeathWithSparesResparesBothRingEdges) {
  RunConfig config;
  config.iterations = 5;
  config.script = {{Duration::millis(10.5),
                    {{.kind = fault::FaultKind::kChipDeath, .tile = {0, 5}}}}};
  TrainingRun run{config};
  const RunReport report = run.run();
  EXPECT_EQ(report.iterations_completed, config.iterations);
  EXPECT_EQ(report.ring_size_final, report.ring_size_initial)
      << "a spare replaced the dead member";
  EXPECT_EQ(report.recovered_by[routing::rung_index(routing::RepairRung::kRespare)],
            2u)
      << "in-edge and out-edge of the dead member";
  EXPECT_EQ(report.elastic_shrinks, 0u);
  EXPECT_EQ(report.rollbacks, 1u) << "the dead member's state is gone";
  const auto& members = run.ring_members();
  EXPECT_EQ(std::count(members.begin(), members.end(), GlobalTile{0, 5}), 0)
      << "the dead chip left the ring";
}

// The acceptance scenario: a chip dies mid-collective with the spare pool
// exhausted.  The run must take the elastic-shrink path — ring shrinks by
// one, the schedule is rebuilt without the dead chip, and the job completes
// degraded instead of migrating.
TEST(TrainingRun, MidCollectiveDeathWithoutSparesShrinksElastically) {
  RunConfig config;
  config.iterations = 10;
  config.ring_tiles_per_wafer = 32;  // every tile enrolled: no spare pool
  // Bucket 0's collective starts at compute_per_bucket (25 ms); strike
  // exactly then, inside the first comm window.
  config.script = {{config.iteration.compute_per_bucket,
                    {{.kind = fault::FaultKind::kChipDeath, .tile = {0, 0}}}}};
  TrainingRun run{config};
  const RunReport report = run.run();
  EXPECT_EQ(report.mid_collective_faults, 1u);
  EXPECT_GE(report.elastic_shrinks, 1u);
  EXPECT_EQ(report.migrations, 0u) << "photonic policy never migrates";
  EXPECT_EQ(report.ring_size_final, report.ring_size_initial - 1);
  EXPECT_EQ(report.iterations_completed, config.iterations)
      << "the run completes degraded";
  EXPECT_GE(report.rollbacks, 1u);
  EXPECT_LT(report.goodput(), 1.0);

  // Regression: the rebuilt elastic schedule must not reference the dead
  // chip, and no surviving ring circuit may ride quarantined hardware.
  const auto tiles = run.fabric().wafer(0).tile_count();
  const auto dead_id = static_cast<topo::TpuId>(0 * tiles + 0);
  for (const coll::Phase& phase : run.schedule().phases) {
    for (const coll::Transfer& t : phase.transfers) {
      EXPECT_NE(t.src, dead_id);
      EXPECT_NE(t.dst, dead_id);
    }
  }
  const fault::HealthMonitor monitor{config.health};
  for (const fabric::CircuitId id : run.ring_circuits()) {
    EXPECT_EQ(monitor.diagnose(run.fabric(), run.active_faults(), id).health,
              fault::CircuitHealth::kHealthy)
        << "circuit " << id;
  }
  const auto& members = run.ring_members();
  EXPECT_EQ(std::count(members.begin(), members.end(), GlobalTile{0, 0}), 0);
}

TEST(TrainingRun, PhotonicRecoveryBeatsElectricalMigration) {
  RunConfig config;
  config.iterations = 20;
  config.script = {{Duration::millis(10.5),
                    {{.kind = fault::FaultKind::kChipDeath, .tile = {0, 5}}}}};
  RunConfig electrical = config;
  electrical.policy = RunPolicy::kElectricalMigration;
  const RunReport photonic = TrainingRun{config}.run();
  const RunReport migrated = TrainingRun{electrical}.run();
  EXPECT_EQ(migrated.migrations, 1u);
  EXPECT_GT(photonic.goodput(), migrated.goodput())
      << "us-scale respare vs a 600 s rack migration";
}

// --- run_resilience_sweep --------------------------------------------------

ResilienceSweepConfig quick_sweep() {
  ResilienceSweepConfig config;
  config.base.iterations = 10;
  config.mtbf_points = {0.01, 0.05};
  config.trials = 2;
  return config;
}

void expect_identical(const ResilienceSweepReport& a, const ResilienceSweepReport& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    const MtbfPointReport& pa = a.points[i];
    const MtbfPointReport& pb = b.points[i];
    EXPECT_EQ(pa.mtbf_hours, pb.mtbf_hours) << i;
    EXPECT_EQ(pa.policy, pb.policy) << i;
    EXPECT_EQ(pa.goodput_mean, pb.goodput_mean) << "point " << i << " must be bit-identical";
    EXPECT_EQ(pa.goodput_min, pb.goodput_min) << i;
    EXPECT_EQ(pa.goodput_max, pb.goodput_max) << i;
    EXPECT_EQ(pa.lost_redo_seconds, pb.lost_redo_seconds) << i;
    EXPECT_EQ(pa.lost_detection_seconds, pb.lost_detection_seconds) << i;
    EXPECT_EQ(pa.lost_recovery_seconds, pb.lost_recovery_seconds) << i;
    EXPECT_EQ(pa.recover_p50_seconds, pb.recover_p50_seconds) << i;
    EXPECT_EQ(pa.recover_p99_seconds, pb.recover_p99_seconds) << i;
    EXPECT_EQ(pa.fault_events, pb.fault_events) << i;
    EXPECT_EQ(pa.detections, pb.detections) << i;
    EXPECT_EQ(pa.rollbacks, pb.rollbacks) << i;
    EXPECT_EQ(pa.elastic_shrinks, pb.elastic_shrinks) << i;
    EXPECT_EQ(pa.migrations, pb.migrations) << i;
    EXPECT_EQ(pa.recovered_by, pb.recovered_by) << i;
  }
}

TEST(ResilienceSweep, ReportIdenticalAtAnyThreadCount) {
  auto serial = quick_sweep();
  serial.threads = 1;
  auto wide = quick_sweep();
  wide.threads = 8;
  expect_identical(run_resilience_sweep(serial), run_resilience_sweep(wide));
}

// The acceptance criterion as stated: LIGHTPATH_THREADS=1 and =8 produce a
// bit-identical report when the sweep is left to consult the environment.
TEST(ResilienceSweep, ReportIdenticalUnderLightpathThreadsEnv) {
  const auto env_sweep = [](const char* threads) {
    ASSERT_EQ(setenv("LIGHTPATH_THREADS", threads, 1), 0);
    EXPECT_EQ(util::env_threads(), std::strtoul(threads, nullptr, 10));
  };
  auto config = quick_sweep();
  config.threads = 0;
  env_sweep("1");
  const auto narrow = run_resilience_sweep(config);
  env_sweep("8");
  const auto wide = run_resilience_sweep(config);
  ASSERT_EQ(unsetenv("LIGHTPATH_THREADS"), 0);
  expect_identical(narrow, wide);
}

TEST(ResilienceSweep, PairsPoliciesPerPointPhotonicFirst) {
  const auto report = run_resilience_sweep(quick_sweep());
  ASSERT_EQ(report.points.size(), 4u);
  for (std::size_t i = 0; i < report.points.size(); i += 2) {
    EXPECT_EQ(report.points[i].policy, RunPolicy::kPhotonicRepair);
    EXPECT_EQ(report.points[i + 1].policy, RunPolicy::kElectricalMigration);
    EXPECT_EQ(report.points[i].mtbf_hours, report.points[i + 1].mtbf_hours);
  }
}

// --- Gray failures: transient retries across climbs, the sweep -------------

TEST(DriveRecovery, TransientFailuresAreRetriedAcrossClimbs) {
  Fabric fab;
  const auto id = fab.connect(GlobalTile{0, 0}, GlobalTile{0, 3}, 2);
  ASSERT_TRUE(id.ok());
  routing::DegradedCircuit victim;
  victim.id = id.value();
  victim.dead_lasers = 2;

  // The first four programming attempts (anywhere on the ladder) settle
  // out; the fifth locks.  Climb 1 burns retune + rung-5 retries and ends
  // transient; climb 2 retunes on its first attempt.
  auto calls = std::make_shared<std::uint32_t>(0);
  routing::EscalationOptions base;
  base.transient_failure = [calls](routing::RepairRung, std::uint32_t) {
    return ++*calls <= 4;
  };
  RecoveryPolicy policy;
  policy.initial_budget = Duration::zero();  // unbounded climbs: isolate transients
  const RecoveryResult res = drive_recovery(fab, victim, policy, base);
  EXPECT_TRUE(res.recovered);
  EXPECT_EQ(res.rung, routing::RepairRung::kRetune);
  EXPECT_EQ(res.climbs, 2u) << "one all-transient climb, then the recovery";
  EXPECT_EQ(res.transient_failures, 4u);
  EXPECT_FALSE(res.transient_failed);
  EXPECT_GT(res.backoff_latency, Duration::zero())
      << "a transient climb backs off before the next, like budget exhaustion";
}

TEST(DriveRecovery, AllTransientClimbsLeaveTheVictimEstablished) {
  Fabric fab;
  const auto id = fab.connect(GlobalTile{0, 0}, GlobalTile{0, 3}, 2);
  ASSERT_TRUE(id.ok());
  routing::DegradedCircuit victim;
  victim.id = id.value();
  victim.dead_lasers = 2;

  routing::EscalationOptions base;
  base.transient_failure = [](routing::RepairRung, std::uint32_t) { return true; };
  const RecoveryResult res = drive_recovery(fab, victim, RecoveryPolicy{}, base);
  EXPECT_FALSE(res.recovered);
  EXPECT_FALSE(res.fell_through);
  EXPECT_FALSE(res.plan_failure);
  EXPECT_TRUE(res.transient_failed)
      << "even the final unbounded climb ended in settle timeouts";
  EXPECT_GT(res.transient_failures, 0u);
  EXPECT_NE(fab.circuit(id.value()), nullptr)
      << "nothing committed: the victim stays up for a later climb";
}

GraySweepConfig small_gray_config() {
  GraySweepConfig config;
  config.base.iterations = 300;
  config.base.mtbf_hours = 1e9;  // flaps only: isolate the gray layer
  config.base.recovery.rung_backoff.base = Duration::micros(50.0);
  config.base.recovery.rung_backoff.jitter_fraction = 0.5;
  config.flap_rates_per_hour = {8.0, 16.0};
  config.trials = 2;
  return config;
}

TEST(GraySweep, HysteresisBeatsNaiveAtEveryRate) {
  const auto report = run_gray_sweep(small_gray_config());
  ASSERT_EQ(report.points.size(), 4u) << "two rates x two arms";
  for (std::size_t i = 0; i + 1 < report.points.size(); i += 2) {
    const GrayPointReport& hyst = report.points[i];
    const GrayPointReport& naive = report.points[i + 1];
    ASSERT_TRUE(hyst.hysteresis);
    ASSERT_FALSE(naive.hysteresis);
    ASSERT_EQ(hyst.flap_rate_per_hour, naive.flap_rate_per_hour);
    EXPECT_GT(hyst.goodput_mean, naive.goodput_mean)
        << "hysteresis+backoff must win at " << hyst.flap_rate_per_hour << "/h";
    EXPECT_GT(hyst.suppressed_repairs, 0u) << "the damper must actually engage";
    EXPECT_EQ(naive.suppressed_repairs, 0u) << "the naive arm never suppresses";
    EXPECT_EQ(hyst.misclassifications, 0u)
        << "hysteresis never declares a flapping chip dead";
    EXPECT_GT(naive.misclassifications, 0u)
        << "naive eventually prices the gray failure as fail-stop; that is "
           "the thrash the sweep measures";
  }
}

TEST(GraySweep, ReportIdenticalAtAnyThreadCount) {
  auto config = small_gray_config();
  config.threads = 1;
  const auto serial = run_gray_sweep(config);
  for (const unsigned threads : {2u, 8u}) {
    config.threads = threads;
    const auto parallel = run_gray_sweep(config);
    ASSERT_EQ(parallel.points.size(), serial.points.size());
    EXPECT_EQ(parallel.digest(), serial.digest()) << threads << " threads";
  }
}

}  // namespace
}  // namespace lp::runtime
