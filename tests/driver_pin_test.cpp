// Behavioural pins for the three fault-driven simulators.
//
// Each test runs one small configuration of runtime::TrainingRun,
// serve::ServingSim or cluster::ClusterScheduler and compares an
// order-sensitive fold of its report against a recorded constant.  The
// fault -> detect -> recover path of all three simulators must reproduce these
// bit for bit: a drifting constant means the behaviour changed, and the fix
// belongs in the code, never in the constant.  Every test also asserts that
// its configuration reaches the branch it guards (misclassification,
// suppression, BER bursts, churn flushes, flap repairs, quarantines read
// after a detection, each rung of the cluster escalation), so a pin cannot
// go quietly stale by no longer exercising the code it covers.

#include <gtest/gtest.h>

#include <cstdint>

#include "cluster/scheduler.hpp"
#include "lightpath/types.hpp"
#include "runtime/training_run.hpp"
#include "report_fold.hpp"
#include "serve/serving_sim.hpp"

namespace lp {
namespace {

constexpr std::uint64_t kFoldSeed = 0x70e7a1b5d1c0ffeeULL;
using Fold = test::Fold<kFoldSeed>;

// --- TrainingRun ------------------------------------------------------------

/// Folds every RunReport field plus the final schedule and fabric epoch.
std::uint64_t train_digest(const runtime::TrainingRun& sim, const runtime::RunReport& r) {
  Fold f;
  for (std::uint64_t c :
       {std::uint64_t{r.iterations_completed}, std::uint64_t{r.ring_size_initial},
        std::uint64_t{r.ring_size_final}, r.fault_events, r.faults_injected,
        r.mid_collective_faults, r.detections, r.rollbacks, r.elastic_shrinks,
        r.migrations, r.flap_episodes, r.flap_transitions, r.flap_repairs,
        r.suppressed_repairs, r.quarantines, r.probations, r.relapses,
        r.misclassifications, r.transient_repair_failures, r.ber_bursts}) {
    f.add(c);
  }
  for (std::uint64_t c : r.recovered_by) f.add(c);
  for (Duration d : {r.lost.redo, r.lost.detection, r.lost.recovery, r.flap_stall,
                     r.ber_slowdown, r.ideal_time, r.wall_clock}) {
    f.add(d);
  }
  for (double s : r.recover_seconds) f.add(s);
  f.add(static_cast<std::uint64_t>(sim.bucket_algorithm()));
  f.add(sim.fabric().epoch());
  return f.h;
}

/// A 16-chip ring under accelerated permanent faults; flaps off.
runtime::RunConfig train_config() {
  runtime::RunConfig c;
  c.ring_tiles_per_wafer = 8;
  c.iterations = 2000;
  c.mtbf_hours = 0.05;
  c.seed = 0xd21e;
  c.recovery.rung_backoff.base = Duration::micros(50.0);
  c.recovery.rung_backoff.jitter_fraction = 0.5;
  return c;
}

runtime::RunConfig gray_config(bool hysteresis) {
  runtime::RunConfig c = train_config();
  c.flap_rate_per_hour = 24.0;
  c.gray_hysteresis = hysteresis;
  return c;
}

struct TrainRun {
  runtime::RunReport report;
  std::uint64_t digest{0};
};

TrainRun run_training(const runtime::RunConfig& config) {
  runtime::TrainingRun sim{config};
  TrainRun out;
  out.report = sim.run();
  out.digest = train_digest(sim, out.report);
  return out;
}

TEST(DriverPin, TrainingPhotonicRepair) {
  const TrainRun r = run_training(train_config());
  EXPECT_GT(r.report.detections, 0u);
  EXPECT_GT(r.report.rollbacks, 0u) << "dead chips must reach the respare path";
  EXPECT_EQ(r.digest, 0x55710a37f7be26f1ULL);
}

TEST(DriverPin, TrainingElectricalMigrationUnderFlaps) {
  runtime::RunConfig c = gray_config(true);
  c.policy = runtime::RunPolicy::kElectricalMigration;
  const TrainRun r = run_training(c);
  EXPECT_GT(r.report.migrations, 0u);
  EXPECT_GT(r.report.flap_transitions, 0u);
  EXPECT_EQ(r.report.flap_repairs, 0u) << "the electrical arm rides dips out";
  EXPECT_EQ(r.digest, 0xc231974de98c1990ULL);
}

TEST(DriverPin, TrainingGrayHysteresis) {
  const TrainRun r = run_training(gray_config(true));
  EXPECT_GT(r.report.detections, 0u);
  EXPECT_GT(r.report.flap_repairs, 0u);
  EXPECT_GT(r.report.suppressed_repairs, 0u);
  EXPECT_GT(r.report.ber_bursts, 0u);
  EXPECT_EQ(r.report.misclassifications, 0u);
  EXPECT_EQ(r.digest, 0x32b6dc78a8e8734cULL);
}

TEST(DriverPin, TrainingGrayNaive) {
  const TrainRun r = run_training(gray_config(false));
  EXPECT_GT(r.report.flap_repairs, 0u);
  EXPECT_GT(r.report.misclassifications, 0u);
  EXPECT_EQ(r.report.suppressed_repairs, 0u);
  EXPECT_EQ(r.digest, 0xa7c621b94d4e926dULL);
}

/// Permanent faults on the default 56-chip ring, interleaved with long flap
/// episodes under short damper holds: repairs after a detection read the
/// quarantine view while earlier episodes' dips lie ahead of the strike, so
/// the view's clock (the strike time) is load-bearing.
TEST(DriverPin, TrainingQuarantineViewClock) {
  runtime::RunConfig c;
  c.iterations = 1500;
  c.mtbf_hours = 0.05;
  c.seed = 1;
  c.flap_rate_per_hour = 200.0;
  c.gray.mean_up_seconds = 2.0;
  c.damper.quarantine_threshold = 2.0;
  c.damper.quarantine_hold = Duration::seconds(3.0);
  c.damper.probation_hold = Duration::seconds(3.0);
  const TrainRun r = run_training(c);
  EXPECT_GT(r.report.detections, 0u);
  EXPECT_GT(r.report.quarantines, 0u);
  EXPECT_EQ(r.digest, 0xfa3d024acffff490ULL);
}

/// Six scripted chip deaths 40 ms apart under a flap storm.  Each death
/// rolls back, and the rollback can carry the clock past both the next
/// scripted fault and a pending flap: both are then held back to the
/// resume time, and the fault must strike before the flap.
runtime::RunConfig scripted_under_flaps(std::uint64_t seed) {
  runtime::RunConfig c;
  c.ring_tiles_per_wafer = 8;
  c.iterations = 600;
  c.seed = seed;
  c.flap_rate_per_hour = 200.0;
  c.gray_hysteresis = seed % 2 == 0;
  for (std::uint32_t k = 0; k < 6; ++k) {
    const double at_ms = 10.5 + 40.0 * k + 3.0 * static_cast<double>(seed % 5);
    c.script.push_back({Duration::millis(at_ms),
                        {{.kind = fault::FaultKind::kChipDeath,
                          .tile = {static_cast<fabric::WaferId>(k % 2),
                                   static_cast<fabric::TileId>(k)}}}});
  }
  return c;
}

TEST(DriverPin, TrainingScriptedFaultsUnderFlaps) {
  // Seed 6 runs the damped arm, seed 11 the naive one.
  for (const auto& [seed, digest] : {std::pair{6ULL, 0xd91af7c12607daacULL},
                                     std::pair{11ULL, 0x14c64a1eff393c00ULL}}) {
    const TrainRun r = run_training(scripted_under_flaps(seed));
    EXPECT_EQ(r.report.fault_events, 6u) << "seed " << seed;
    EXPECT_GT(r.report.flap_episodes, 0u) << "seed " << seed;
    EXPECT_EQ(r.digest, digest) << "seed " << seed;
  }
}

// --- ServingSim -------------------------------------------------------------

/// 4 replicas x 4 tiles under accelerated faults and a flap storm.
serve::ServingParams serving_params(bool hysteresis) {
  serve::ServingParams p;
  p.replicas = 4;
  p.tiles_per_replica = 4;
  p.batch_capacity = 16;
  p.traffic.arrival_rate = 50e3;
  p.horizon = Duration::millis(20.0);
  p.drain = Duration::millis(20.0);
  p.host.max_peers = 4;
  p.expert_peers = 2;
  p.mtbf_hours = 2e-5;
  p.flap_rate_per_hour = 2e5;
  p.gray_hysteresis = hysteresis;
  p.recovery.rung_backoff.base = Duration::micros(50.0);
  p.recovery.rung_backoff.jitter_fraction = 0.5;
  return p;
}

std::uint64_t serving_digest(const serve::ServingReport& r) {
  Fold f;
  f.add(r.digest);
  for (std::uint64_t c : {r.detections, r.churn_flushes, r.replicas_offline}) f.add(c);
  f.add(r.stall_time);
  return f.h;
}

TEST(DriverPin, ServingFaultsAndFlapsHysteresis) {
  const serve::ServingReport r = serve::run_serving(serving_params(true));
  EXPECT_GT(r.detections, 0u);
  EXPECT_GT(r.churn_flushes, 0u);
  EXPECT_GT(r.flap_repairs, 0u);
  EXPECT_GT(r.suppressed_repairs, 0u);
  EXPECT_EQ(serving_digest(r), 0x85d875dcbb6adcdfULL);
}

TEST(DriverPin, ServingFaultsAndFlapsNaive) {
  const serve::ServingReport r = serve::run_serving(serving_params(false));
  EXPECT_GT(r.detections, 0u);
  EXPECT_GT(r.churn_flushes, r.detections) << "naive climbs flush per dip";
  EXPECT_GT(r.flap_repairs, 0u);
  EXPECT_EQ(r.suppressed_repairs, 0u);
  EXPECT_EQ(serving_digest(r), 0x1ad6e08ff2637979ULL);
}

/// A denser flap storm under millisecond damper holds: detections land
/// while earlier episodes' dips lie ahead, so the quarantine view's clock
/// must never move back.
TEST(DriverPin, ServingQuarantineViewClock) {
  serve::ServingParams p = serving_params(true);
  p.mtbf_hours = 5e-6;
  p.flap_rate_per_hour = 5e5;
  p.damper.half_life_seconds = 0.01;
  p.damper.quarantine_hold = Duration::millis(2.0);
  p.damper.probation_hold = Duration::millis(2.0);
  const serve::ServingReport r = serve::run_serving(p);
  EXPECT_GT(r.detections, 0u);
  EXPECT_GT(r.quarantines, 0u);
  EXPECT_EQ(serving_digest(r), 0xba2804ecd66161a3ULL);
}

/// Prompts several prefill chunks long on 4-sequence batches under more load
/// than the replicas can serve, with a short drain: sequences retire after
/// multi-round prefill, a standing queue forms, and a third of the requests
/// migrate their KV cache (small prompts in bulk, large ones striped).
serve::ServingParams serving_backlog_params() {
  serve::ServingParams p;
  p.replicas = 4;
  p.tiles_per_replica = 4;
  p.batch_capacity = 4;
  p.prefill_chunk = 16;
  p.traffic.prefill_tokens_mean = 96.0;
  p.traffic.prefill_tokens_max = 512;
  p.traffic.kv_migration_fraction = 0.3;
  p.traffic.arrival_rate = 120e3;
  p.horizon = Duration::millis(5.0);
  p.drain = Duration::millis(1.0);
  p.host.max_peers = 4;
  p.expert_peers = 2;
  p.mtbf_hours = 0.0;
  return p;
}

TEST(DriverPin, ServingBacklogFullReport) {
  const serve::ServingReport r = serve::run_serving(serving_backlog_params());
  EXPECT_GT(r.kv_striped, 0u);
  EXPECT_LT(r.kv_striped, r.kv_migrations) << "small prompts migrate in bulk";
  EXPECT_GT(r.in_flight_at_end, 4u * 4u) << "more in flight than the batches hold";
  EXPECT_EQ(test::fold_serving<kFoldSeed>(r), 0x3edc5a54027b1837ULL);
}

/// One-token prefill chunks and short requests: the longest request takes
/// exactly 8 rounds, a power of two, so sequences retire on every round
/// offset the completion wheel can hold.
TEST(DriverPin, ServingTightWheelFullReport) {
  serve::ServingParams p = serving_backlog_params();
  p.batch_capacity = 8;
  p.prefill_chunk = 1;
  p.traffic.prefill_tokens_mean = 3.0;
  p.traffic.prefill_tokens_max = 4;
  p.traffic.decode_tokens_mean = 3.0;
  p.traffic.decode_tokens_max = 4;
  p.traffic.arrival_rate = 200e3;
  const serve::ServingReport r = serve::run_serving(p);
  EXPECT_GT(r.kv_migrations, 0u);
  EXPECT_GT(r.in_flight_at_end, 4u * 8u);
  EXPECT_EQ(test::fold_serving<kFoldSeed>(r), 0xb5026084198e13b1ULL);
}

/// Faults fast enough that repairs run out of spare tiles and replicas leave
/// the pool with sequences resident, under flaps whose dips pause replicas.
serve::ServingParams serving_offline_params() {
  serve::ServingParams p = serving_params(true);
  p.batch_capacity = 8;
  p.prefill_chunk = 32;
  p.traffic.arrival_rate = 100e3;
  p.mtbf_hours = 1.2e-5;
  p.flap_rate_per_hour = 2e4;
  return p;
}

TEST(DriverPin, ServingOfflineMidBatchFullReport) {
  const serve::ServingReport r = serve::run_serving(serving_offline_params());
  EXPECT_GT(r.replicas_offline, 0u);
  EXPECT_GT(r.abandoned, 0u);
  EXPECT_GT(r.flap_stall, Duration::zero());
  EXPECT_EQ(test::fold_serving<kFoldSeed>(r), 0x978a934af44086c7ULL);
}

// --- ClusterScheduler -------------------------------------------------------

/// 4 racks under accelerated faults and flaps on a few chips.
cluster::ClusterParams cluster_params() {
  cluster::ClusterParams p;
  p.cluster.racks = 4;
  p.arrival_rate_per_s = 4.0;
  p.horizon = Duration::seconds(60.0);
  p.drain = Duration::seconds(120.0);
  p.mtbf_hours = 0.5;
  p.flap_rate_per_hour = 600.0;
  p.flappy_chips = 4;
  return p;
}

std::uint64_t cluster_digest(const cluster::ClusterReport& r) {
  Fold f;
  f.add(r.digest);
  for (std::uint64_t c : {r.detections, r.flap_events, r.flap_repairs,
                          r.suppressed_repairs, r.chip_quarantines, r.chip_probations,
                          r.morph_deferrals, r.migrations}) {
    f.add(c);
  }
  f.add(r.lost.detection);
  f.add(r.lost.recovery);
  return f.h;
}

TEST(DriverPin, ClusterGrayNaive) {
  cluster::ClusterParams p = cluster_params();
  p.gray_hysteresis = false;
  const cluster::ClusterReport r = cluster::run_cluster(p);
  EXPECT_GT(r.flap_repairs, 0u);
  EXPECT_EQ(r.suppressed_repairs, 0u);
  EXPECT_EQ(cluster_digest(r), 0xfbaebe94765c6990ULL);
}

TEST(DriverPin, ClusterElectrical) {
  cluster::ClusterParams p = cluster_params();
  p.policy = cluster::SchedulerPolicy::kElectricalOnly;
  const cluster::ClusterReport r = cluster::run_cluster(p);
  EXPECT_GT(r.detections, 0u);
  EXPECT_GT(r.flap_repairs, 0u);
  EXPECT_GT(r.suppressed_repairs, 0u);
  EXPECT_EQ(cluster_digest(r), 0x72be657ea53e4742ULL);
}

/// Folds every ClusterReport field, the escalation histogram included.
std::uint64_t cluster_full_digest(const cluster::ClusterReport& r) {
  Fold f;
  f.add(static_cast<std::uint64_t>(r.policy));
  for (std::uint64_t c :
       {r.offered, r.admitted, r.completed, r.unserved, r.aborted, r.requeues,
        r.placed_contiguous, r.placed_morphed, r.fault_events, r.fatal_chip_failures,
        r.component_events, r.detections, r.flap_events, r.flap_repairs,
        r.suppressed_repairs, r.chip_quarantines, r.chip_probations, r.morph_deferrals,
        r.inplace_repairs, r.respares, r.morphs, r.morph_aborts, r.elastic_shrinks,
        r.migrations, r.migration_failures, std::uint64_t{r.peak_running}}) {
    f.add(c);
  }
  for (std::uint64_t c : r.recovered_by) f.add(c);
  for (double d : {r.offered_work_chip_seconds, r.completed_work_chip_seconds,
                   r.queue_delay_mean_s, r.queue_delay_p50_s, r.queue_delay_p99_s,
                   r.frag_stranding_avg, r.utilization_avg}) {
    f.add(d);
  }
  for (Duration d : {r.lost.redo, r.lost.detection, r.lost.recovery, r.makespan}) f.add(d);
  f.add(r.digest);
  return f.h;
}

/// Faults fast enough that fatal chips climb every photonic rung: respare,
/// morph, elastic shrink and requeue, beside in-place component repairs.
cluster::ClusterParams escalation_params() {
  cluster::ClusterParams p = cluster_params();
  p.mtbf_hours = 0.05;
  return p;
}

TEST(DriverPin, ClusterPhotonicEscalation) {
  const cluster::ClusterReport r = cluster::run_cluster(escalation_params());
  EXPECT_GT(r.inplace_repairs, 0u);
  EXPECT_GT(r.respares, 0u);
  EXPECT_GT(r.morphs, 0u);
  EXPECT_GT(r.elastic_shrinks, 0u);
  EXPECT_GT(r.requeues, 0u);
  EXPECT_EQ(cluster_full_digest(r), 0x683aea0959d9cfffULL);
}

/// The same timeline with morphing off: fatal chips skip from respare to
/// shrink.
TEST(DriverPin, ClusterPhotonicEscalationNoMorph) {
  cluster::ClusterParams p = escalation_params();
  p.morph_enabled = false;
  const cluster::ClusterReport r = cluster::run_cluster(p);
  EXPECT_EQ(r.morphs, 0u);
  EXPECT_GT(r.respares, 0u);
  EXPECT_GT(r.elastic_shrinks, 0u);
  EXPECT_GT(r.requeues, 0u);
  EXPECT_EQ(cluster_full_digest(r), 0x53e10dea20a04e65ULL);
}

}  // namespace
}  // namespace lp
