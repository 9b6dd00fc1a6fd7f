#include "workloads.hpp"

#include <bit>
#include <cstdio>
#include <numeric>

#include "lightpath/types.hpp"
#include "util/parallel.hpp"

namespace perfbench {
namespace {

using lp::Duration;

/// Each workload mixes the trial seed into its driver's own default seed,
/// so every driver gets a distinct, reproducible stream per trial.
std::uint64_t mix_seed(std::uint64_t driver_default, std::uint64_t seed) {
  return lp::util::task_seed(driver_default, seed);
}

/// Order-sensitive fold for the training digest (RunReport carries none).
struct Fold {
  std::uint64_t h{0x70e7a1b5d1c0ffeeULL};
  void add(std::uint64_t v) { h = lp::fabric::hash_mix(h, v); }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(Duration d) { add(d.to_seconds()); }
};

template <typename... Args>
void require(std::vector<std::string>& out, bool ok, const char* fmt, Args... args) {
  if (ok) return;
  char line[256];
  std::snprintf(line, sizeof line, fmt, args...);
  out.emplace_back(line);
}

unsigned long long ull(std::uint64_t v) { return static_cast<unsigned long long>(v); }

}  // namespace

std::uint64_t trial_seed(std::uint64_t seed, std::uint64_t i) {
  return lp::util::task_seed(seed, i);
}

const char* workload_name(WorkloadId w) {
  switch (w) {
    case WorkloadId::kServe: return "serve_open_loop";
    case WorkloadId::kTrain: return "train_recovery";
    case WorkloadId::kCluster: return "cluster_pod";
  }
  return "?";
}

std::optional<WorkloadId> parse_workload(std::string_view name) {
  for (WorkloadId w : kAllWorkloads) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

// --- serve_open_loop --------------------------------------------------------

ServeDriver::ServeDriver(std::uint64_t seed) {
  params.replicas = 16;
  params.tiles_per_replica = 16;
  params.traffic.arrival_rate = 1.0e6;
  params.horizon = Duration::seconds(1.0);
  params.seed = mix_seed(params.seed, seed);
}

void ServeDriver::run() { report = lp::serve::run_serving(params); }

Outcome ServeDriver::outcome() const {
  const auto& r = report;
  Outcome o;
  o.digest = r.digest;
  o.work = static_cast<double>(r.offered);
  auto& v = o.violations;
  require(v, r.offered > 0, "serve: no requests offered");
  require(v, r.completed + r.abandoned + r.in_flight_at_end == r.offered,
          "serve: completed %llu + abandoned %llu + in-flight %llu != offered %llu",
          ull(r.completed), ull(r.abandoned), ull(r.in_flight_at_end), ull(r.offered));
  require(v, r.met_slo <= r.completed, "serve: met_slo %llu > completed %llu",
          ull(r.met_slo), ull(r.completed));
  require(v, r.latencies.size() == r.completed,
          "serve: %zu latencies for %llu completions", r.latencies.size(),
          ull(r.completed));
  require(v, r.host.hits + r.host.misses == r.host.messages,
          "serve: host hits %llu + misses %llu != messages %llu", ull(r.host.hits),
          ull(r.host.misses), ull(r.host.messages));
  require(v, r.expert_ring_rounds <= r.rounds && r.kv_striped <= r.kv_migrations,
          "serve: autotuner split exceeds its total");
  require(v, r.p50 <= r.p99 && r.p99 <= r.p999 && r.p999 <= r.max_latency,
          "serve: latency percentiles out of order");
  return o;
}

// --- train_recovery ---------------------------------------------------------

TrainDriver::TrainDriver(std::uint64_t seed) {
  config.policy = lp::runtime::RunPolicy::kPhotonicRepair;
  config.ring_tiles_per_wafer = 8;  // 16-chip ring over two wafers
  config.iterations = 1200;
  config.mtbf_hours = 0.1;
  config.flap_rate_per_hour = 16.0;
  config.gray_hysteresis = true;
  config.seed = mix_seed(config.seed, seed);
  sim = std::make_unique<lp::runtime::TrainingRun>(config);
}

void TrainDriver::run() { report = sim->run(); }

Outcome TrainDriver::outcome() const {
  const auto& r = report;
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
  f.add(static_cast<std::uint64_t>(sim->bucket_algorithm()));
  f.add(sim->fabric().epoch());

  Outcome o;
  o.digest = f.h;
  o.work = r.iterations_completed;
  auto& v = o.violations;
  // The run stops early only when the ring has collapsed below two members.
  require(v, r.iterations_completed == config.iterations || r.ring_size_final < 2,
          "train: %u of %u iterations completed with %u ring members left",
          r.iterations_completed, config.iterations, r.ring_size_final);
  require(v, r.ring_size_final <= r.ring_size_initial, "train: ring grew (%u -> %u)",
          r.ring_size_initial, r.ring_size_final);
  require(v, r.detections <= r.fault_events, "train: detections %llu > faults %llu",
          ull(r.detections), ull(r.fault_events));
  require(v, r.recover_seconds.size() == r.detections + r.flap_episodes,
          "train: %zu recoveries for %llu detections + %llu flap episodes",
          r.recover_seconds.size(), ull(r.detections), ull(r.flap_episodes));
  const std::uint64_t climbs =
      std::accumulate(r.recovered_by.begin(), r.recovered_by.end(), std::uint64_t{0});
  require(v, climbs + r.elastic_shrinks >= r.detections,
          "train: %llu ladder recoveries + %llu shrinks < %llu detections", ull(climbs),
          ull(r.elastic_shrinks), ull(r.detections));
  const double done = static_cast<double>(r.iterations_completed) / config.iterations;
  require(v, r.wall_clock.to_seconds() >= r.ideal_time.to_seconds() * done,
          "train: faster than the healthy iteration time");
  return o;
}

// --- cluster_pod ------------------------------------------------------------

ClusterDriver::ClusterDriver(std::uint64_t seed) {
  params.policy = lp::cluster::SchedulerPolicy::kPhotonicMorph;
  params.cluster.racks = 64;  // 4096 chips
  params.arrival_rate_per_s = 16.0;
  params.horizon = Duration::seconds(120.0);
  params.mtbf_hours = 2.0;
  params.flap_rate_per_hour = 8.0;
  params.flappy_chips = 8;
  params.gray_hysteresis = true;
  params.seed = mix_seed(params.seed, seed);
  sim = std::make_unique<lp::cluster::ClusterScheduler>(params);
}

void ClusterDriver::run() { report = sim->run(); }

Outcome ClusterDriver::outcome() const {
  const auto& r = report;
  Outcome o;
  o.digest = r.digest;
  o.work = static_cast<double>(r.offered);
  auto& v = o.violations;
  require(v, r.offered > 0, "cluster: no jobs offered");
  require(v, r.completed + r.unserved + r.aborted == r.offered,
          "cluster: completed %llu + unserved %llu + aborted %llu != offered %llu",
          ull(r.completed), ull(r.unserved), ull(r.aborted), ull(r.offered));
  require(v, r.admitted <= r.offered && r.completed <= r.admitted,
          "cluster: admitted %llu outside [completed %llu, offered %llu]",
          ull(r.admitted), ull(r.completed), ull(r.offered));
  require(v, r.completed_work_chip_seconds <= r.offered_work_chip_seconds,
          "cluster: completed work exceeds offered work");
  return o;
}

std::vector<lp::cluster::ShapeMix> cluster_shape_mix() {
  using lp::topo::Shape;
  return {{Shape{{2, 2, 1}}, 4.0}, {Shape{{4, 2, 1}}, 3.0}, {Shape{{4, 4, 1}}, 2.0},
          {Shape{{4, 4, 2}}, 1.0}, {Shape{{4, 4, 4}}, 0.5}};
}

}  // namespace perfbench
