// The three perfbench workloads: one fault-driven driver each, built from a
// seed through the driver's public entry point.
//
//   serve_open_loop  serve::run_serving, 16 replicas x 16 tiles, open-loop
//                    Poisson at 1e6 req/s, default accelerated fault clock.
//   train_recovery   runtime::TrainingRun, photonic repair on a 16-chip
//                    ring over 2 wafers, 1200 iterations, MTBF 0.1 h,
//                    flaps 16/h damped.
//   cluster_pod      cluster::ClusterScheduler, 64 racks / 4096 chips,
//                    photonic morph, 16 jobs/s, MTBF 2 h, flaps 8/h on 8
//                    flappy chips damped.
//
// A run of the benchmark is a sequence of trials, trial i seeded with
// trial_seed(seed, i), so one run averages over many fault timelines.
// A driver's constructor is the set-up (build the params, construct the
// simulator); run() is the one call timed as wall_s; outcome() derives the
// behavioural digest, the simulated work units and the accounting-identity
// violations from the report.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/scheduler.hpp"
#include "runtime/training_run.hpp"
#include "serve/serving_sim.hpp"

namespace perfbench {

enum class WorkloadId : std::uint8_t { kServe, kTrain, kCluster };

inline constexpr WorkloadId kAllWorkloads[] = {WorkloadId::kServe, WorkloadId::kTrain,
                                               WorkloadId::kCluster};

[[nodiscard]] const char* workload_name(WorkloadId w);
[[nodiscard]] std::optional<WorkloadId> parse_workload(std::string_view name);

/// Seed of trial `i` of a run started with benchmark seed `seed`.
[[nodiscard]] std::uint64_t trial_seed(std::uint64_t seed, std::uint64_t i);

struct Outcome {
  std::uint64_t digest{0};
  /// Simulated work units: requests offered (serve), training iterations
  /// (train), jobs offered (cluster).
  double work{0.0};
  /// One human-readable line per failed accounting identity.
  std::vector<std::string> violations;
};

class ServeDriver {
 public:
  explicit ServeDriver(std::uint64_t seed);
  void run();
  [[nodiscard]] Outcome outcome() const;

  lp::serve::ServingParams params;
  lp::serve::ServingReport report;
};

class TrainDriver {
 public:
  explicit TrainDriver(std::uint64_t seed);
  void run();
  [[nodiscard]] Outcome outcome() const;

  lp::runtime::RunConfig config;
  /// Heap-held: the run's plan cache refers to its own fabric, so the
  /// simulator must not move.
  std::unique_ptr<lp::runtime::TrainingRun> sim;
  lp::runtime::RunReport report;
};

class ClusterDriver {
 public:
  explicit ClusterDriver(std::uint64_t seed);
  void run();
  [[nodiscard]] Outcome outcome() const;

  lp::cluster::ClusterParams params;
  std::unique_ptr<lp::cluster::ClusterScheduler> sim;
  lp::cluster::ClusterReport report;
};

/// The default cluster tenant mix (ClusterParams::mix left empty), spelled
/// out for the allocator replay probe.
[[nodiscard]] std::vector<lp::cluster::ShapeMix> cluster_shape_mix();

}  // namespace perfbench
