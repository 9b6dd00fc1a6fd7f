// Layer probes for the traced perfbench run.
//
// The benchmark cannot see inside a driver's run call, so each probe replays
// calls into one layer's public functions from outside, on the state the
// driver left behind (its final fabric, fault set, allocator, latency
// sample) or with the driver's own seed and layout, and times every call in
// a span.  Calls too short to time one by one (nanosecond scale) are timed
// in fixed batches; the per-call figure is the batch span over its size.
//
// Each probe reports its per-call median, a tail percentile and the sample
// count.  The counters come from the drivers' public reports and accessors;
// where a call count is exposed, cost x count over the driver's traced run
// span gives that layer's estimated share of wall_s.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value{0.0};
  std::string unit;
};

/// Appends the driver's layer metrics to `out`.  `run_s` is the driver's
/// traced run-call span, the base of its shares.  The cluster report exposes
/// no call count of the probed topo functions, so cluster reports no share.
void probe_layers(Tracer& t, const ServeDriver& d, double run_s, std::vector<Metric>& out);
void probe_layers(Tracer& t, const TrainDriver& d, double run_s, std::vector<Metric>& out);
void probe_layers(Tracer& t, const ClusterDriver& d, double run_s, std::vector<Metric>& out);

}  // namespace perfbench
