// perfbench: times one lightpath-sim workload in this process and prints one
// JSON line with the raw samples (run.py checks and aggregates them).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace 0
//       [--slice <k> --slices <m>]
//       Runs trials k, k+m, k+2m, ... of the workload (trial i seeded with
//       trial_seed(n, i); default k=0, m=1) until <s> seconds have passed,
//       at least one.  Each trial times the set-up (build params, construct
//       the driver) and the driver's run call, and reports the simulated
//       work, the digest and any failed accounting identity.  Slice 0 then
//       replays trial 0 untimed as a determinism check.  The process's peak
//       RSS is reported last.
//
//   perfbench --workload <name> --seed <n> --setup-only 1 --spawn-ns <t>
//       Builds trial 0's params and driver in this fresh process, then
//       reports the seconds since <t> (CLOCK_MONOTONIC nanoseconds read by
//       the parent just before it spawned this process).
//
//   perfbench --workload <name> --seed <n> --trace 1 [--trace-out <file>]
//       The traced layer-probe run.  Runs <name>'s trial 0 untraced, then
//       every driver's trial 0 with spans around its set-up, run call,
//       checks and layer probes (probes.hpp), and reports the per-layer
//       metrics, the tracing overhead and the span-tree self-check.  The
//       probes have fixed sample counts, so --seconds is not used.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "probes.hpp"
#include "trace.hpp"
#include "util/parallel.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  WorkloadId workload{WorkloadId::kServe};
  std::uint64_t seed{0};
  double seconds{10.0};
  bool trace{false};
  bool setup_only{false};
  std::uint64_t slice{0};
  std::uint64_t slices{1};
  std::int64_t spawn_ns{0};
  std::string trace_out;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      const auto w = parse_workload(val);
      if (!w) return std::nullopt;
      a.workload = *w;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--slice") {
      a.slice = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--slices") {
      a.slices = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--setup-only") {
      a.setup_only = val == "1";
    } else if (key == "--spawn-ns") {
      a.spawn_ns = std::strtoll(val.c_str(), nullptr, 10);
    } else if (key == "--trace-out") {
      a.trace_out = val;
    } else {
      return std::nullopt;
    }
  }
  if (!have_workload || argc % 2 != 1 || a.slices == 0 || a.slice >= a.slices) {
    return std::nullopt;
  }
  return a;
}

/// Minimal JSON writer for the one output line.
class Json {
 public:
  Json& raw(const std::string& s) {
    out_ += s;
    return *this;
  }
  Json& str(const std::string& s) {
    out_ += '"';
    for (char c : s) {
      if (c == '"' || c == '\\') out_ += '\\';
      out_ += c;
    }
    out_ += '"';
    return *this;
  }
  Json& num(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out_ += buf;
    return *this;
  }
  Json& key(const std::string& k) {
    str(k);
    out_ += ':';
    return *this;
  }
  Json& strings(const std::vector<std::string>& xs) {
    out_ += '[';
    for (std::size_t i = 0; i < xs.size(); ++i) {
      if (i) out_ += ',';
      str(xs[i]);
    }
    out_ += ']';
    return *this;
  }
  void print() const { std::printf("%s\n", out_.c_str()); }

 private:
  std::string out_;
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

template <typename Driver>
int measure(const Args& a) {
  Json j;
  j.raw("{").key("mode").str("measure").raw(",").key("trials").raw("[");
  const Clock::time_point start = Clock::now();
  std::uint64_t trial = a.slice;
  do {
    const Clock::time_point t0 = Clock::now();
    Driver d{trial_seed(a.seed, trial)};
    const Clock::time_point t1 = Clock::now();
    d.run();
    const Clock::time_point t2 = Clock::now();
    const Outcome o = d.outcome();
    if (trial != a.slice) j.raw(",");
    j.raw("{").key("trial").num(static_cast<double>(trial));
    j.raw(",").key("setup_s").num(seconds_between(t0, t1));
    j.raw(",").key("wall_s").num(seconds_between(t1, t2));
    j.raw(",").key("work").num(o.work);
    j.raw(",").key("digest").str(hex(o.digest));
    j.raw(",").key("violations").strings(o.violations).raw("}");
    trial += a.slices;
  } while (seconds_between(start, Clock::now()) < a.seconds);

  j.raw("]");
  if (a.slice == 0) {
    Driver replay{trial_seed(a.seed, 0)};
    replay.run();
    j.raw(",").key("replay_digest").str(hex(replay.outcome().digest));
  }
  j.raw(",").key("peak_rss_mb").num(peak_rss_mb()).raw("}");
  j.print();
  return 0;
}

template <typename Driver>
int setup_only(const Args& a) {
  const Driver d{trial_seed(a.seed, 0)};
  const std::int64_t ready_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                    Clock::now().time_since_epoch())
                                    .count();
  Json j;
  j.raw("{").key("mode").str("setup").raw(",").key("spawn_to_ready_s");
  j.num(static_cast<double>(ready_ns - a.spawn_ns) * 1e-9);
  j.raw("}").print();
  return 0;
}

/// Root span names of one driver's traced pass (string literals: spans keep
/// the pointer).
struct PassNames {
  const char* setup;
  const char* run;
  const char* check;
  const char* probes;
};

constexpr PassNames pass_names(WorkloadId w) {
  switch (w) {
    case WorkloadId::kServe:
      return {"serve_open_loop.setup", "serve_open_loop.run", "serve_open_loop.check",
              "serve_open_loop.probes"};
    case WorkloadId::kTrain:
      return {"train_recovery.setup", "train_recovery.run", "train_recovery.check",
              "train_recovery.probes"};
    case WorkloadId::kCluster:
      break;
  }
  return {"cluster_pod.setup", "cluster_pod.run", "cluster_pod.check", "cluster_pod.probes"};
}

/// One driver's traced pass: set-up, run call, checks and layer probes, each
/// a root span.
template <typename Driver>
Outcome traced_pass(Tracer& t, WorkloadId w, std::uint64_t seed, std::vector<Metric>& metrics) {
  const PassNames n = pass_names(w);
  std::optional<Driver> d;
  Outcome outcome;
  t.timed(n.setup, [&] { d.emplace(seed); });
  const double run_s = t.timed(n.run, [&] { d->run(); });
  t.timed(n.check, [&] { outcome = d->outcome(); });
  t.timed(n.probes, [&] { probe_layers(t, *d, run_s, metrics); });
  return outcome;
}

template <typename Driver>
int trace(const Args& a) {
  const std::uint64_t seed = trial_seed(a.seed, 0);
  // Untraced reference pass of the requested workload.
  Outcome reference;
  double untraced_wall = 0.0;
  {
    Driver d{seed};
    const Clock::time_point t0 = Clock::now();
    d.run();
    untraced_wall = seconds_between(t0, Clock::now());
    reference = d.outcome();
  }

  const auto run_id = lp::util::task_seed(
      a.seed, static_cast<std::uint64_t>(Clock::now().time_since_epoch().count()));
  Tracer t{run_id};
  std::vector<Metric> metrics;
  const Outcome traced[] = {
      traced_pass<ServeDriver>(t, WorkloadId::kServe, seed, metrics),
      traced_pass<TrainDriver>(t, WorkloadId::kTrain, seed, metrics),
      traced_pass<ClusterDriver>(t, WorkloadId::kCluster, seed, metrics),
  };

  // Self-checks: every pass's identities, the requested workload's digest
  // under tracing equal to its untraced digest, and the span tree.
  std::vector<std::string> violations = reference.violations;
  std::size_t failed = reference.violations.empty() ? 0u : 1u;
  for (const Outcome& o : traced) {
    violations.insert(violations.end(), o.violations.begin(), o.violations.end());
    failed += o.violations.empty() ? 0u : 1u;
  }
  const Outcome& mine = traced[static_cast<std::size_t>(a.workload)];
  if (mine.digest != reference.digest) {
    violations.push_back("trace: " + std::string{workload_name(a.workload)} + " digest " +
                         hex(mine.digest) + " traced vs " + hex(reference.digest) +
                         " untraced");
    ++failed;
  }
  const std::vector<std::string> tree = t.check();
  violations.insert(violations.end(), tree.begin(), tree.end());
  failed += tree.empty() ? 0u : 1u;

  // Each driver's traced set-up (params + construction), by owning layer.
  const auto setup_us = [&](WorkloadId w) { return 1e6 * t.root_seconds(pass_names(w).setup); };
  metrics.push_back({"serve.setup_us", setup_us(WorkloadId::kServe), "us"});
  metrics.push_back({"runtime.setup_us", setup_us(WorkloadId::kTrain), "us"});
  metrics.push_back({"cluster.setup_us", setup_us(WorkloadId::kCluster), "us"});
  const double traced_wall = t.root_seconds(pass_names(a.workload).run);
  metrics.push_back({"trace.root_s", traced_wall, "s"});
  metrics.push_back({"trace.untraced_wall_s", untraced_wall, "s"});
  metrics.push_back({"trace.overhead_s", traced_wall - untraced_wall, "s"});
  metrics.push_back({"trace.spans", static_cast<double>(t.spans().size()), "count"});
  if (!a.trace_out.empty() && !t.write_chrome_json(a.trace_out)) {
    violations.push_back("trace: cannot write " + a.trace_out);
    ++failed;
  }

  Json j;
  j.raw("{").key("mode").str("trace").raw(",").key("digests").raw("{");
  for (WorkloadId w : kAllWorkloads) {
    if (w != WorkloadId::kServe) j.raw(",");
    j.key(workload_name(w)).str(hex(traced[static_cast<std::size_t>(w)].digest));
  }
  // Operations: the untraced pass, three traced passes, the tree check.
  j.raw("},").key("attempted").num(5).raw(",").key("failed").num(static_cast<double>(failed));
  j.raw(",").key("violations").strings(violations).raw(",").key("metrics").raw("{");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) j.raw(",");
    j.key(metrics[i].name).raw("{").key("value").num(metrics[i].value);
    j.raw(",").key("unit").str(metrics[i].unit).raw("}");
  }
  j.raw("}}");
  j.print();
  return 0;
}

template <typename Driver>
int dispatch(const Args& a) {
  if (a.trace) return trace<Driver>(a);
  return a.setup_only ? setup_only<Driver>(a) : measure<Driver>(a);
}

int run(const Args& a) {
  switch (a.workload) {
    case WorkloadId::kServe: return dispatch<ServeDriver>(a);
    case WorkloadId::kTrain: return dispatch<TrainDriver>(a);
    case WorkloadId::kCluster: return dispatch<ClusterDriver>(a);
  }
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto args = perfbench::parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: perfbench --workload serve_open_loop|train_recovery|cluster_pod "
                 "--seed N [--seconds S] [--trace 0|1] [--trace-out FILE] "
                 "[--slice K --slices M] [--setup-only 1 --spawn-ns T]\n");
    return 2;
  }
  try {
    return perfbench::run(*args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
