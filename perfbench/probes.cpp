#include "probes.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <optional>
#include <stdexcept>

#include "collective/autotuner.hpp"
#include "core/host_stack.hpp"
#include "fault/gray.hpp"
#include "fault/health.hpp"
#include "lightpath/circuit.hpp"
#include "phys/link_budget.hpp"
#include "routing/plan_cache.hpp"
#include "serve/workload.hpp"
#include "sim/event_engine.hpp"
#include "topo/slice.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perfbench {
namespace {

using lp::DataSize;
using lp::Duration;
using lp::fabric::GlobalTile;

/// Samples per probe: 1000 leaves ten samples beyond the reported p99.
constexpr std::size_t kSamples = 1000;
/// util::percentile sorts the whole latency sample (~1M values) per call,
/// so it gets 100 samples and reports p90 instead.
constexpr std::size_t kPercentileSamples = 100;
/// Calls per span for nanosecond-scale probes.
constexpr std::size_t kEngineBatch = 1024;
constexpr std::size_t kGeneratorBatch = 64;
constexpr std::size_t kTunerBatch = 8;
constexpr std::size_t kDamperBatch = 8;

/// Keeps a result observable so the timed call is not optimized away.
template <typename T>
void keep(const T& v) {
  asm volatile("" : : "m"(v) : "memory");
}

/// Per-call seconds of `n` spans named `span`; fn(i) makes `batch` calls.
template <typename F>
std::vector<double> sample(Tracer& t, const char* span, std::size_t n, std::size_t batch,
                           F&& fn) {
  std::vector<double> s;
  s.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.push_back(t.timed(span, [&] { fn(i); }) / static_cast<double>(batch));
  }
  return s;
}

/// Nearest-rank quantile.
double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) throw std::runtime_error("probe produced no samples");
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(xs.size())));
  return xs[std::clamp<std::size_t>(rank, 1, xs.size()) - 1];
}

double median(const std::vector<double>& xs) { return quantile(xs, 0.5); }

void add_timing(std::vector<Metric>& out, const std::string& name, const char* unit,
                double scale, const std::vector<double>& s, int tail) {
  out.push_back({name + ".p50", quantile(s, 0.5) * scale, unit});
  out.push_back({name + ".p" + std::to_string(tail), quantile(s, tail / 100.0) * scale, unit});
  out.push_back({name + ".n", static_cast<double>(s.size()), "count"});
}

void add_count(std::vector<Metric>& out, const std::string& name, double v,
               const char* unit = "count") {
  out.push_back({name, v, unit});
}

/// Self-rescheduling holder for the EventEngine replay: each of `held`
/// holders fires at arrival_rate / held, so the engine runs at the serving
/// point's aggregate rate with `held` events pending.
struct Tick {
  lp::sim::EventEngine* engine;
  lp::Rng* rng;
  double rate;
  void operator()() const {
    engine->schedule_in(Duration::seconds(rng->exponential(rate)), Tick{*this});
  }
};

}  // namespace

void probe_layers(Tracer& t, const ServeDriver& d, double run_s, std::vector<Metric>& out) {
  const lp::serve::ServingParams& p = d.params;
  const lp::serve::ServingReport& r = d.report;

  // util: the report's three tail percentiles over the run's own latencies.
  constexpr double kPcts[] = {50.0, 99.0, 99.9};
  const auto pct = sample(t, "util.percentile", kPercentileSamples, 1, [&](std::size_t i) {
    const double v = lp::percentile(r.latencies, kPcts[i % 3]);
    keep(v);
  });
  add_timing(out, "util.percentile_us", "us", 1e6, pct, 90);

  // sim: the serving point's pending-event population (one holder per
  // 1/16 tile) at the offered arrival rate.
  {
    lp::sim::EventEngine engine;
    lp::Rng rng{p.seed};
    const std::size_t held = std::size_t{p.replicas} * p.tiles_per_replica * 16;
    const double rate = p.traffic.arrival_rate / static_cast<double>(held);
    for (std::size_t i = 0; i < held; ++i) {
      engine.schedule_in(Duration::seconds(rng.exponential(rate)), Tick{&engine, &rng, rate});
    }
    const auto ev = sample(t, "sim.EventEngine::run", kSamples, kEngineBatch, [&](std::size_t) {
      const std::size_t ran = engine.run(kEngineBatch);
      keep(ran);
    });
    add_timing(out, "sim.engine_event_ns", "ns", 1e9, ev, 99);
  }

  // core: one replica round of rotating expert sends per span, on the
  // serving wafer layout (replica r owns row r).
  double host_send_s = 0.0;
  {
    lp::fabric::FabricConfig cfg = p.fabric;
    cfg.wafer.rows = static_cast<std::int32_t>(p.replicas);
    cfg.wafer.cols = static_cast<std::int32_t>(p.tiles_per_replica);
    lp::fabric::Fabric fab{cfg};
    lp::core::HostStack host{fab, p.host};
    std::vector<std::vector<GlobalTile>> rows(p.replicas);
    for (std::uint32_t row = 0; row < p.replicas; ++row) {
      for (std::uint32_t col = 0; col < p.tiles_per_replica; ++col) {
        rows[row].push_back(GlobalTile{
            0, fab.wafer(0).tile_at({static_cast<std::int32_t>(row),
                                     static_cast<std::int32_t>(col)})});
      }
    }
    const std::uint32_t peers = std::max(p.expert_peers, 1u);
    const DataSize bytes = p.traffic.expert_bytes_per_token * 8.0;
    const auto hs = sample(t, "core.HostStack::send", kSamples, p.tiles_per_replica,
                           [&](std::size_t i) {
                             const auto& row = rows[i % rows.size()];
                             const std::size_t off = 1 + (i / rows.size()) % peers;
                             for (std::size_t k = 0; k < row.size(); ++k) {
                               const auto sent =
                                   host.send(row[k], row[(k + off) % row.size()], bytes);
                               keep(sent);
                             }
                           });
    add_timing(out, "core.host_send_ns", "ns", 1e9, hs, 99);
    host_send_s = median(hs);
  }

  // serve: the generator's arrival gap + request draw pair.
  lp::serve::RequestGenerator gen{p.traffic, p.replicas, p.seed};
  const auto nr = sample(t, "serve.RequestGenerator::next", kSamples, kGeneratorBatch,
                         [&](std::size_t) {
                           for (std::size_t k = 0; k < kGeneratorBatch; ++k) {
                             const Duration gap = gen.next_interarrival();
                             const lp::serve::RequestSpec spec = gen.next_request();
                             keep(gap);
                             keep(spec);
                           }
                         });
  add_timing(out, "serve.next_request_ns", "ns", 1e9, nr, 99);

  add_count(out, "core.host_messages", static_cast<double>(r.host.messages));
  add_count(out, "core.host_hit_ratio", r.host.hit_rate(), "ratio");
  add_count(out, "core.host_evictions", static_cast<double>(r.host.evictions));
  add_count(out, "serve.rounds", static_cast<double>(r.rounds));
  add_count(out, "serve.abandoned", static_cast<double>(r.abandoned));

  const double msgs = static_cast<double>(r.host.messages);
  add_count(out, "core.host_send_share", host_send_s * msgs / run_s, "fraction");
  add_count(out, "util.percentile_share", 3.0 * median(pct) / run_s, "fraction");
  add_count(out, "serve.next_request_share",
            median(nr) * static_cast<double>(r.offered) / run_s, "fraction");
}

void probe_layers(Tracer& t, const TrainDriver& d, double run_s, std::vector<Metric>& out) {
  // The probes replay on the run's final ring.  A run whose ring collapsed
  // below two members leaves nothing to probe; it is probed on its initial
  // ring instead, still against every fault the run accumulated.
  std::optional<lp::runtime::TrainingRun> initial;
  if (d.sim->ring_members().size() < 2) initial.emplace(d.config);
  const lp::runtime::TrainingRun& subject = initial ? *initial : *d.sim;
  const lp::fabric::Fabric& fab = subject.fabric();
  const lp::fault::FaultSet& faults = d.sim->active_faults();
  const std::vector<lp::fabric::CircuitId> ids = fab.circuit_ids();

  // phys: budget re-closure at each live circuit's path loss.
  {
    const lp::phys::LinkBudget budget{fab.config().budget};
    std::vector<std::pair<lp::Decibel, unsigned>> at;
    for (lp::fabric::CircuitId id : ids) {
      const lp::phys::CircuitProfile profile =
          lp::fabric::profile_of(*fab.circuit(id), fab.config().wafer.tile);
      at.emplace_back(budget.path_loss(profile), profile.mzi_traversals);
    }
    const auto ev = sample(t, "phys.LinkBudget::evaluate_at_loss", kSamples, 1,
                           [&](std::size_t i) {
                             const auto& [loss, mzis] = at[i % at.size()];
                             const auto rep = budget.evaluate_at_loss(loss, mzis);
                             keep(rep);
                           });
    add_timing(out, "phys.evaluate_at_loss_us", "us", 1e6, ev, 99);
  }

  // fault: diagnosis of each live circuit, and whole-fabric scans, against
  // every fault the run accumulated.
  {
    const lp::fault::HealthMonitor monitor{d.config.health};
    const auto dg = sample(t, "fault.HealthMonitor::diagnose", kSamples, 1, [&](std::size_t i) {
      const auto diag = monitor.diagnose(fab, faults, ids[i % ids.size()]);
      keep(diag);
    });
    add_timing(out, "fault.diagnose_us", "us", 1e6, dg, 99);
    const auto sc = sample(t, "fault.HealthMonitor::scan", kSamples, 1, [&](std::size_t) {
      const auto unhealthy = monitor.scan(fab, faults);
      keep(unhealthy);
    });
    add_timing(out, "fault.scan_us", "us", 1e6, sc, 99);
  }

  // routing: single-route memo over every same-wafer tile pair, first on a
  // cold cache (route search + record), then again warm (validated replay).
  {
    lp::fabric::Fabric scratch = fab;  // the cache needs a mutable ledger
    std::vector<lp::routing::Demand> demands;
    for (lp::fabric::WaferId w = 0; w < scratch.config().wafer_count; ++w) {
      const std::uint32_t tiles = scratch.wafer(w).tile_count();
      for (lp::fabric::TileId a = 0; a < tiles; ++a) {
        for (lp::fabric::TileId b = 0; b < tiles; ++b) {
          if (a != b) demands.push_back({GlobalTile{w, a}, GlobalTile{w, b}, d.config.wavelengths});
        }
      }
    }
    demands.resize(std::min(demands.size(), 2 * kSamples));
    lp::routing::PlanCache cache{scratch, {}, 2 * demands.size()};
    for (const char* pass : {"cold", "warm"}) {
      const auto rt = sample(t, "routing.PlanCache::route_for", demands.size(), 1,
                             [&](std::size_t i) {
                               const auto route = cache.route_for(demands[i]);
                               keep(route);
                             });
      add_timing(out, std::string{"routing.route_for_"} + pass + "_us", "us", 1e6, rt, 99);
    }
  }

  // collective: keyed picks for the bucket AllReduce over survivor prefixes
  // of the final ring and every size bucket from 1 KiB to 10 GiB; the cold
  // pass clears the decision cache before each sweep of the keys.
  double pick_cold_s = 0.0;
  double pick_warm_s = 0.0;
  {
    lp::coll::Autotuner tuner{};
    const std::uint32_t tiles = fab.wafer(0).tile_count();
    std::vector<lp::topo::TpuId> members;
    for (const GlobalTile& m : subject.ring_members()) {
      members.push_back(static_cast<lp::topo::TpuId>(m.wafer * tiles + m.tile));
    }
    lp::Bandwidth rate = lp::Bandwidth::zero();
    for (lp::fabric::CircuitId id : subject.ring_circuits()) {
      const lp::Bandwidth b = fab.circuit_bandwidth(id);
      if (rate.is_zero() || b < rate) rate = b;
    }
    const Duration reconfig = d.config.cost.reconfig;
    struct Key {
      DataSize n;
      std::size_t m;
      std::uint64_t fingerprint;
    };
    std::vector<Key> keys;
    const std::uint32_t lo = lp::coll::Autotuner::size_bucket(DataSize::kib(1.0));
    const std::uint32_t hi = lp::coll::Autotuner::size_bucket(DataSize::gib(10.0));
    for (std::size_t m = members.size(); m >= 2 && m + 16 > members.size(); --m) {
      const std::vector<lp::topo::TpuId> prefix(members.begin(),
                                                members.begin() + static_cast<long>(m));
      const std::uint64_t fp = lp::coll::Autotuner::topology_fingerprint(prefix, rate, reconfig);
      for (std::uint32_t b = lo; b <= hi; ++b) {
        keys.push_back({lp::coll::Autotuner::bucket_representative(b), m, fp});
      }
    }
    keys.resize(keys.size() - keys.size() % kTunerBatch);
    const std::size_t per_sweep = keys.size() / kTunerBatch;
    const std::uint64_t epoch = fab.epoch();
    auto picks = [&](std::size_t i) {
      for (std::size_t k = 0; k < kTunerBatch; ++k) {
        const Key& key = keys[((i % per_sweep) * kTunerBatch) + k];
        const auto dec = tuner.pick_keyed(lp::coll::CollOp::kAllReduce, key.n, key.m,
                                          key.fingerprint, rate, reconfig, epoch);
        keep(dec);
      }
    };
    std::vector<double> cold;
    for (std::size_t i = 0; i < kSamples; ++i) {
      if (i % per_sweep == 0) tuner.clear();
      cold.push_back(t.timed("collective.Autotuner::pick_keyed", [&] { picks(i); }) /
                     static_cast<double>(kTunerBatch));
    }
    const auto warm = sample(t, "collective.Autotuner::pick_keyed", kSamples, kTunerBatch, picks);
    add_timing(out, "collective.pick_keyed_cold_ns", "ns", 1e9, cold, 99);
    add_timing(out, "collective.pick_keyed_warm_ns", "ns", 1e9, warm, 99);
    pick_cold_s = median(cold);
    pick_warm_s = median(warm);
  }

  // fault: damper bookkeeping for flaps on every port of the final ring.
  double damper_s = 0.0;
  {
    lp::fault::FlapDamper damper{d.config.damper};
    std::vector<std::uint64_t> keys;
    for (const GlobalTile& m : subject.ring_members()) {
      for (lp::fabric::Direction dir : lp::fabric::kAllDirections) {
        keys.push_back(lp::fault::gray_component_key(m, dir));
      }
    }
    double now_s = 0.0;
    const auto dr = sample(t, "fault.FlapDamper::record_flap", kSamples, kDamperBatch,
                           [&](std::size_t i) {
                             for (std::size_t k = 0; k < kDamperBatch; ++k) {
                               const auto state = damper.record_flap(
                                   keys[(i * kDamperBatch + k) % keys.size()],
                                   Duration::seconds(now_s));
                               keep(state);
                               now_s += 0.01;
                             }
                           });
    add_timing(out, "fault.damper_record_ns", "ns", 1e9, dr, 99);
    damper_s = median(dr);
  }

  const lp::runtime::RunReport& r = d.report;
  add_count(out, "fault.detections", static_cast<double>(r.detections));
  add_count(out, "fault.flap_transitions", static_cast<double>(r.flap_transitions));
  add_count(out, "fault.suppressed_repairs", static_cast<double>(r.suppressed_repairs));
  add_count(out, "fault.quarantines", static_cast<double>(r.quarantines));
  for (std::size_t i = 0; i < lp::routing::kRepairRungCount; ++i) {
    std::string rung = lp::routing::to_string(static_cast<lp::routing::RepairRung>(i));
    std::replace(rung.begin(), rung.end(), ' ', '_');
    add_count(out, "routing.recovered_by." + rung, static_cast<double>(r.recovered_by[i]));
  }
  add_count(out, "routing.transient_failures", static_cast<double>(r.transient_repair_failures));
  const auto hits = static_cast<double>(d.sim->tuner().hits());
  const auto misses = static_cast<double>(d.sim->tuner().misses());
  add_count(out, "collective.tuner_hits", hits);
  add_count(out, "collective.tuner_misses", misses);
  add_count(out, "runtime.rollbacks", static_cast<double>(r.rollbacks));
  add_count(out, "runtime.elastic_shrinks", static_cast<double>(r.elastic_shrinks));
  add_count(out, "collective.pick_keyed_share",
            (hits * pick_warm_s + misses * pick_cold_s) / run_s, "fraction");
  add_count(out, "fault.damper_record_share",
            static_cast<double>(r.flap_transitions) * damper_s / run_s, "fraction");
}

void probe_layers(Tracer& t, const ClusterDriver& d, double /*run_s*/,
                  std::vector<Metric>& out) {
  const lp::topo::SliceAllocator& alloc = d.sim->allocator();
  const std::int32_t racks = d.sim->cluster().rack_count();

  const auto largest = sample(t, "topo.SliceAllocator::largest_placeable", kSamples, 1,
                         [&](std::size_t i) {
                           const auto shape = alloc.largest_placeable(
                               static_cast<lp::topo::RackId>(i % static_cast<std::size_t>(racks)));
                           keep(shape);
                         });
  add_timing(out, "topo.largest_placeable_us", "us", 1e6, largest, 99);

  const auto fr = sample(t, "topo.SliceAllocator::fragmentation", kSamples, 1, [&](std::size_t) {
    const auto rep = alloc.fragmentation();
    keep(rep);
  });
  add_timing(out, "topo.fragmentation_us", "us", 1e6, fr, 99);

  // Allocate/release replay of the tenant shape mix on a copy of the final
  // cluster: a FIFO window of live slices, oldest released when full or
  // when the next shape does not fit.
  {
    lp::topo::TpuCluster cluster = d.sim->cluster();
    lp::topo::SliceAllocator replay{cluster};
    const std::vector<lp::cluster::ShapeMix> mix = cluster_shape_mix();
    double total = 0.0;
    for (const auto& m : mix) total += m.weight;
    lp::Rng rng{lp::util::task_seed(d.params.seed, 0xa110c)};
    std::deque<lp::topo::SliceId> live;
    constexpr std::size_t kWindow = 48;
    auto release_oldest = [&] {
      if (live.empty()) return;
      t.timed("topo.SliceAllocator::release", [&] { replay.release(live.front()); });
      live.pop_front();
    };
    std::vector<double> al;
    al.reserve(kSamples);
    for (std::size_t i = 0; i < kSamples; ++i) {
      double u = rng.uniform(0.0, total);
      lp::topo::Shape shape = mix.back().shape;
      for (const auto& m : mix) {
        if (u < m.weight) {
          shape = m.shape;
          break;
        }
        u -= m.weight;
      }
      bool placed = false;
      al.push_back(t.timed("topo.SliceAllocator::allocate", [&] {
        auto id = replay.allocate(shape);
        placed = id.ok();
        if (placed) live.push_back(id.value());
      }));
      if (!placed || live.size() > kWindow) release_oldest();
    }
    add_timing(out, "topo.allocate_us", "us", 1e6, al, 99);
  }

  const lp::cluster::ClusterReport& r = d.report;
  add_count(out, "cluster.admitted", static_cast<double>(r.admitted));
  add_count(out, "cluster.morphs", static_cast<double>(r.morphs));
  add_count(out, "cluster.morph_aborts", static_cast<double>(r.morph_aborts));
  add_count(out, "cluster.morph_useful_ratio",
            r.morphs + r.morph_aborts == 0
                ? 1.0
                : static_cast<double>(r.morphs) / static_cast<double>(r.morphs + r.morph_aborts),
            "ratio");
  add_count(out, "cluster.morph_deferrals", static_cast<double>(r.morph_deferrals));
  add_count(out, "topo.frag_stranding_avg", r.frag_stranding_avg, "fraction");
}

}  // namespace perfbench
