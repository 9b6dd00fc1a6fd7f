#include "serve/serving_sim.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <deque>
#include <optional>
#include <stdexcept>
#include <vector>

#include "collective/autotuner.hpp"
#include "routing/plan_cache.hpp"
#include "sim/event_engine.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"

namespace lp::serve {

namespace {

using fabric::CircuitId;
using fabric::GlobalTile;

constexpr std::uint32_t kNil = 0xffffffffu;

/// One request waiting in a replica's queue.
struct Request {
  double arrival{0.0};  ///< seconds
  std::uint32_t prefill_tokens{1};
  std::uint32_t decode_tokens{1};
  std::size_t prefill_replica{0};
  bool migrate{false};
};

/// One sequence resident in a replica's batch: all its retirement needs.
/// Residents live in ServingSim's pool and link into wheel slots by index.
struct Resident {
  double arrival{0.0};  ///< seconds
  /// KV-migration latency charged at admission, folded into the request's
  /// completion latency (the decode stream starts that much later).
  double extra{0.0};
  std::uint32_t next{kNil};
};

/// A FIFO list of residents, linked through Resident::next.
struct Fifo {
  std::uint32_t head{kNil};
  std::uint32_t tail{kNil};
};

struct Replica {
  std::vector<GlobalTile> tiles;
  /// Flat tile ids of `tiles`, the member list the autotuner fingerprints.
  std::vector<topo::TpuId> ids;
  /// Autotuner topology fingerprint of `ids` at the host-circuit rate and
  /// reconfiguration delay; none of the three changes after setup.
  std::uint64_t fingerprint{0};
  /// Intra-replica backbone ring (weights/activations plane).  These are
  /// the circuits the health monitor diagnoses and the repair ladder
  /// rebuilds; HostStack traffic rides its own cached circuits.
  std::vector<CircuitId> backbone;
  std::deque<Request> queue;
  /// Completion wheel: the batch's residents, filed at admission under the
  /// round they retire in (slot = round number & wheel mask), in admission
  /// order.
  std::vector<Fifo> wheel;
  /// Rounds this replica has run: the number of the next one.
  std::uint64_t rounds_run{0};
  /// Residents across the wheel: the batch size.
  std::uint32_t active{0};
  double paused_until{0.0};
  std::uint32_t rotation{0};
  bool round_scheduled{false};
  bool online{true};
};

class ServingSim {
 public:
  explicit ServingSim(const ServingParams& params)
      : params_{params},
        fab_{params.fabric},
        host_{fab_, params.host},
        cache_{fab_},
        monitor_{params.health},
        injector_{fab_, params.fault_model, util::task_seed(params.seed, 0)},
        gen_{params.traffic, params.replicas, params.seed},
        fault_rng_{util::task_seed(params.seed, 3)},
        gray_rng_{util::task_seed(params.seed, 4)},
        gray_{params.gray_hysteresis ? runtime::GrayResponse::kDamped
                                     : runtime::GrayResponse::kNaive,
              params.damper, cache_} {
    tuner_rate_ = fab_.per_wavelength_rate() *
                  static_cast<double>(params.host.wavelengths_per_circuit);
    tuner_reconfig_ = fab_.reconfig().settle_latency();
  }

  ServingReport run();

 private:
  [[nodiscard]] double now_s() const { return engine_.now().to_seconds(); }

  [[nodiscard]] double chips() const {
    return static_cast<double>(params_.replicas) * params_.tiles_per_replica;
  }

  void setup_replicas();
  void schedule_first_events();
  /// Holds the next arrival at `at` seconds if it lands inside the window.
  void arm_arrival(double at);
  /// Next fault / flap one Poisson gap after now, inside the arrival window.
  void arm_fault();
  void arm_gray();

  void arrival();
  void round(std::size_t r);
  void fault_event();
  void gray_event();
  void detection();

  void kick(std::size_t r, double at);
  void admit(std::size_t r);
  /// Files a new resident under its last round, `rounds` rounds on
  /// counting the one being run.
  void enlist(Replica& rep, double arrival, double extra, std::uint64_t rounds);
  void complete(const Resident& s, double done_t);
  void take_offline(std::size_t r);
  [[nodiscard]] std::size_t resolve_online(std::size_t preferred) const;
  [[nodiscard]] routing::EscalationOptions base_options();

  ServingParams params_;
  fabric::Fabric fab_;
  core::HostStack host_;
  routing::PlanCache cache_;
  fault::HealthMonitor monitor_;
  fault::FaultInjector injector_;
  /// Queries only (monitor + validate); each event's own set carries the
  /// ledger side effects, which serving never reverts.
  fault::FaultSet cumulative_;
  RequestGenerator gen_;
  Rng fault_rng_;
  Rng gray_rng_;
  /// Naive or damped dip response; owns the damper and the quarantine view.
  runtime::GrayController gray_;
  sim::EventEngine engine_;
  /// Picks expert-exchange and KV-migration shapes per (size bucket,
  /// replica fingerprint, fabric epoch).  The rate/reconfig pair below is
  /// the host-circuit model the picks are evaluated against.
  coll::Autotuner tuner_;
  Bandwidth tuner_rate_{Bandwidth::zero()};
  Duration tuner_reconfig_{Duration::zero()};

  /// The next open-loop arrival.  The Poisson stream does not depend on
  /// the simulation, so it stays out of the calendar queue: run() merges it
  /// into the engine's order with the seq it reserved where the arrival
  /// would have been scheduled.
  struct PendingArrival {
    TimePoint when;
    std::uint64_t seq{0};
  };
  std::optional<PendingArrival> next_arrival_;

  std::vector<Replica> replicas_;
  /// Every replica's residents; free slots chain from free_resident_.
  std::vector<Resident> residents_;
  std::uint32_t free_resident_{kNil};
  /// Wheel slots per replica minus one; the slot count is a power of two at
  /// least as large as the longest request's round count.
  std::uint64_t wheel_mask_{0};
  std::vector<double> latencies_;
  ServingReport report_;
};

void ServingSim::setup_replicas() {
  const auto& wafer = fab_.wafer(0);
  const auto tiles = static_cast<std::int32_t>(params_.tiles_per_replica);
  // The generator clamps token counts to [1, max(1, *_tokens_max)].
  const TrafficParams& tp = params_.traffic;
  const std::uint64_t chunk = params_.prefill_chunk;
  const std::uint64_t longest =
      (std::max<std::uint64_t>(tp.prefill_tokens_max, 1) + chunk - 1) / chunk +
      std::max<std::uint64_t>(tp.decode_tokens_max, 1);
  wheel_mask_ = std::bit_ceil(longest) - 1;
  replicas_.resize(params_.replicas);
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    Replica& rep = replicas_[r];
    rep.wheel.resize(wheel_mask_ + 1);
    rep.tiles.reserve(params_.tiles_per_replica);
    for (std::int32_t t = 0; t < tiles; ++t) {
      rep.tiles.push_back(GlobalTile{
          0, wafer.tile_at({static_cast<std::int32_t>(r), t})});
      rep.ids.push_back(static_cast<topo::TpuId>(rep.tiles.back().tile));
    }
    rep.fingerprint =
        coll::Autotuner::topology_fingerprint(rep.ids, tuner_rate_, tuner_reconfig_);
    // Ring circuits t -> t+1 (the wrap link routes back across the row).
    for (std::size_t t = 0; t < rep.tiles.size(); ++t) {
      const auto next = (t + 1) % rep.tiles.size();
      auto c = fab_.connect(rep.tiles[t], rep.tiles[next],
                            params_.backbone_wavelengths);
      if (c.ok()) rep.backbone.push_back(c.value());
    }
  }
}

void ServingSim::schedule_first_events() {
  arm_arrival(gen_.next_interarrival().to_seconds());
  if (params_.mtbf_hours > 0.0 && chips() > 0.0) arm_fault();
  if (params_.flap_rate_per_hour > 0.0 && chips() > 0.0) arm_gray();
}

void ServingSim::arm_arrival(double at) {
  if (at <= params_.horizon.to_seconds()) {
    next_arrival_ = PendingArrival{TimePoint::at_seconds(at), engine_.reserve_seq()};
  } else {
    next_arrival_.reset();
  }
}

void ServingSim::arm_fault() {
  // Strikes are confined to the arrival window so the drain tail measures
  // recovery, not fresh damage.
  sim::arm(engine_, engine_.now(), fault_rng_, chips() / (params_.mtbf_hours * 3600.0),
           params_.horizon, [this] { fault_event(); });
}

void ServingSim::arm_gray() {
  sim::arm(engine_, engine_.now(), gray_rng_,
           chips() * params_.flap_rate_per_hour / 3600.0, params_.horizon,
           [this] { gray_event(); });
}

std::size_t ServingSim::resolve_online(std::size_t preferred) const {
  for (std::size_t k = 0; k < replicas_.size(); ++k) {
    const std::size_t r = (preferred + k) % replicas_.size();
    if (replicas_[r].online) return r;
  }
  return replicas_.size();
}

void ServingSim::kick(std::size_t r, double at) {
  Replica& rep = replicas_[r];
  if (rep.round_scheduled || !rep.online) return;
  rep.round_scheduled = true;
  engine_.schedule_at(TimePoint::at_seconds(at), [this, r] { round(r); });
}

void ServingSim::arrival() {
  const double now = now_s();
  ++report_.offered;
  const RequestSpec spec = gen_.next_request();
  const std::size_t r = resolve_online(spec.replica);
  if (r == replicas_.size()) {
    ++report_.abandoned;  // every replica lost: offered load goes unserved
  } else {
    Request q;
    q.arrival = now;
    q.prefill_tokens = spec.prefill_tokens;
    q.decode_tokens = spec.decode_tokens;
    const std::size_t pr = resolve_online(spec.prefill_replica);
    // A prefill host that died re-runs prefill locally: no migration flow.
    q.migrate = spec.migrate && pr < replicas_.size() && pr != r;
    q.prefill_replica = q.migrate ? pr : r;
    Replica& rep = replicas_[r];
    rep.queue.push_back(q);
    kick(r, std::max(now, rep.paused_until));
  }
  arm_arrival(now + gen_.next_interarrival().to_seconds());
}

void ServingSim::admit(std::size_t r) {
  Replica& rep = replicas_[r];
  while (rep.active < params_.batch_capacity && !rep.queue.empty()) {
    const Request q = rep.queue.front();
    rep.queue.pop_front();
    std::uint32_t prefill_left = q.prefill_tokens;
    double extra = 0.0;
    if (q.migrate) {
      // Pull the KV cache from the prefill host before decoding.  The
      // autotuner decides the transfer shape: small prompts go as one bulk
      // lead-tile send, large ones stripe across parallel tile-pair
      // circuits (each stripe a cached host circuit; a miss pays
      // reconfiguration r, and under churn it is a miss — that is the
      // point).
      ++report_.kv_migrations;
      const Replica& src = replicas_[q.prefill_replica];
      const DataSize bytes =
          params_.traffic.kv_bytes_per_token *
          static_cast<double>(q.prefill_tokens);
      const coll::Decision pick = tuner_.pick(
          coll::CollOp::kTransfer, bytes, {src.ids[0], rep.ids[0]}, tuner_rate_,
          tuner_reconfig_, fab_.epoch());
      const auto ways = static_cast<std::uint32_t>(
          std::min<std::size_t>(tuner_.params().stripe_ways,
                                std::min(src.tiles.size(), rep.tiles.size())));
      if (pick.algo == coll::Algorithm::kStriped && ways > 1) {
        ++report_.kv_striped;
        const DataSize per_stripe = bytes / static_cast<double>(ways);
        double stripe_extra = 0.0;
        bool ok = true;
        for (std::uint32_t i = 0; i < ways && ok; ++i) {
          const auto sent = host_.send(src.tiles[i], rep.tiles[i], per_stripe);
          if (sent.ok()) {
            stripe_extra = std::max(stripe_extra, sent.value().to_seconds());
          } else {
            ok = false;
          }
        }
        if (ok) {
          extra = stripe_extra;  // stripes land in parallel; slowest one gates
          prefill_left = 0;
        } else {
          ++report_.send_failures;  // fabric too broken to migrate: re-prefill
        }
      } else {
        const auto sent = host_.send(src.tiles[0], rep.tiles[0], bytes);
        if (sent.ok()) {
          extra = sent.value().to_seconds();
          prefill_left = 0;  // prefill already ran remotely
        } else {
          ++report_.send_failures;  // fabric too broken to migrate: re-prefill
        }
      }
    }
    // A round retires one prefill chunk, or one decode token once prefill
    // is done, and the sequence leaves after the round that retires its
    // last token (or after one round if it has none left).
    const std::uint64_t chunk = params_.prefill_chunk;
    enlist(rep, q.arrival, extra,
           std::max<std::uint64_t>(1, (prefill_left + chunk - 1) / chunk + q.decode_tokens));
  }
}

void ServingSim::enlist(Replica& rep, double arrival, double extra, std::uint64_t rounds) {
  std::uint32_t i = free_resident_;
  if (i == kNil) {
    i = static_cast<std::uint32_t>(residents_.size());
    residents_.emplace_back();
  } else {
    free_resident_ = residents_[i].next;
  }
  residents_[i] = Resident{arrival, extra, kNil};
  Fifo& slot = rep.wheel[(rep.rounds_run + rounds - 1) & wheel_mask_];
  if (slot.tail == kNil) {
    slot.head = i;
  } else {
    residents_[slot.tail].next = i;
  }
  slot.tail = i;
  ++rep.active;
}

void ServingSim::complete(const Resident& s, double done_t) {
  const double latency = done_t - s.arrival + s.extra;
  ++report_.completed;
  if (latency <= params_.slo.to_seconds()) ++report_.met_slo;
  latencies_.push_back(latency);
  report_.digest =
      fabric::hash_mix(report_.digest, std::bit_cast<std::uint64_t>(latency));
}

void ServingSim::round(std::size_t r) {
  Replica& rep = replicas_[r];
  rep.round_scheduled = false;
  if (!rep.online) return;
  const double now = now_s();
  if (now < rep.paused_until) {
    kick(r, rep.paused_until);  // repair ladder holds the replica
    return;
  }
  admit(r);
  if (rep.active == 0) return;  // idle; the next arrival re-kicks

  ++report_.rounds;
  const double active = static_cast<double>(rep.active);

  // MoE expert all-to-all: every tile exchanges its shard each round; the
  // round waits for the slowest exchange.  The autotuner picks the pattern
  // from the per-rotation-cycle exchange volume: rotation (fresh partner
  // each round — re-pairing circuit churn, lean bytes) vs the standing
  // next-neighbor ring (one pairing forever, this round's shard forwarded
  // `offset` hops, so bytes inflate by the hop count).  Steady state hits
  // the circuit cache either way; after fault-driven flushes each send
  // re-plans and pays r, which is how churn reaches the latency tail.
  double comm = 0.0;
  const DataSize per_tile =
      params_.traffic.expert_bytes_per_token *
      (active / static_cast<double>(rep.tiles.size()));
  const std::uint32_t peers = std::max(params_.expert_peers, 1u);
  const coll::Decision pick = tuner_.pick_keyed(
      coll::CollOp::kAllToAll, per_tile * static_cast<double>(peers),
      rep.ids.size(), rep.fingerprint, tuner_rate_, tuner_reconfig_, fab_.epoch());
  const std::uint32_t offset = 1 + rep.rotation % peers;
  const bool ring = pick.algo == coll::Algorithm::kRing;
  if (ring) ++report_.expert_ring_rounds;
  const std::size_t hop = ring ? 1 : offset;
  const DataSize per_send =
      ring ? per_tile * static_cast<double>(offset) : per_tile;
  for (std::size_t t = 0; t < rep.tiles.size(); ++t) {
    const std::size_t peer = (t + hop) % rep.tiles.size();
    ++report_.expert_sends;
    const auto sent = host_.send(rep.tiles[t], rep.tiles[peer], per_send);
    if (sent.ok()) {
      comm = std::max(comm, sent.value().to_seconds());
    } else {
      ++report_.send_failures;
      comm = std::max(comm, fab_.reconfig().settle_latency().to_seconds());
    }
  }
  ++rep.rotation;

  const double round_dur = params_.round_base.to_seconds() +
                           params_.round_per_seq.to_seconds() * active + comm;
  const double done_t = now + round_dur;

  // Retire the sequences whose last round this is, in admission order.
  Fifo& due = rep.wheel[rep.rounds_run++ & wheel_mask_];
  for (std::uint32_t i = due.head; i != kNil;) {
    Resident& s = residents_[i];
    complete(s, done_t);
    const std::uint32_t next = s.next;
    s.next = free_resident_;
    free_resident_ = i;
    i = next;
    --rep.active;
  }
  due = Fifo{};

  if (rep.active > 0 || !rep.queue.empty()) kick(r, done_t);
}

void ServingSim::fault_event() {
  const double now = now_s();
  ++report_.fault_events;
  const auto faults = injector_.sample(fault_rng_);
  fault::FaultSet set;
  set.add_all(faults);
  set.apply_to(fab_, params_.fault_model.quarantine_threshold);
  cumulative_.add_all(faults);

  const double detect = params_.recovery.detected_at(Duration::seconds(now)).to_seconds();
  engine_.schedule_at(TimePoint::at_seconds(detect), [this] { detection(); });
  arm_fault();  // the gap is drawn after the fault contents, from the same stream
}

void ServingSim::gray_event() {
  const double now = now_s();
  ++report_.flap_episodes;

  // The flapping component: the source transceiver of a uniformly chosen
  // backbone edge of a uniformly chosen online replica.
  const std::size_t r0 = gray_rng_.uniform_index(replicas_.size());
  const std::size_t r = resolve_online(r0);
  if (r < replicas_.size() && !replicas_[r].backbone.empty()) {
    Replica& rep = replicas_[r];
    const std::size_t e = gray_rng_.uniform_index(rep.backbone.size());
    const fabric::Circuit* c = fab_.circuit(rep.backbone[e]);
    if (c != nullptr && !c->segments.empty() && !c->segments.front().hops.empty()) {
      const GlobalTile tile{c->segments.front().wafer, c->segments.front().from};
      const fabric::Direction dir = c->segments.front().hops.front();
      const fault::GrayEpisode ep =
          injector_.sample_gray_at(gray_rng_, params_.gray, tile, dir);
      // The backbone edge is dark for every dip; a climbed dip also flushes
      // the host circuits (the reconfiguration attempt churns the cached
      // lanes, so subsequent sends re-plan and pay r).
      const auto flush = [this](Duration&) {
        host_.flush();
        ++report_.churn_flushes;
        return true;
      };
      const Duration pause = gray_.play(ep, Duration::seconds(now), fab_, rep.backbone[e],
                                        params_.recovery, base_options(), flush);
      if (pause > Duration::zero()) {
        rep.paused_until = std::max(rep.paused_until, now + pause.to_seconds());
        report_.flap_stall += pause;
        if (rep.active > 0 || !rep.queue.empty()) kick(r, rep.paused_until);
      }
    }
  }
  arm_gray();  // likewise after the episode's draws
}

routing::EscalationOptions ServingSim::base_options() {
  routing::EscalationOptions opts;
  opts.wavelengths = params_.backbone_wavelengths;
  opts.cache = &cache_;
  opts.validate = [this](const fabric::Fabric& f, CircuitId id) {
    return monitor_.diagnose(f, cumulative_, id).health ==
           fault::CircuitHealth::kHealthy;
  };
  return opts;
}

void ServingSim::take_offline(std::size_t r) {
  Replica& rep = replicas_[r];
  rep.online = false;
  ++report_.replicas_offline;
  report_.abandoned += rep.active + rep.queue.size();
  for (Fifo& slot : rep.wheel) {
    if (slot.head == kNil) continue;
    residents_[slot.tail].next = free_resident_;
    free_resident_ = slot.head;
    slot = Fifo{};
  }
  rep.active = 0;
  rep.queue.clear();
  for (const CircuitId id : rep.backbone) {
    if (fab_.circuit(id) != nullptr) fab_.disconnect(id);
  }
  rep.backbone.clear();
}

void ServingSim::detection() {
  const double now = now_s();
  ++report_.detections;
  // Keep the quarantine view current; it never moves back.
  gray_.set_now(std::max(gray_.now(), Duration::seconds(now)));
  // Quarantined lanes invalidate cached routes: drop every host circuit so
  // subsequent sends re-plan around the damage (the churn the bench sweeps).
  host_.flush();
  ++report_.churn_flushes;

  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    Replica& rep = replicas_[r];
    if (!rep.online) continue;
    double pause = 0.0;
    bool lost = false;
    for (CircuitId& id : rep.backbone) {
      const auto diag = monitor_.diagnose(fab_, cumulative_, id);
      if (diag.health == fault::CircuitHealth::kHealthy) continue;
      const auto res = runtime::drive_recovery(fab_, fault::to_degraded(diag),
                                               params_.recovery, base_options());
      pause = std::max(pause, res.total().to_seconds());
      if (res.recovered && !res.circuits.empty()) {
        id = res.circuits.front();
        ++report_.repairs;
      } else {
        // Out of optical ideas (dead endpoint, no spare tiles on a full
        // wafer): the ring is broken and the replica leaves the pool.
        ++report_.repair_failures;
        lost = true;
        break;
      }
    }
    if (lost) {
      take_offline(r);
      continue;
    }
    if (pause > 0.0) {
      rep.paused_until = std::max(rep.paused_until, now + pause);
      report_.stall_time += Duration::seconds(pause);
    }
  }
}

ServingReport ServingSim::run() {
  report_.arrival_rate = params_.traffic.arrival_rate;
  setup_replicas();
  schedule_first_events();
  const TimePoint end =
      TimePoint::at_seconds(params_.horizon.to_seconds() + params_.drain.to_seconds());
  // Each arrival runs where the engine would have dispatched it, had it been
  // scheduled when arm_arrival reserved its seq.
  while (next_arrival_ && next_arrival_->when <= end) {
    engine_.advance_to(next_arrival_->when, next_arrival_->seq);
    arrival();
  }
  engine_.run_until(end);

  for (const Replica& rep : replicas_) {
    report_.in_flight_at_end += rep.active + rep.queue.size();
  }
  if (!latencies_.empty()) {
    // Selection on a scratch copy: latencies_ stays in completion order.
    std::vector<double> scratch = latencies_;
    constexpr double kTail[] = {50.0, 99.0, 99.9, 100.0};
    const std::vector<double> tail = lp::percentiles(scratch, kTail);
    report_.p50 = Duration::seconds(tail[0]);
    report_.p99 = Duration::seconds(tail[1]);
    report_.p999 = Duration::seconds(tail[2]);
    report_.max_latency = Duration::seconds(tail[3]);
  }
  report_.host = host_.stats();
  report_.flap_transitions = gray_.stats().transitions;
  report_.flap_repairs = gray_.stats().climbs;
  report_.transient_repair_failures = gray_.stats().transient_failures;
  report_.suppressed_repairs = gray_.damper().stats().suppressed_repairs;
  report_.quarantines = gray_.damper().stats().quarantines;

  std::uint64_t d = report_.digest;
  d = fabric::hash_mix(d, report_.offered);
  d = fabric::hash_mix(d, report_.completed);
  d = fabric::hash_mix(d, report_.met_slo);
  d = fabric::hash_mix(d, report_.abandoned);
  d = fabric::hash_mix(d, report_.fault_events);
  d = fabric::hash_mix(d, report_.repairs);
  d = fabric::hash_mix(d, report_.repair_failures);
  d = fabric::hash_mix(d, report_.expert_ring_rounds);
  d = fabric::hash_mix(d, report_.kv_striped);
  d = fabric::hash_mix(d, report_.flap_episodes);
  d = fabric::hash_mix(d, report_.flap_transitions);
  d = fabric::hash_mix(d, report_.flap_repairs);
  d = fabric::hash_mix(d, report_.suppressed_repairs);
  d = fabric::hash_mix(d, report_.quarantines);
  d = fabric::hash_mix(d, report_.transient_repair_failures);
  d = fabric::hash_mix(d, std::bit_cast<std::uint64_t>(report_.flap_stall.to_seconds()));
  d = fabric::hash_mix(d, fab_.ledger_digest());
  report_.digest = d;
  report_.latencies = std::move(latencies_);
  return std::move(report_);
}

void check_params(const ServingParams& params) {
  // The completion wheel files each sequence under its last round, and a
  // sequence that never finishes prefilling has none.
  if (params.prefill_chunk == 0) {
    throw std::invalid_argument("ServingParams::prefill_chunk must be positive");
  }
}

}  // namespace

ServingReport run_serving(const ServingParams& params) {
  check_params(params);
  ServingParams p = params;
  p.fabric.wafer.rows = static_cast<std::int32_t>(p.replicas);
  p.fabric.wafer.cols = static_cast<std::int32_t>(p.tiles_per_replica);
  ServingSim sim{p};
  return sim.run();
}

ServingSweepReport run_serving_sweep(const ServingSweepConfig& config) {
  check_params(config.base);  // before any worker can throw
  ServingSweepReport out;
  out.points.resize(config.arrival_rates.size());
  std::optional<util::ThreadPool> local;
  util::ThreadPool& pool = util::sweep_pool(config.threads, local);
  pool.run(config.arrival_rates.size(), [&](std::size_t i, unsigned) {
    ServingParams p = config.base;
    p.traffic.arrival_rate = config.arrival_rates[i];
    // Per-point seed via task_seed: the sweep is bit-identical at any
    // thread count because each point is self-contained and results land
    // by index.
    p.seed = util::task_seed(config.base.seed, i);
    out.points[i] = run_serving(p);
  });
  return out;
}

}  // namespace lp::serve
