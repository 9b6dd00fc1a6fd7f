#include "runtime/recovery.hpp"

#include "util/parallel.hpp"

namespace lp::runtime {

RecoveryResult drive_recovery(fabric::Fabric& fab,
                              const routing::DegradedCircuit& victim,
                              const RecoveryPolicy& policy,
                              routing::EscalationOptions base) {
  RecoveryResult res;
  base.retries_per_rung = policy.retries_per_rung;
  // Strictly optical: rung 4 never succeeds and rung 5 is a free sentinel —
  // landing there means "out of optical ideas", and the caller owns what
  // that costs (elastic shrink or a migration charge).
  base.electrical_feasible = false;
  base.migration_latency = Duration::zero();
  base.rung_timeout = policy.rung_timeout;

  Duration budget = policy.initial_budget;
  Duration backoff = policy.backoff_base;
  for (std::uint32_t attempt = 0; attempt <= policy.max_attempts; ++attempt) {
    routing::EscalationOptions opts = base;
    // The last climb is unbounded so the loop always settles the victim.
    opts.budget = attempt == policy.max_attempts ? Duration::zero() : budget;
    opts.backoff = policy.rung_backoff;
    // Distinct jitter stream per climb: retries of climb N never reuse the
    // waits of climb N-1, yet every rerun charges the same waits.
    opts.backoff.seed = util::task_seed(policy.rung_backoff.seed, attempt);
    const routing::EscalationOutcome out = routing::escalate_repair(fab, victim, opts);
    ++res.climbs;
    for (std::size_t k = 0; k < routing::kRepairRungCount; ++k) {
      res.rung_attempts[k] += out.attempts[k];
    }
    res.repair_latency += out.latency;
    res.transient_failures += out.transient_failures;
    if (out.recovered) {
      res.rung = out.rung;
      if (out.rung == routing::RepairRung::kRackMigration) {
        res.fell_through = true;
      } else {
        res.recovered = true;
        res.circuits = out.circuits;
      }
      return res;
    }
    if (out.transient_failed && attempt == policy.max_attempts) {
      // Even the unbounded climb ended transiently: the victim is still
      // established — report it so the caller can ride out the disturbance.
      res.transient_failed = true;
      return res;
    }
    if (!out.budget_exhausted && !out.transient_failed) {
      res.plan_failure = true;  // victim.id names no established circuit
      return res;
    }
    // Budget exhaustion and transient failure back off the same way: the
    // fabric is untouched, so a later climb with more budget (or past the
    // disturbance) can still succeed.
    res.backoff_latency += backoff;
    budget = budget * policy.backoff_factor;
    backoff = backoff * policy.backoff_factor;
  }
  return res;  // unreachable: the unbounded climb always returns above
}

GrayController::GrayController(GrayResponse response,
                               const fault::FlapDamperParams& damper,
                               routing::PlanCache& view)
    : response_{response}, damper_{damper} {
  if (response != GrayResponse::kDamped) return;
  view.set_quarantine([this](fabric::GlobalTile t, fabric::Direction d) {
    return damper_.state(fault::gray_component_key(t, d), now_) ==
           fault::LinkState::kQuarantined;
  });
}

Duration GrayController::play(const fault::GrayEpisode& ep, Duration t0, fabric::Fabric& fab,
                              fabric::CircuitId victim, const RecoveryPolicy& policy,
                              routing::EscalationOptions base,
                              const std::function<bool(Duration&)>& on_climb) {
  const std::uint64_t key = fault::gray_component_key(ep.tile, ep.direction);
  const routing::DegradedCircuit down{.id = victim, .hard_down = true};
  base.transient_failure = [](routing::RepairRung, std::uint32_t) { return true; };
  Duration stall = Duration::zero();
  for (std::size_t k = 0; k < ep.trace.dips(); ++k) {
    const Duration t_dip = t0 + Duration::seconds(ep.trace.dip_start(k));
    const Duration dark = Duration::seconds(ep.trace.dip_seconds(k));
    ++stats_.transitions;
    stats_.dark += dark;
    stall += dark;
    now_ = t_dip;
    if (response_ == GrayResponse::kRideOut) continue;
    if (response_ == GrayResponse::kDamped &&
        damper_.record_flap(key, t_dip) == fault::LinkState::kQuarantined) {
      continue;
    }
    const RecoveryResult res = drive_recovery(fab, down, policy, base);
    ++stats_.climbs;
    stats_.transient_failures += res.transient_failures;
    stall += res.total();
    if (!on_climb(stall)) break;
  }
  return stall;
}

}  // namespace lp::runtime
