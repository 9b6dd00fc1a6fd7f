// Umbrella header: the full public API of lightpath-sim.
//
// Downstream users can include this single header; fine-grained headers
// remain available for faster builds.
#pragma once

// Utilities
#include "util/result.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

// Photonic device layer
#include "phys/crosstalk.hpp"
#include "phys/link_budget.hpp"
#include "phys/loss.hpp"
#include "phys/modulator.hpp"
#include "phys/mzi.hpp"
#include "phys/photodetector.hpp"
#include "phys/wdm.hpp"

// LIGHTPATH fabric
#include "lightpath/circuit.hpp"
#include "lightpath/fabric.hpp"
#include "lightpath/reconfig.hpp"
#include "lightpath/tile.hpp"
#include "lightpath/types.hpp"
#include "lightpath/wafer.hpp"

// Cluster substrate
#include "topo/cluster.hpp"
#include "topo/multirack.hpp"
#include "topo/ocs.hpp"
#include "topo/slice.hpp"
#include "topo/switched.hpp"
#include "topo/torus.hpp"

// Collective communication
#include "collective/alltoall.hpp"
#include "collective/congestion.hpp"
#include "collective/cost_model.hpp"
#include "collective/extra_schedules.hpp"
#include "collective/ring.hpp"
#include "collective/schedule.hpp"

// Circuit routing
#include "routing/decentralized.hpp"
#include "routing/planner.hpp"
#include "routing/repair.hpp"
#include "routing/router.hpp"
#include "routing/wavelength.hpp"
#include "routing/wdm_planner.hpp"

// Simulation
#include "sim/event_engine.hpp"
#include "sim/flow_sim.hpp"
#include "sim/trace.hpp"

// Core: the paper's contribution assembled
#include "core/bandwidth_manager.hpp"
#include "core/blast_radius.hpp"
#include "core/failure_study.hpp"
#include "core/host_stack.hpp"
#include "core/photonic_rack.hpp"
#include "core/photonic_server.hpp"
#include "core/training_sim.hpp"
