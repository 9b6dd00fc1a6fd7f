// Property-style and fuzz-style tests: random operation sequences checked
// against global invariants, and parameterized sweeps asserting the flow
// simulator agrees with the analytic cost model across slice shapes.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "collective/schedule.hpp"
#include "lightpath/fabric.hpp"
#include "routing/planner.hpp"
#include "sim/flow_sim.hpp"
#include "topo/slice.hpp"
#include "util/rng.hpp"

namespace lp {
namespace {

using fabric::CircuitId;
using fabric::Fabric;
using fabric::GlobalTile;
using topo::Coord;
using topo::Shape;
using topo::Slice;
using topo::TpuCluster;

// --- Fabric fuzz: random connect/disconnect preserves the resource ledger ---

TEST(FabricFuzz, RandomOpsNeverLeakResources) {
  Rng rng{0xfab};
  for (int round = 0; round < 20; ++round) {
    fabric::FabricConfig config;
    config.wafer_count = 2;
    Fabric fab{config};
    fab.add_fiber_link(GlobalTile{0, 7}, GlobalTile{1, 0}, 32);
    fab.add_fiber_link(GlobalTile{0, 15}, GlobalTile{1, 8}, 32);

    std::vector<CircuitId> live;
    for (int op = 0; op < 200; ++op) {
      if (!live.empty() && rng.bernoulli(0.4)) {
        const std::size_t pick = rng.uniform_index(live.size());
        fab.disconnect(live[pick]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
        continue;
      }
      const GlobalTile a{static_cast<fabric::WaferId>(rng.uniform_index(2)),
                         static_cast<fabric::TileId>(rng.uniform_index(32))};
      const GlobalTile b{static_cast<fabric::WaferId>(rng.uniform_index(2)),
                         static_cast<fabric::TileId>(rng.uniform_index(32))};
      const auto lambdas = static_cast<std::uint32_t>(1 + rng.uniform_index(4));
      auto id = fab.connect(a, b, lambdas);
      if (id) live.push_back(id.value());
    }
    // Invariant: per-tile usage bounded at all times.
    for (fabric::WaferId w = 0; w < 2; ++w) {
      for (fabric::TileId t = 0; t < 32; ++t) {
        EXPECT_LE(fab.wafer(w).tile(t).tx_used(), 16u);
        EXPECT_LE(fab.wafer(w).tile(t).rx_used(), 16u);
      }
    }
    for (const auto& link : fab.fiber_links()) EXPECT_LE(link.used, link.fibers);

    // Tear everything down: ledger must return to zero.
    for (CircuitId id : live) fab.disconnect(id);
    EXPECT_EQ(fab.active_circuits(), 0u);
    for (fabric::WaferId w = 0; w < 2; ++w) {
      EXPECT_EQ(fab.wafer(w).total_lanes_used(), 0u) << "round " << round;
      for (fabric::TileId t = 0; t < 32; ++t) {
        EXPECT_EQ(fab.wafer(w).tile(t).tx_used(), 0u);
        EXPECT_EQ(fab.wafer(w).tile(t).rx_used(), 0u);
      }
    }
    for (const auto& link : fab.fiber_links()) EXPECT_EQ(link.used, 0u);
  }
}

TEST(FabricFuzz, LaneAccountingMatchesLiveCircuits) {
  // At any point, total lanes used equals the sum over live circuits of
  // wavelengths x hop count.
  Rng rng{0xacc};
  Fabric fab;
  std::map<CircuitId, std::uint64_t> expected_lanes;
  for (int op = 0; op < 300; ++op) {
    if (!expected_lanes.empty() && rng.bernoulli(0.35)) {
      auto it = expected_lanes.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(
                           rng.uniform_index(expected_lanes.size())));
      fab.disconnect(it->first);
      expected_lanes.erase(it);
    } else {
      const GlobalTile a{0, static_cast<fabric::TileId>(rng.uniform_index(32))};
      const GlobalTile b{0, static_cast<fabric::TileId>(rng.uniform_index(32))};
      auto id = fab.connect(a, b, 1 + static_cast<std::uint32_t>(rng.uniform_index(3)));
      if (id) {
        const fabric::Circuit* c = fab.circuit(id.value());
        expected_lanes[id.value()] =
            c->wavelengths * static_cast<std::uint64_t>(c->waveguide_hop_count());
      }
    }
    std::uint64_t expected = 0;
    for (const auto& [id, lanes] : expected_lanes) expected += lanes;
    ASSERT_EQ(fab.wafer(0).total_lanes_used(), expected) << "op " << op;
  }
}

// --- Slice allocator fuzz ----------------------------------------------------

TEST(AllocatorFuzz, RandomAllocReleaseKeepsOwnershipConsistent) {
  Rng rng{0xa110c};
  TpuCluster cluster;
  topo::SliceAllocator alloc{cluster};
  std::vector<topo::SliceId> live;
  const std::vector<Shape> shapes{Shape{{4, 2, 1}}, Shape{{2, 2, 2}}, Shape{{4, 4, 1}},
                                  Shape{{1, 2, 2}}, Shape{{4, 4, 2}}};
  for (int op = 0; op < 400; ++op) {
    if (!live.empty() && rng.bernoulli(0.45)) {
      const std::size_t pick = rng.uniform_index(live.size());
      alloc.release(live[pick]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      auto id = alloc.allocate(shapes[rng.uniform_index(shapes.size())]);
      if (id) live.push_back(id.value());
    }
    // Invariant: owner map and chip states agree exactly.
    std::size_t owned = 0;
    for (topo::TpuId chip = 0; chip < cluster.chip_count(); ++chip) {
      const bool has_owner = alloc.owner(chip).has_value();
      const bool allocated = cluster.state(chip) == topo::ChipState::kAllocated;
      ASSERT_EQ(has_owner, allocated) << "chip " << chip << " op " << op;
      if (has_owner) ++owned;
    }
    std::size_t expected = 0;
    for (topo::SliceId id : live)
      expected += static_cast<std::size_t>(alloc.slice(id)->chip_count());
    ASSERT_EQ(owned, expected);
    // No two live slices overlap.
    std::set<topo::TpuId> seen;
    for (topo::SliceId id : live) {
      const topo::Slice* s = alloc.slice(id);
      s->for_each_coord([&](Coord c) {
        EXPECT_TRUE(seen.insert(cluster.chip_at(s->rack, c)).second);
      });
    }
  }
}

// --- Flow simulator properties -----------------------------------------------

TEST(FlowSimProps, CompletionNeverBeatsLineRate) {
  Rng rng{0xf10};
  const sim::FlowSimulator fsim{Bandwidth::gbps(100)};
  for (int round = 0; round < 50; ++round) {
    std::vector<coll::Transfer> transfers;
    const std::size_t n = 1 + rng.uniform_index(12);
    for (std::size_t i = 0; i < n; ++i) {
      coll::Transfer t;
      t.src = static_cast<topo::TpuId>(i);
      t.dst = static_cast<topo::TpuId>(i + 1);
      t.bytes = DataSize::kib(static_cast<double>(1 + rng.uniform_index(10000)));
      const std::size_t hops = 1 + rng.uniform_index(3);
      for (std::size_t h = 0; h < hops; ++h) {
        t.route.push_back(topo::DirectedLink{
            static_cast<topo::TpuId>(rng.uniform_index(8)),
            static_cast<std::uint8_t>(rng.uniform_index(3)),
            rng.bernoulli(0.5) ? std::int8_t{1} : std::int8_t{-1}});
      }
      transfers.push_back(std::move(t));
    }
    const auto result = fsim.run_phase(transfers);
    for (std::size_t i = 0; i < transfers.size(); ++i) {
      const Duration floor = transfer_time(transfers[i].bytes, Bandwidth::gbps(100));
      EXPECT_GE(result.flows[i].completion.to_seconds(),
                floor.to_seconds() * (1.0 - 1e-9));
      EXPECT_GE(result.duration.to_seconds(), result.flows[i].completion.to_seconds() - 1e-12);
    }
  }
}

TEST(FlowSimProps, WorkConservationOnSingleLink) {
  // All flows share one link: total time == total bytes / capacity.
  Rng rng{0xc0};
  const Bandwidth cap = Bandwidth::gbps(100);
  const sim::FlowSimulator fsim{cap};
  for (int round = 0; round < 30; ++round) {
    std::vector<coll::Transfer> transfers;
    DataSize total = DataSize::zero();
    const std::size_t n = 1 + rng.uniform_index(8);
    for (std::size_t i = 0; i < n; ++i) {
      coll::Transfer t;
      t.src = 0;
      t.dst = 1;
      t.bytes = DataSize::kib(static_cast<double>(1 + rng.uniform_index(5000)));
      t.route = {topo::DirectedLink{0, 0, +1}};
      total += t.bytes;
      transfers.push_back(std::move(t));
    }
    const auto result = fsim.run_phase(transfers);
    EXPECT_NEAR(result.duration.to_seconds(), transfer_time(total, cap).to_seconds(),
                1e-9);
  }
}

// --- Analytic model vs flow sim across shapes (TEST_P sweep) ------------------

struct SweepCase {
  Shape shape;
  Coord offset;
  double mib;
};

class ModelVsSim : public ::testing::TestWithParam<SweepCase> {};

TEST_P(ModelVsSim, ElectricalScheduleMatchesAnalyticBeta) {
  const auto& c = GetParam();
  TpuCluster cluster;
  const Slice slice{0, 0, c.offset, c.shape};
  const coll::CostParams params;
  const DataSize n = DataSize::mib(c.mib);
  const auto plan = coll::build_plan(slice, cluster.config().rack_shape);
  if (plan.stages.empty()) GTEST_SKIP();
  const auto schedule = coll::build_reduce_scatter_schedule(
      cluster, slice, n, coll::Interconnect::kElectrical, params);
  const sim::FlowSimulator fsim{cluster.dim_bandwidth()};
  const auto run = fsim.run(schedule);
  const auto cost =
      coll::reduce_scatter_cost(plan, n, coll::Interconnect::kElectrical, params);
  EXPECT_NEAR(run.total.to_seconds(), cost.beta_time.to_seconds(),
              cost.beta_time.to_seconds() * 1e-6)
      << "shape " << c.shape[0] << "x" << c.shape[1] << "x" << c.shape[2];
  EXPECT_LE(run.peak_link_load, 1u) << "plan schedules must be congestion-free";
}

TEST_P(ModelVsSim, OpticalScheduleMatchesAnalyticTotal) {
  const auto& c = GetParam();
  TpuCluster cluster;
  const Slice slice{0, 0, c.offset, c.shape};
  const coll::CostParams params;
  const DataSize n = DataSize::mib(c.mib);
  const auto plan = coll::build_plan(slice, cluster.config().rack_shape);
  if (plan.stages.empty()) GTEST_SKIP();
  const auto schedule = coll::build_reduce_scatter_schedule(
      cluster, slice, n, coll::Interconnect::kOptical, params);
  const sim::FlowSimulator fsim{cluster.dim_bandwidth()};
  const auto run = fsim.run(schedule);
  const auto cost =
      coll::reduce_scatter_cost(plan, n, coll::Interconnect::kOptical, params);
  const double expected =
      cost.beta_time.to_seconds() + cost.reconfig_time(params).to_seconds();
  EXPECT_NEAR(run.total.to_seconds(), expected, expected * 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ModelVsSim,
    ::testing::Values(SweepCase{Shape{{4, 2, 1}}, Coord{{0, 0, 0}}, 16.0},
                      SweepCase{Shape{{4, 2, 1}}, Coord{{0, 2, 3}}, 128.0},
                      SweepCase{Shape{{4, 4, 1}}, Coord{{0, 0, 0}}, 64.0},
                      SweepCase{Shape{{4, 4, 2}}, Coord{{0, 0, 2}}, 64.0},
                      SweepCase{Shape{{2, 2, 1}}, Coord{{1, 1, 1}}, 8.0},
                      SweepCase{Shape{{2, 2, 2}}, Coord{{2, 2, 2}}, 32.0},
                      SweepCase{Shape{{4, 1, 1}}, Coord{{0, 3, 0}}, 4.0},
                      SweepCase{Shape{{4, 4, 4}}, Coord{{0, 0, 0}}, 256.0}));

// --- Planner fuzz: placement never corrupts the ledger ------------------------

TEST(PlannerFuzz, RepeatedPlacementCyclesAreClean) {
  Rng rng{0x91a};
  fabric::FabricConfig config;
  config.wafer.lanes_per_edge = 32;  // scarce: failures will happen
  Fabric fab{config};
  routing::CircuitPlanner planner{fab};
  for (int round = 0; round < 30; ++round) {
    std::vector<routing::Demand> demands;
    const std::size_t n = 1 + rng.uniform_index(40);
    for (std::size_t i = 0; i < n; ++i) {
      const auto src = static_cast<fabric::TileId>(rng.uniform_index(32));
      auto dst = static_cast<fabric::TileId>(rng.uniform_index(32));
      if (dst == src) dst = (dst + 1) % 32;
      demands.push_back(routing::Demand{
          GlobalTile{0, src}, GlobalTile{0, dst},
          1 + static_cast<std::uint32_t>(rng.uniform_index(8))});
    }
    const auto report = planner.place_all(demands);
    EXPECT_EQ(report.placed.size() + report.failed.size(), demands.size());
    planner.release_all(report);
    ASSERT_EQ(fab.wafer(0).total_lanes_used(), 0u) << "round " << round;
    ASSERT_EQ(fab.active_circuits(), 0u);
  }
}

}  // namespace
}  // namespace lp
