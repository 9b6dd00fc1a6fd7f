// SliceAllocator against a brute-force reference.
//
// The reference below is a scan-everything implementation of the same
// contract: largest_placeable() re-sorts every candidate shape and
// tests it cell by cell at every offset, and allocate() visits racks in
// (free ascending, id ascending) order and tries every row-major offset.
// The production allocator answers the same questions from the cluster's
// free-chip index (kept current by TpuCluster::set_state), cached largest
// shapes and precomputed chip masks; this property test holds it to the
// reference's answers on random free/allocated/failed clusters, for the
// TPUv4 4x4x4 rack and a 3x5x6 rack whose 90 chips span two mask words.
// After every step it also recounts the index itself from state(), on the
// cluster and on a copy of it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "topo/cluster.hpp"
#include "topo/slice.hpp"
#include "topo/torus.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace lp::topo {
namespace {

// --- reference ---------------------------------------------------------------

std::int32_t ref_free_in_rack(const TpuCluster& cluster, RackId rack) {
  std::int32_t count = 0;
  const std::int32_t per = cluster.chips_per_rack();
  for (std::int32_t i = 0; i < per; ++i) {
    if (cluster.state(rack * per + i) == ChipState::kFree) ++count;
  }
  return count;
}

bool ref_fits_at(const TpuCluster& cluster, RackId rack, Coord offset, Shape shape) {
  const Shape& rs = cluster.config().rack_shape;
  for (std::size_t d = 0; d < kDims; ++d) {
    if (offset[d] < 0 || offset[d] + shape[d] > rs[d]) return false;
  }
  for (std::int32_t dx = 0; dx < shape[0]; ++dx) {
    for (std::int32_t dy = 0; dy < shape[1]; ++dy) {
      for (std::int32_t dz = 0; dz < shape[2]; ++dz) {
        const Coord c{{offset[0] + dx, offset[1] + dy, offset[2] + dz}};
        if (cluster.state(cluster.chip_at(rack, c)) != ChipState::kFree) return false;
      }
    }
  }
  return true;
}

Shape ref_largest_placeable(const TpuCluster& cluster, RackId rack) {
  const Shape& rs = cluster.config().rack_shape;
  const std::int32_t free_total = ref_free_in_rack(cluster, rack);
  if (free_total == 0) return Shape{{0, 0, 0}};
  std::vector<Shape> candidates;
  for (std::int32_t sx = 1; sx <= rs[0]; ++sx) {
    for (std::int32_t sy = 1; sy <= rs[1]; ++sy) {
      for (std::int32_t sz = 1; sz <= rs[2]; ++sz) candidates.push_back(Shape{{sx, sy, sz}});
    }
  }
  std::sort(candidates.begin(), candidates.end(), [](const Shape& a, const Shape& b) {
    if (a.size() != b.size()) return a.size() > b.size();
    return a.extent < b.extent;
  });
  for (const Shape& s : candidates) {
    if (s.size() > free_total) continue;
    for (std::int32_t x = 0; x + s[0] <= rs[0]; ++x) {
      for (std::int32_t y = 0; y + s[1] <= rs[1]; ++y) {
        for (std::int32_t z = 0; z + s[2] <= rs[2]; ++z) {
          if (ref_fits_at(cluster, rack, Coord{{x, y, z}}, s)) return s;
        }
      }
    }
  }
  return Shape{{0, 0, 0}};
}

std::optional<Coord> ref_first_offset(const TpuCluster& cluster, RackId rack, Shape shape) {
  const Shape& rs = cluster.config().rack_shape;
  for (std::int32_t x = 0; x + shape[0] <= rs[0]; ++x) {
    for (std::int32_t y = 0; y + shape[1] <= rs[1]; ++y) {
      for (std::int32_t z = 0; z + shape[2] <= rs[2]; ++z) {
        if (ref_fits_at(cluster, rack, Coord{{x, y, z}}, shape)) return Coord{{x, y, z}};
      }
    }
  }
  return std::nullopt;
}

struct Choice {
  RackId rack{0};
  Coord offset{};
};

std::optional<Choice> ref_allocate_choice(const TpuCluster& cluster, Shape shape) {
  std::vector<std::pair<std::int32_t, RackId>> order;
  for (RackId rack = 0; rack < cluster.rack_count(); ++rack) {
    const std::int32_t free = ref_free_in_rack(cluster, rack);
    if (free >= shape.size()) order.emplace_back(free, rack);
  }
  std::sort(order.begin(), order.end());
  for (const auto& [free, rack] : order) {
    if (const auto at = ref_first_offset(cluster, rack, shape)) return Choice{rack, *at};
  }
  return std::nullopt;
}

// --- random worlds -------------------------------------------------------------

/// Each rack is all free, all allocated, all failed, or a random mix.
void populate(TpuCluster& cluster, Rng& rng) {
  const std::int32_t per = cluster.chips_per_rack();
  for (RackId rack = 0; rack < cluster.rack_count(); ++rack) {
    const std::uint64_t mode = rng.uniform_index(4);
    const double free_p = rng.uniform(0.3, 0.95);
    for (std::int32_t i = 0; i < per; ++i) {
      ChipState s = ChipState::kFree;
      if (mode == 1) s = ChipState::kAllocated;
      if (mode == 2) s = ChipState::kFailed;
      if (mode == 3 && !rng.bernoulli(free_p)) {
        s = rng.bernoulli(0.5) ? ChipState::kAllocated : ChipState::kFailed;
      }
      cluster.set_state(rack * per + i, s);
    }
  }
}

Shape random_shape(Rng& rng, const Shape& rack_shape) {
  // Extents up to one past the rack's, so some requests can never fit.
  Shape s;
  for (std::size_t d = 0; d < kDims; ++d) {
    s.extent[d] = 1 + static_cast<std::int32_t>(
                          rng.uniform_index(static_cast<std::uint64_t>(rack_shape[d]) + 1));
  }
  return s;
}

bool bit_set(std::span<const std::uint64_t> words, std::int32_t i) {
  const auto u = static_cast<std::size_t>(i);
  return u / 64 < words.size() && ((words[u / 64] >> (u % 64)) & 1u) != 0;
}

/// The cluster's free-chip index against a recount from state(): per-rack
/// and total free counts, each rack's free bitset (no stray bits past the
/// rack's chips), each rack in exactly the bucket of its free count, and
/// the non-empty bucket search in both directions.
void expect_index_matches(const TpuCluster& cluster, int step) {
  const std::int32_t per = cluster.chips_per_rack();
  std::int32_t total = 0;
  for (RackId rack = 0; rack < cluster.rack_count(); ++rack) {
    const std::int32_t free = ref_free_in_rack(cluster, rack);
    ASSERT_EQ(cluster.free_in_rack(rack), free) << "rack " << rack << " step " << step;
    total += free;
    const auto bits = cluster.free_bits(rack);
    ASSERT_EQ(bits.size(), (static_cast<std::size_t>(per) + 63) / 64);
    for (std::int32_t i = 0; i < static_cast<std::int32_t>(bits.size()) * 64; ++i) {
      const bool want = i < per && cluster.state(rack * per + i) == ChipState::kFree;
      ASSERT_EQ(bit_set(bits, i), want)
          << "rack " << rack << " bit " << i << " step " << step;
    }
    for (std::int32_t f = 0; f <= per; ++f) {
      ASSERT_EQ(bit_set(cluster.racks_with_free(f), rack), f == free)
          << "rack " << rack << " bucket " << f << " step " << step;
    }
  }
  ASSERT_EQ(cluster.free_count(), total) << "step " << step;
  std::vector<bool> occupied(static_cast<std::size_t>(per) + 1, false);
  for (RackId rack = 0; rack < cluster.rack_count(); ++rack) {
    occupied[static_cast<std::size_t>(ref_free_in_rack(cluster, rack))] = true;
  }
  for (std::int32_t from = -1; from <= per + 1; ++from) {
    std::int32_t next = -1;
    for (std::int32_t f = std::max(from, 0); f <= per && next < 0; ++f) {
      if (occupied[static_cast<std::size_t>(f)]) next = f;
    }
    std::int32_t prev = -1;
    for (std::int32_t f = std::min(from, per); f >= 0 && prev < 0; --f) {
      if (occupied[static_cast<std::size_t>(f)]) prev = f;
    }
    ASSERT_EQ(cluster.next_free_count(from), next) << "from " << from << " step " << step;
    ASSERT_EQ(cluster.prev_free_count(from), prev) << "from " << from << " step " << step;
  }
  for (std::int32_t f = 0; f <= per; ++f) {
    const auto bucket = cluster.racks_with_free(f);
    const auto width = static_cast<std::int32_t>(bucket.size()) * 64;
    for (std::int32_t r = cluster.rack_count(); r < width; ++r) {
      ASSERT_FALSE(bit_set(bucket, r)) << "bucket " << f << " names rack " << r;
    }
  }
}

/// The index on `cluster` and on a copy of it (a copy carries its own
/// index: perfbench replays allocations on one).
void expect_index_and_copy_match(const TpuCluster& cluster, int step) {
  ASSERT_NO_FATAL_FAILURE(expect_index_matches(cluster, step));
  const TpuCluster copy = cluster;
  ASSERT_NO_FATAL_FAILURE(expect_index_matches(copy, step));
}

void expect_summaries_match(const SliceAllocator& alloc, const TpuCluster& cluster,
                            int step) {
  std::int32_t total_free = 0;
  std::int32_t placeable = 0;
  for (RackId rack = 0; rack < cluster.rack_count(); ++rack) {
    const Shape largest = ref_largest_placeable(cluster, rack);
    ASSERT_EQ(alloc.largest_placeable(rack), largest) << "rack " << rack << " step " << step;
    total_free += ref_free_in_rack(cluster, rack);
    placeable += largest.size();
  }
  ASSERT_EQ(alloc.placeable_sum(), placeable) << "step " << step;
  const FragmentationReport frag = alloc.fragmentation();
  ASSERT_EQ(frag.total_free, total_free) << "step " << step;
  ASSERT_EQ(frag.placeable_sum, placeable) << "step " << step;
}

void run_case(std::uint64_t index) {
  Rng rng{util::task_seed(0x51ce, index)};
  ClusterConfig config;
  config.racks = 1 + static_cast<std::int32_t>(rng.uniform_index(4));
  config.rack_shape = index % 2 == 0 ? Shape{{4, 4, 4}} : Shape{{3, 5, 6}};

  // Half the cases bind the allocator to a copy of an already-populated
  // cluster (its racks carry nonzero versions from the start); the other
  // half populate after the allocator exists, behind its back.
  TpuCluster source{config};
  ASSERT_NO_FATAL_FAILURE(expect_index_matches(source, -2));
  const bool prepopulated = index % 4 < 2;
  if (prepopulated) populate(source, rng);
  TpuCluster cluster = source;
  SliceAllocator alloc{cluster};
  ASSERT_NO_FATAL_FAILURE(expect_index_and_copy_match(cluster, -1));
  if (!prepopulated) {
    expect_summaries_match(alloc, cluster, -1);  // warm the caches first
    populate(cluster, rng);
  }

  std::vector<SliceId> live;
  for (int step = 0; step < 24; ++step) {
    // Checking refreshes every cache, so skip it now and then: the next op
    // then meets summaries made stale by the previous one.
    if (rng.bernoulli(0.5)) {
      ASSERT_NO_FATAL_FAILURE(expect_summaries_match(alloc, cluster, step));
    }
    const std::uint64_t op = rng.uniform_index(10);
    if (op < 5) {
      const Shape shape = random_shape(rng, config.rack_shape);
      const auto want = ref_allocate_choice(cluster, shape);
      const auto got = alloc.allocate(shape);
      ASSERT_EQ(got.ok(), want.has_value()) << "step " << step;
      if (got) {
        const Slice* s = alloc.slice(got.value());
        EXPECT_EQ(s->rack, want->rack) << "step " << step;
        EXPECT_EQ(s->offset, want->offset) << "step " << step;
        EXPECT_EQ(s->shape, shape);
        live.push_back(got.value());
      }
    } else if (op < 6) {
      const auto rack = static_cast<RackId>(
          rng.uniform_index(static_cast<std::uint64_t>(config.racks)));
      const Shape shape = random_shape(rng, config.rack_shape);
      const auto want = ref_first_offset(cluster, rack, shape);
      const auto got = alloc.allocate_in_rack(rack, shape);
      ASSERT_EQ(got.ok(), want.has_value()) << "step " << step;
      if (got) {
        EXPECT_EQ(alloc.slice(got.value())->offset, *want) << "step " << step;
        live.push_back(got.value());
      }
    } else if (op < 8 && !live.empty()) {
      const std::size_t pick = rng.uniform_index(live.size());
      alloc.release(live[pick]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      // A fault or a repair straight on the cluster, bypassing the
      // allocator: a free or allocated chip fails, or a failed chip comes
      // back.
      const auto chip = static_cast<TpuId>(
          rng.uniform_index(static_cast<std::uint64_t>(cluster.chip_count())));
      if (cluster.state(chip) != ChipState::kFailed) {
        cluster.set_state(chip, ChipState::kFailed);
      } else if (cluster.state(chip) == ChipState::kFailed && !alloc.owner(chip)) {
        cluster.set_state(chip, ChipState::kFree);
      }
    }
    ASSERT_NO_FATAL_FAILURE(expect_index_and_copy_match(cluster, step));
  }
  expect_summaries_match(alloc, cluster, 24);
}

TEST(SliceAllocatorOracle, MatchesScanEverythingReferenceOnRandomClusters) {
  for (std::uint64_t index = 0; index < 240; ++index) {
    SCOPED_TRACE(index);
    ASSERT_NO_FATAL_FAILURE(run_case(index));
  }
}

}  // namespace
}  // namespace lp::topo
