// Slices: sub-tori of a rack allocated to one tenant.
//
// "A slice consists of a subset of TPU chips allocated to a single cloud
// tenant.  Typically, slices can only be allocated in regular shapes,
// forming tori of specific dimensions" (§4.1).  The Figure 5b/5c scenario
// packs one rack with Slice-1 (4x2x1), Slice-2 (4x2x1), Slice-3 (4x4x1) and
// Slice-4 (4x4x2); helpers below construct exactly that packing.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "topo/cluster.hpp"
#include "topo/torus.hpp"
#include "util/result.hpp"

namespace lp::topo {

using SliceId = std::int32_t;

struct Slice {
  SliceId id{-1};
  RackId rack{0};
  Coord offset{};  ///< lowest-corner coordinate within the rack
  Shape shape{};

  [[nodiscard]] std::int32_t chip_count() const { return shape.size(); }

  /// True if the rack-space coordinate lies inside this slice.
  [[nodiscard]] bool contains(Coord rack_coord) const;

  /// Calls `f(Coord)` on each rack-space coordinate of the slice,
  /// row-major over its shape.
  template <typename F>
  void for_each_coord(F&& f) const {
    Coord c;
    for (c[0] = offset[0]; c[0] < offset[0] + shape[0]; ++c[0]) {
      for (c[1] = offset[1]; c[1] < offset[1] + shape[1]; ++c[1]) {
        for (c[2] = offset[2]; c[2] < offset[2] + shape[2]; ++c[2]) f(c);
      }
    }
  }

  /// Whether the slice spans the full rack extent in dimension `d` — the
  /// precondition for running a congestion-free direction-uniform ring in
  /// that dimension on the electrical torus.
  [[nodiscard]] bool spans_dimension(std::size_t d, const Shape& rack_shape) const;
};

/// Free-space accounting for one rack: how many chips are free and the
/// largest slice shape still placeable there.  The gap between the two is
/// fragmentation — free chips stranded in holes no regular slice can use.
struct RackFragmentation {
  RackId rack{0};
  std::int32_t free_chips{0};
  /// Largest-volume free sub-cuboid (ties broken by lexicographically
  /// smallest shape); {0,0,0} when nothing is placeable.
  Shape largest_shape{{0, 0, 0}};
  std::int32_t largest_volume{0};
};

/// Fraction of `total_free` chips stranded outside each rack's largest
/// placeable cuboid, whose volumes sum to `placeable_sum`: 0 = perfectly
/// compact, -> 1 = free capacity exists but no regular slice can use most
/// of it.
[[nodiscard]] constexpr double stranding(std::int32_t placeable_sum,
                                        std::int32_t total_free) {
  return total_free == 0
             ? 0.0
             : 1.0 - static_cast<double>(placeable_sum) / static_cast<double>(total_free);
}

struct FragmentationReport {
  std::vector<RackFragmentation> racks;
  std::int32_t total_free{0};
  /// Largest placeable volume anywhere (max over racks).
  std::int32_t largest_volume{0};
  /// Sum of per-rack largest placeable volumes.
  std::int32_t placeable_sum{0};

  /// topo::stranding() of this report's totals.
  [[nodiscard]] double stranding() const {
    return topo::stranding(placeable_sum, total_free);
  }
};

/// Tracks slice placement within a cluster and answers "who owns chip X".
///
/// Fit tests are word-wise ANDs: construction enumerates every candidate
/// shape of the rack in (volume descending, shape ascending) order together
/// with one chip mask per row-major offset, in the layout of
/// TpuCluster::free_bits().  The cluster owns the free-chip index (per-rack
/// free bitsets and counts, racks bucketed by free count), which
/// TpuCluster::set_state keeps current; the allocator caches only each
/// rack's largest placeable shape and revalidates it lazily against
/// TpuCluster::rack_version(), so any state change — through this allocator
/// or straight on the cluster — is seen on the next query.  The cluster
/// must outlive the allocator and must not be replaced wholesale (assigned
/// over) while the allocator is bound to it.  The shape cache sits behind
/// const queries: an allocator is not safe to query from several threads
/// at once.
class SliceAllocator {
 public:
  explicit SliceAllocator(TpuCluster& cluster);

  /// Place a slice at an explicit offset (used to reconstruct the paper's
  /// figures).  Fails if any covered chip is not free.
  Result<SliceId> allocate_at(RackId rack, Coord offset, Shape shape);

  /// Best-fit scan with a documented deterministic total order:
  ///
  ///   1. candidate racks are visited in (free-chip count ascending,
  ///      rack id ascending) order — the tightest rack that still fits
  ///      wins, which packs the cluster and preserves large holes;
  ///   2. within a rack, offsets are scanned row-major ascending
  ///      (x outermost, then y, then z);
  ///   3. the first feasible (rack, offset) under that order is taken.
  ///
  /// The choice is a pure function of the current chip-state multiset: two
  /// allocators whose racks hold identical free/allocated/failed sets place
  /// the next slice identically, no matter what alloc/release history
  /// produced those sets (permutation-invariance regression in topo_test).
  /// The walk reads the cluster's free-count buckets from the shape's
  /// volume upward, racks ascending within each; a rack whose up-to-date
  /// largest placeable volume is below the shape's volume is skipped
  /// without probing.
  Result<SliceId> allocate(Shape shape);

  /// The within-rack leg of allocate()'s order: first row-major offset at
  /// which `shape` fits entirely on free chips of `rack`.
  Result<SliceId> allocate_in_rack(RackId rack, Shape shape);

  /// Release a slice, freeing its chips.  Idempotent.
  void release(SliceId id);

  [[nodiscard]] const Slice* slice(SliceId id) const;
  [[nodiscard]] std::vector<SliceId> active_slices() const;

  /// Owning slice of a chip, or nullopt if free/failed/unowned.
  [[nodiscard]] std::optional<SliceId> owner(TpuId chip) const;

  /// Largest-volume shape placeable entirely on free chips of `rack`
  /// (ties broken by lexicographically smallest shape); {0,0,0} if none.
  /// Cached per rack until the rack's chips change state.
  [[nodiscard]] Shape largest_placeable(RackId rack) const;

  /// Sum over racks of the largest placeable volume: the numerator of
  /// FragmentationReport::stranding() without building the report.
  /// Cached until any chip of the cluster changes state.
  [[nodiscard]] std::int32_t placeable_sum() const;

  /// Full free/fragmentation accounting, one entry per rack: only racks
  /// whose chips changed state since the last query recompute their
  /// largest shape.
  [[nodiscard]] FragmentationReport fragmentation() const;

  [[nodiscard]] TpuCluster& cluster() { return cluster_; }
  [[nodiscard]] const TpuCluster& cluster() const { return cluster_; }

 private:
  /// A candidate shape and its offsets: masks_/offsets_ entries
  /// [first, first + count), row-major.
  struct Candidate {
    Shape shape{};
    std::uint32_t first{0};
    std::uint32_t count{0};
  };

  /// A rack's largest placeable shape, valid while `version` equals the
  /// cluster's rack_version().
  struct LargestCache {
    std::uint64_t version{~std::uint64_t{0}};
    Shape shape{{0, 0, 0}};
  };

  /// Candidate entry for `shape`, or nullptr when it has a non-positive
  /// extent or exceeds the rack in some dimension.
  [[nodiscard]] const Candidate* candidate(Shape shape) const;
  /// Index (into offsets_) of the first row-major offset at which `c`
  /// fits on free chips of `rack`, or -1.
  [[nodiscard]] std::int64_t first_fit(RackId rack, const Candidate& c) const;
  /// Commits a slice without checking that its chips are free.
  SliceId place(RackId rack, Coord offset, Shape shape);

  TpuCluster& cluster_;
  std::size_t words_;                   ///< 64-bit words per rack bitset
  std::vector<Candidate> candidates_;   ///< (volume desc, shape asc)
  std::vector<std::int32_t> candidate_index_;  ///< by extents - 1, row-major
  std::vector<Coord> offsets_;
  std::vector<std::uint64_t> masks_;    ///< words_ per offset
  mutable std::vector<LargestCache> largest_;  ///< per rack
  /// placeable_sum(), valid while `placeable_version_` equals the
  /// cluster's version().
  mutable std::uint64_t placeable_version_{~std::uint64_t{0}};
  mutable std::int32_t placeable_sum_{0};
  std::vector<Slice> slices_;
  std::vector<bool> live_;
  std::vector<std::int32_t> owner_;  ///< per chip, -1 = none
};

/// Builds the exact rack packing of Figure 5b/5c on rack 0 of `alloc`:
/// Slice-4 (4x4x2) at z in {0,1}, Slice-3 (4x4x1) at z=2, Slice-1 (4x2x1)
/// at y in {0,1}, z=3 and Slice-2 (4x2x1) at y in {2,3}, z=3.
/// Returns ids in paper order: {slice1, slice2, slice3, slice4}.
struct Figure5Packing {
  SliceId slice1, slice2, slice3, slice4;
};
[[nodiscard]] Result<Figure5Packing> pack_figure5(SliceAllocator& alloc, RackId rack = 0);

}  // namespace lp::topo
