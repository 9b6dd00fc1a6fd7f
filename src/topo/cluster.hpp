// TPUv4-style direct-connect cluster substrate.
//
// Models the deployment the paper analyzes in §4 (Figure 5a): up to 64
// racks, each rack a 4x4x4 3D torus of TPU chips.  Within a rack the links
// are electrical; every face of the rack cube attaches to optical circuit
// switches (OCSes) that realize the wraparound links and can join multiple
// racks into larger tori.  Each rack contains 16 multi-accelerator servers
// of 4 chips (2x2x1 groups).
//
// Bandwidth convention (matches the paper's cost math): `chip_bandwidth` B
// is the total egress a chip can drive concurrently across its D=3
// dimensions, so each dimension gets B/3 in a static electrical torus, and
// a direction-uniform ring in one dimension runs at B/3.  Every directed
// link (chip, dim, sign) has capacity B/3.
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "topo/torus.hpp"
#include "util/units.hpp"

namespace lp::topo {

/// Global chip id across the cluster.
using TpuId = std::int32_t;
/// Rack index.
using RackId = std::int32_t;

enum class ChipState : std::uint8_t { kFree = 0, kAllocated = 1, kFailed = 2 };

/// A directed electrical link: the egress of `chip` along dimension `dim`
/// in direction `sign` (+1 or -1), with torus wraparound.
struct DirectedLink {
  TpuId chip{0};
  std::uint8_t dim{0};
  std::int8_t sign{+1};
  friend constexpr auto operator<=>(const DirectedLink&, const DirectedLink&) = default;
};

/// Dense key for DirectedLink maps: chip * 6 + dim * 2 + (sign < 0).
[[nodiscard]] constexpr std::size_t link_key(const DirectedLink& l) {
  return static_cast<std::size_t>(l.chip) * 6 + static_cast<std::size_t>(l.dim) * 2 +
         (l.sign < 0 ? 1u : 0u);
}

/// Calls `fn(i)` for each set bit `i` of `words`, ascending, while `fn`
/// returns true; returns false if `fn` stopped the walk.
template <typename Fn>
bool for_each_bit(std::span<const std::uint64_t> words, Fn&& fn) {
  for (std::size_t w = 0; w < words.size(); ++w) {
    for (std::uint64_t b = words[w]; b != 0; b &= b - 1) {
      if (!fn(static_cast<std::int32_t>(w * 64) + std::countr_zero(b))) return false;
    }
  }
  return true;
}

struct ClusterConfig {
  std::int32_t racks{64};
  Shape rack_shape{{4, 4, 4}};
  /// Total egress bandwidth per chip (B in the paper's cost model).
  Bandwidth chip_bandwidth{Bandwidth::gBps(300.0)};
  /// Server grouping within the rack (2x2x1 trays of 4 chips).
  Shape server_group{{2, 2, 1}};
};

class TpuCluster {
 public:
  explicit TpuCluster(ClusterConfig config = {});

  [[nodiscard]] const ClusterConfig& config() const { return config_; }
  [[nodiscard]] std::int32_t rack_count() const { return config_.racks; }
  [[nodiscard]] std::int32_t chips_per_rack() const { return rack_torus_.size(); }
  [[nodiscard]] std::int32_t chip_count() const {
    return config_.racks * chips_per_rack();
  }
  [[nodiscard]] std::int32_t servers_per_rack() const;

  [[nodiscard]] const Torus& rack_torus() const { return rack_torus_; }

  /// Global chip id of (rack, coordinate-within-rack).
  [[nodiscard]] TpuId chip_at(RackId rack, Coord c) const;
  [[nodiscard]] RackId rack_of(TpuId chip) const;
  [[nodiscard]] Coord coord_of(TpuId chip) const;

  /// Server index within the rack of the given chip (0..15 by default).
  [[nodiscard]] std::int32_t server_of(TpuId chip) const;
  /// All chips on the same server as `chip` (including itself).
  [[nodiscard]] std::vector<TpuId> server_chips(TpuId chip) const;

  [[nodiscard]] ChipState state(TpuId chip) const { return states_[static_cast<std::size_t>(chip)]; }
  /// Sets a chip's state.  The only writer of chip state: a real change
  /// bumps its rack's version and the cluster's, and keeps the free-chip
  /// index below current.
  void set_state(TpuId chip, ChipState s) {
    ChipState& cur = states_[static_cast<std::size_t>(chip)];
    if (cur == s) return;
    const bool was_free = cur == ChipState::kFree;
    cur = s;
    const RackId rack = chip / chips_per_rack();
    ++rack_versions_[static_cast<std::size_t>(rack)];
    ++version_;
    if (was_free || s == ChipState::kFree) index_free(chip, rack, s == ChipState::kFree);
  }
  /// Changes whenever any chip of `rack` changes state: consumers that
  /// cache per-rack summaries (SliceAllocator) compare it to revalidate.
  [[nodiscard]] std::uint64_t rack_version(RackId rack) const {
    return rack_versions_[static_cast<std::size_t>(rack)];
  }
  /// Changes whenever any chip of the cluster changes state.
  [[nodiscard]] std::uint64_t version() const { return version_; }

  // --- free-chip index, kept current by set_state ---

  /// Number of kFree chips in `rack`, and in the whole cluster.
  [[nodiscard]] std::int32_t free_in_rack(RackId rack) const {
    return rack_free_[static_cast<std::size_t>(rack)];
  }
  [[nodiscard]] std::int32_t free_count() const { return free_total_; }
  /// The rack's kFree chips as a bitset: bit i is chip rack * chips_per_rack() + i.
  [[nodiscard]] std::span<const std::uint64_t> free_bits(RackId rack) const {
    return {free_bits_.data() + static_cast<std::size_t>(rack) * rack_words_, rack_words_};
  }
  /// Racks holding exactly `free` kFree chips (0..chips_per_rack()), as a
  /// bitset over rack ids.
  [[nodiscard]] std::span<const std::uint64_t> racks_with_free(std::int32_t free) const {
    const auto f = static_cast<std::size_t>(free);
    return {buckets_.data() + f * bucket_words_, bucket_words_};
  }
  /// The smallest free count >= `from` (the largest <= `from`) whose
  /// racks_with_free() bucket is non-empty, or -1 if there is none.
  [[nodiscard]] std::int32_t next_free_count(std::int32_t from) const;
  [[nodiscard]] std::int32_t prev_free_count(std::int32_t from) const;

  [[nodiscard]] std::vector<TpuId> chips_in_state(ChipState s) const;
  [[nodiscard]] std::vector<TpuId> free_chips_in_rack(RackId rack) const;

  /// Per-dimension bandwidth of the static electrical interconnect: B/3.
  [[nodiscard]] Bandwidth dim_bandwidth() const;

  /// Capacity of one directed link (equals dim_bandwidth()).
  [[nodiscard]] Bandwidth link_bandwidth() const { return dim_bandwidth(); }

  /// Whether the directed link's far end leaves the rack (i.e. it is a
  /// wraparound link realized through the face OCS).
  [[nodiscard]] bool is_wraparound(const DirectedLink& link) const;

  /// The chip at the far end of a directed link (within-rack torus
  /// semantics: wraparound stays in the same rack unless racks are joined).
  [[nodiscard]] TpuId link_target(const DirectedLink& link) const;

  /// Total number of directed links in the cluster.
  [[nodiscard]] std::size_t directed_link_count() const {
    return static_cast<std::size_t>(chip_count()) * 6;
  }

 private:
  /// Moves `chip` into (`now_free`) or out of the free index.
  void index_free(TpuId chip, RackId rack, bool now_free);
  /// Puts `rack` into (`in`) or takes it out of the bucket of `free`.
  void file_rack(std::size_t rack, std::int32_t free, bool in);

  ClusterConfig config_;
  Torus rack_torus_;
  std::vector<ChipState> states_;
  std::vector<std::uint64_t> rack_versions_;
  std::uint64_t version_{0};
  std::size_t rack_words_;    ///< 64-bit words per rack free bitset
  std::size_t bucket_words_;  ///< 64-bit words per rack-id bitset
  std::vector<std::uint64_t> free_bits_;  ///< rack_words_ per rack
  std::vector<std::int32_t> rack_free_;
  std::int32_t free_total_;
  std::vector<std::uint64_t> buckets_;  ///< bucket_words_ per free count
  std::vector<std::uint64_t> occupied_;  ///< bit f: bucket f is non-empty
};

}  // namespace lp::topo
