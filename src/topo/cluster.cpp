#include "topo/cluster.hpp"

#include <algorithm>
#include <cassert>

namespace lp::topo {

TpuCluster::TpuCluster(ClusterConfig config)
    : config_{config},
      rack_torus_{config.rack_shape},
      states_(static_cast<std::size_t>(config.racks) *
                  static_cast<std::size_t>(config.rack_shape.size()),
              ChipState::kFree),
      rack_versions_(static_cast<std::size_t>(config.racks), 0),
      rack_words_{(static_cast<std::size_t>(config.rack_shape.size()) + 63) / 64},
      bucket_words_{(static_cast<std::size_t>(config.racks) + 63) / 64},
      free_bits_(static_cast<std::size_t>(config.racks) * rack_words_, 0),
      rack_free_(static_cast<std::size_t>(config.racks), config.rack_shape.size()),
      free_total_{config.racks * config.rack_shape.size()},
      buckets_((static_cast<std::size_t>(config.rack_shape.size()) + 1) * bucket_words_, 0),
      occupied_((static_cast<std::size_t>(config.rack_shape.size()) + 64) / 64, 0) {
  assert(config.racks > 0);
  // Every chip starts free: every rack sits in the chips_per_rack() bucket.
  const auto per = static_cast<std::size_t>(chips_per_rack());
  for (std::size_t rack = 0; rack < rack_free_.size(); ++rack) {
    for (std::size_t i = 0; i < per; ++i) {
      free_bits_[rack * rack_words_ + i / 64] |= std::uint64_t{1} << (i % 64);
    }
    file_rack(rack, chips_per_rack(), true);
  }
}

void TpuCluster::index_free(TpuId chip, RackId rack, bool now_free) {
  const auto r = static_cast<std::size_t>(rack);
  const auto i = static_cast<std::size_t>(chip - rack * chips_per_rack());
  std::int32_t& free = rack_free_[r];
  file_rack(r, free, false);
  std::uint64_t& word = free_bits_[r * rack_words_ + i / 64];
  const std::uint64_t bit = std::uint64_t{1} << (i % 64);
  if (now_free) {
    word |= bit;
    ++free;
    ++free_total_;
  } else {
    word &= ~bit;
    --free;
    --free_total_;
  }
  file_rack(r, free, true);
}

void TpuCluster::file_rack(std::size_t rack, std::int32_t free, bool in) {
  const auto f = static_cast<std::size_t>(free);
  std::uint64_t* bucket = &buckets_[f * bucket_words_];
  const std::uint64_t rack_bit = std::uint64_t{1} << (rack % 64);
  const std::uint64_t count_bit = std::uint64_t{1} << (f % 64);
  if (in) {
    bucket[rack / 64] |= rack_bit;
    occupied_[f / 64] |= count_bit;
  } else {
    bucket[rack / 64] &= ~rack_bit;
    const auto empty = [](std::uint64_t w) { return w == 0; };
    if (std::all_of(bucket, bucket + bucket_words_, empty)) {
      occupied_[f / 64] &= ~count_bit;
    }
  }
}

std::int32_t TpuCluster::next_free_count(std::int32_t from) const {
  if (from > chips_per_rack()) return -1;
  const auto f = static_cast<std::size_t>(std::max(from, 0));
  auto w = f / 64;
  std::uint64_t bits = occupied_[w] & (~std::uint64_t{0} << (f % 64));
  while (bits == 0) {
    if (++w == occupied_.size()) return -1;
    bits = occupied_[w];
  }
  return static_cast<std::int32_t>(w * 64) + std::countr_zero(bits);
}

std::int32_t TpuCluster::prev_free_count(std::int32_t from) const {
  if (from < 0) return -1;
  const auto f = static_cast<std::size_t>(std::min(from, chips_per_rack()));
  auto w = f / 64;
  std::uint64_t bits = occupied_[w] & (~std::uint64_t{0} >> (63 - f % 64));
  while (bits == 0) {
    if (w == 0) return -1;
    bits = occupied_[--w];
  }
  return static_cast<std::int32_t>(w * 64 + 63) - std::countl_zero(bits);
}

std::int32_t TpuCluster::servers_per_rack() const {
  return chips_per_rack() / config_.server_group.size();
}

TpuId TpuCluster::chip_at(RackId rack, Coord c) const {
  return rack * chips_per_rack() + rack_torus_.index(c);
}

RackId TpuCluster::rack_of(TpuId chip) const { return chip / chips_per_rack(); }

Coord TpuCluster::coord_of(TpuId chip) const {
  return rack_torus_.coord(chip % chips_per_rack());
}

std::int32_t TpuCluster::server_of(TpuId chip) const {
  const Coord c = coord_of(chip);
  const Shape& g = config_.server_group;
  const Shape& r = config_.rack_shape;
  const std::int32_t gx = c[0] / g[0];
  const std::int32_t gy = c[1] / g[1];
  const std::int32_t gz = c[2] / g[2];
  const std::int32_t groups_y = r[1] / g[1];
  const std::int32_t groups_z = r[2] / g[2];
  return (gx * groups_y + gy) * groups_z + gz;
}

std::vector<TpuId> TpuCluster::server_chips(TpuId chip) const {
  const std::int32_t server = server_of(chip);
  const RackId rack = rack_of(chip);
  std::vector<TpuId> chips;
  for (std::int32_t i = 0; i < chips_per_rack(); ++i) {
    const TpuId candidate = rack * chips_per_rack() + i;
    if (server_of(candidate) == server) chips.push_back(candidate);
  }
  return chips;
}

std::vector<TpuId> TpuCluster::chips_in_state(ChipState s) const {
  std::vector<TpuId> out;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    if (states_[i] == s) out.push_back(static_cast<TpuId>(i));
  }
  return out;
}

std::vector<TpuId> TpuCluster::free_chips_in_rack(RackId rack) const {
  std::vector<TpuId> out;
  for_each_bit(free_bits(rack), [&](std::int32_t i) {
    out.push_back(rack * chips_per_rack() + i);
    return true;
  });
  return out;
}

Bandwidth TpuCluster::dim_bandwidth() const {
  return config_.chip_bandwidth / static_cast<double>(kDims);
}

bool TpuCluster::is_wraparound(const DirectedLink& link) const {
  const Coord c = coord_of(link.chip);
  const std::int32_t e = config_.rack_shape[link.dim];
  return (link.sign > 0 && c[link.dim] == e - 1) || (link.sign < 0 && c[link.dim] == 0);
}

TpuId TpuCluster::link_target(const DirectedLink& link) const {
  const RackId rack = rack_of(link.chip);
  const Coord next = rack_torus_.neighbor(coord_of(link.chip), link.dim, link.sign);
  return chip_at(rack, next);
}

}  // namespace lp::topo
