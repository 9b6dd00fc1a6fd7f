#include "topo/slice.hpp"

#include <algorithm>
#include <cstdint>
#include <string>

namespace lp::topo {

bool Slice::contains(Coord rack_coord) const {
  for (std::size_t d = 0; d < kDims; ++d) {
    const std::int32_t rel = rack_coord[d] - offset[d];
    if (rel < 0 || rel >= shape[d]) return false;
  }
  return true;
}

bool Slice::spans_dimension(std::size_t d, const Shape& rack_shape) const {
  return shape[d] == rack_shape[d];
}

SliceAllocator::SliceAllocator(TpuCluster& cluster)
    : cluster_{cluster},
      words_{(static_cast<std::size_t>(cluster.chips_per_rack()) + 63) / 64},
      candidate_index_(static_cast<std::size_t>(cluster.chips_per_rack()), -1),
      largest_(static_cast<std::size_t>(cluster.rack_count())),
      owner_(static_cast<std::size_t>(cluster.chip_count()), -1) {
  // Candidate shapes in (volume descending, shape lexicographic ascending)
  // order: largest_placeable() answers with the first one that fits.
  const Shape& rs = cluster_.config().rack_shape;
  std::vector<Shape> shapes;
  for (std::int32_t sx = 1; sx <= rs[0]; ++sx) {
    for (std::int32_t sy = 1; sy <= rs[1]; ++sy) {
      for (std::int32_t sz = 1; sz <= rs[2]; ++sz) shapes.push_back(Shape{{sx, sy, sz}});
    }
  }
  std::sort(shapes.begin(), shapes.end(), [](const Shape& a, const Shape& b) {
    if (a.size() != b.size()) return a.size() > b.size();
    return a.extent < b.extent;
  });

  // One chip mask per (shape, row-major offset), in rack-torus bit order.
  // The torus index is linear in the coordinates, so a shape's mask at an
  // in-bounds offset is its mask at the origin shifted left by the
  // offset's index.
  const Torus& torus = cluster_.rack_torus();
  std::size_t offset_count = 1;
  for (std::size_t d = 0; d < kDims; ++d) {
    offset_count *= static_cast<std::size_t>(rs[d] * (rs[d] + 1) / 2);
  }
  offsets_.reserve(offset_count);
  masks_.assign(offset_count * words_, 0);
  std::vector<std::uint64_t> origin(words_);
  for (const Shape& shape : shapes) {
    std::fill(origin.begin(), origin.end(), std::uint64_t{0});
    for (std::int32_t dx = 0; dx < shape[0]; ++dx) {
      for (std::int32_t dy = 0; dy < shape[1]; ++dy) {
        for (std::int32_t dz = 0; dz < shape[2]; ++dz) {
          const auto bit = static_cast<std::size_t>(torus.index(Coord{{dx, dy, dz}}));
          origin[bit / 64] |= std::uint64_t{1} << (bit % 64);
        }
      }
    }
    Candidate c{shape, static_cast<std::uint32_t>(offsets_.size()), 0};
    for (std::int32_t x = 0; x + shape[0] <= rs[0]; ++x) {
      for (std::int32_t y = 0; y + shape[1] <= rs[1]; ++y) {
        for (std::int32_t z = 0; z + shape[2] <= rs[2]; ++z) {
          const Coord offset{{x, y, z}};
          const auto shift = static_cast<std::size_t>(torus.index(offset));
          const std::size_t word_shift = shift / 64;
          const std::size_t bit_shift = shift % 64;
          std::uint64_t* mask = &masks_[offsets_.size() * words_];
          for (std::size_t w = word_shift; w < words_; ++w) {
            mask[w] = origin[w - word_shift] << bit_shift;
            if (bit_shift != 0 && w > word_shift) {
              mask[w] |= origin[w - word_shift - 1] >> (64 - bit_shift);
            }
          }
          offsets_.push_back(offset);
          ++c.count;
        }
      }
    }
    candidate_index_[static_cast<std::size_t>(
        torus.index(Coord{{shape[0] - 1, shape[1] - 1, shape[2] - 1}}))] =
        static_cast<std::int32_t>(candidates_.size());
    candidates_.push_back(c);
  }
}

const SliceAllocator::Candidate* SliceAllocator::candidate(Shape shape) const {
  const Shape& rs = cluster_.config().rack_shape;
  for (std::size_t d = 0; d < kDims; ++d) {
    if (shape[d] < 1 || shape[d] > rs[d]) return nullptr;
  }
  const std::int32_t i = candidate_index_[static_cast<std::size_t>(
      cluster_.rack_torus().index(Coord{{shape[0] - 1, shape[1] - 1, shape[2] - 1}}))];
  return &candidates_[static_cast<std::size_t>(i)];
}

std::int64_t SliceAllocator::first_fit(RackId rack, const Candidate& c) const {
  if (cluster_.free_in_rack(rack) < c.shape.size()) return -1;
  const std::uint64_t* bits = cluster_.free_bits(rack).data();
  for (std::uint32_t i = c.first; i < c.first + c.count; ++i) {
    const std::uint64_t* mask = &masks_[static_cast<std::size_t>(i) * words_];
    bool fits = true;
    for (std::size_t w = 0; fits && w < words_; ++w) fits = (mask[w] & ~bits[w]) == 0;
    if (fits) return i;
  }
  return -1;
}

SliceId SliceAllocator::place(RackId rack, Coord offset, Shape shape) {
  Slice s;
  s.id = static_cast<SliceId>(slices_.size());
  s.rack = rack;
  s.offset = offset;
  s.shape = shape;
  s.for_each_coord([&](Coord c) {
    const TpuId chip = cluster_.chip_at(rack, c);
    cluster_.set_state(chip, ChipState::kAllocated);
    owner_[static_cast<std::size_t>(chip)] = s.id;
  });
  slices_.push_back(s);
  live_.push_back(true);
  return s.id;
}

Result<SliceId> SliceAllocator::allocate_at(RackId rack, Coord offset, Shape shape) {
  const Shape& rs = cluster_.config().rack_shape;
  for (std::size_t d = 0; d < kDims; ++d) {
    if (offset[d] < 0 || offset[d] + shape[d] > rs[d])
      return Err("slice does not fit in rack along dim " + std::to_string(d));
  }
  const Slice probe{-1, rack, offset, shape};
  TpuId taken = -1;
  probe.for_each_coord([&](Coord c) {
    const TpuId chip = cluster_.chip_at(rack, c);
    if (taken < 0 && cluster_.state(chip) != ChipState::kFree) taken = chip;
  });
  if (taken >= 0) return Err("chip " + std::to_string(taken) + " is not free");
  return place(rack, offset, shape);
}

Result<SliceId> SliceAllocator::allocate_in_rack(RackId rack, Shape shape) {
  if (const Candidate* c = candidate(shape)) {
    const std::int64_t at = first_fit(rack, *c);
    if (at >= 0) return place(rack, offsets_[static_cast<std::size_t>(at)], shape);
  }
  return Err("no free region of the requested shape in rack " + std::to_string(rack));
}

Result<SliceId> SliceAllocator::allocate(Shape shape) {
  // Best-fit total order: racks by (free chips ascending, rack id
  // ascending), read straight off the cluster's free-count buckets; a rack
  // whose up-to-date largest placeable volume cannot cover the shape is
  // skipped.  See the header for the full contract.
  if (const Candidate* c = candidate(shape)) {
    const std::int32_t volume = shape.size();
    for (std::int32_t free = cluster_.next_free_count(volume); free >= 0;
         free = cluster_.next_free_count(free + 1)) {
      RackId rack = -1;
      std::int64_t at = -1;
      for_each_bit(cluster_.racks_with_free(free), [&](RackId r) {
        const LargestCache& l = largest_[static_cast<std::size_t>(r)];
        if (l.version == cluster_.rack_version(r) && l.shape.size() < volume) return true;
        rack = r;
        at = first_fit(r, *c);
        return at < 0;
      });
      if (at >= 0) return place(rack, offsets_[static_cast<std::size_t>(at)], shape);
    }
  }
  return Err("no free region of the requested shape in any rack");
}

void SliceAllocator::release(SliceId id) {
  if (id < 0 || static_cast<std::size_t>(id) >= slices_.size() ||
      !live_[static_cast<std::size_t>(id)])
    return;
  const Slice& s = slices_[static_cast<std::size_t>(id)];
  s.for_each_coord([&](Coord c) {
    const TpuId chip = cluster_.chip_at(s.rack, c);
    // A failed chip stays failed when its slice goes away.
    if (cluster_.state(chip) == ChipState::kAllocated)
      cluster_.set_state(chip, ChipState::kFree);
    owner_[static_cast<std::size_t>(chip)] = -1;
  });
  live_[static_cast<std::size_t>(id)] = false;
}

const Slice* SliceAllocator::slice(SliceId id) const {
  if (id < 0 || static_cast<std::size_t>(id) >= slices_.size() ||
      !live_[static_cast<std::size_t>(id)])
    return nullptr;
  return &slices_[static_cast<std::size_t>(id)];
}

std::vector<SliceId> SliceAllocator::active_slices() const {
  std::vector<SliceId> out;
  for (std::size_t i = 0; i < slices_.size(); ++i) {
    if (live_[i]) out.push_back(static_cast<SliceId>(i));
  }
  return out;
}

Shape SliceAllocator::largest_placeable(RackId rack) const {
  LargestCache& l = largest_[static_cast<std::size_t>(rack)];
  const std::uint64_t version = cluster_.rack_version(rack);
  if (l.version != version) {
    l.shape = Shape{{0, 0, 0}};
    for (const Candidate& c : candidates_) {
      if (first_fit(rack, c) >= 0) {
        l.shape = c.shape;
        break;
      }
    }
    l.version = version;
  }
  return l.shape;
}

std::int32_t SliceAllocator::placeable_sum() const {
  if (placeable_version_ != cluster_.version()) {
    placeable_sum_ = 0;
    for (RackId rack = 0; rack < cluster_.rack_count(); ++rack) {
      placeable_sum_ += largest_placeable(rack).size();
    }
    placeable_version_ = cluster_.version();
  }
  return placeable_sum_;
}

FragmentationReport SliceAllocator::fragmentation() const {
  FragmentationReport report;
  report.racks.reserve(static_cast<std::size_t>(cluster_.rack_count()));
  for (RackId rack = 0; rack < cluster_.rack_count(); ++rack) {
    RackFragmentation rf;
    rf.rack = rack;
    rf.free_chips = cluster_.free_in_rack(rack);
    rf.largest_shape = largest_placeable(rack);
    rf.largest_volume = rf.largest_shape.size();
    report.total_free += rf.free_chips;
    report.placeable_sum += rf.largest_volume;
    report.largest_volume = std::max(report.largest_volume, rf.largest_volume);
    report.racks.push_back(rf);
  }
  return report;
}

std::optional<SliceId> SliceAllocator::owner(TpuId chip) const {
  const std::int32_t o = owner_[static_cast<std::size_t>(chip)];
  if (o < 0) return std::nullopt;
  return o;
}

Result<Figure5Packing> pack_figure5(SliceAllocator& alloc, RackId rack) {
  auto s4 = alloc.allocate_at(rack, Coord{{0, 0, 0}}, Shape{{4, 4, 2}});
  if (!s4) return Err("slice4: " + s4.error().message);
  auto s3 = alloc.allocate_at(rack, Coord{{0, 0, 2}}, Shape{{4, 4, 1}});
  if (!s3) return Err("slice3: " + s3.error().message);
  auto s1 = alloc.allocate_at(rack, Coord{{0, 0, 3}}, Shape{{4, 2, 1}});
  if (!s1) return Err("slice1: " + s1.error().message);
  auto s2 = alloc.allocate_at(rack, Coord{{0, 2, 3}}, Shape{{4, 2, 1}});
  if (!s2) return Err("slice2: " + s2.error().message);
  return Figure5Packing{s1.value(), s2.value(), s3.value(), s4.value()};
}

}  // namespace lp::topo
