#include "core/host_stack.hpp"

#include <algorithm>
#include <cassert>

namespace lp::core {

using fabric::GlobalTile;

HostStack::HostStack(fabric::Fabric& fab, HostStackParams params)
    : fabric_{fab},
      params_{std::max(params.max_peers, 1u), params.wavelengths_per_circuit},
      tiles_per_wafer_{fab.wafer_count() > 0 ? fab.wafer(0).tile_count() : 0},
      rate_{fab.per_wavelength_rate() * static_cast<double>(params.wavelengths_per_circuit)},
      peers_(static_cast<std::size_t>(fab.wafer_count()) * tiles_per_wafer_ *
             params_.max_peers),
      live_(static_cast<std::size_t>(fab.wafer_count()) * tiles_per_wafer_, 0) {}

std::size_t HostStack::slot_of(GlobalTile src) const {
  if (src.wafer >= fabric_.wafer_count() || src.tile >= tiles_per_wafer_) return live_.size();
  return static_cast<std::size_t>(src.wafer) * tiles_per_wafer_ + src.tile;
}

bool HostStack::has_circuit(GlobalTile src, GlobalTile dst) const {
  const std::size_t slot = slot_of(src);
  if (slot == live_.size()) return false;
  const Peer* mru = peers_.data() + slot * params_.max_peers;
  return std::any_of(mru, mru + live_[slot], [&](const Peer& p) { return p.dst == dst; });
}

Result<Duration> HostStack::send(GlobalTile src, GlobalTile dst, DataSize bytes) {
  ++stats_.messages;
  const std::size_t slot = slot_of(src);
  if (slot == live_.size()) {
    ++stats_.misses;
    return Err("cannot establish circuit: source tile is off the fabric");
  }
  Peer* const mru = peers_.data() + slot * params_.max_peers;
  std::uint32_t& live = live_[slot];

  Duration latency = Duration::zero();
  Peer* const hit = std::find_if(mru, mru + live, [&](const Peer& p) { return p.dst == dst; });
  if (hit != mru + live) {
    ++stats_.hits;
    assert(fabric_.circuit(hit->id) != nullptr && "host circuit torn down outside the stack");
    std::rotate(mru, hit, hit + 1);
  } else {
    ++stats_.misses;
    const auto evict_lru = [&] {
      fabric_.disconnect(mru[--live].id);
      ++stats_.evictions;
    };
    // Evict until a port (and the Tx lambdas) are available.
    auto attempt = fabric_.connect(src, dst, params_.wavelengths_per_circuit);
    while (!attempt && live > 0) {
      evict_lru();
      attempt = fabric_.connect(src, dst, params_.wavelengths_per_circuit);
    }
    if (!attempt) return Err("cannot establish circuit: " + attempt.error().message);
    // Port-bound eviction even when resources would allow more peers.
    while (live >= params_.max_peers) evict_lru();
    std::move_backward(mru, mru + live, mru + live + 1);
    mru[0] = Peer{dst, attempt.value()};
    ++live;
    const fabric::Circuit* c = fabric_.circuit(attempt.value());
    const Duration setup =
        fabric_.reconfig().batch_latency(c != nullptr ? c->mzis_to_program() : 1);
    stats_.reconfig_time += setup;
    latency += setup;
  }

  const Duration transfer = transfer_time(bytes, rate_);
  stats_.transfer_time += transfer;
  latency += transfer;
  return latency;
}

void HostStack::flush() {
  for (std::size_t slot = 0; slot < live_.size(); ++slot) {
    const Peer* mru = peers_.data() + slot * params_.max_peers;
    for (std::uint32_t i = 0; i < live_[slot]; ++i) fabric_.disconnect(mru[i].id);
    live_[slot] = 0;
  }
}

}  // namespace lp::core
