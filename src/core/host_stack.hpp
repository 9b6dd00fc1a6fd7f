// Circuit-switched host networking stack.
//
// "Server-scale optics will necessitate the development of new host
// networking software stacks optimized for circuit-switching as opposed to
// today's packetized data transmission" (§1).  This module is that stack's
// core decision: when a message needs a circuit that is not up, pay the
// reconfiguration r; when SerDes ports are exhausted, evict someone.
//
// HostStack keeps an LRU cache of live circuits per source chip, bounded by
// the tile's SerDes port count (the paper: "the number of connections that
// can be made by one LIGHTPATH tile is limited by the number of SerDes
// ports").  send() returns the message's latency:
//
//   hit:   transfer at the circuit's rate
//   miss:  r (+ eviction teardown) + transfer
//
// Layout: one flat array of max_peers slots per chip (chip index wafer x
// tiles_per_wafer + tile), most recently used first.  A hit scans at most
// max_peers slots and rotates the match to the front: no hashing, no
// allocation.
//
// Ownership: the stack owns the circuits it opens.  They are torn down only
// through it (eviction, flush); tearing one down behind its back leaves a
// dangling slot, which debug builds assert on at the next hit.
//
// The ablation bench compares this against per-message reconfiguration and
// against a static ring (direct-connect emulation with multi-hop
// forwarding), across working-set sizes and message sizes.
#pragma once

#include <cstdint>
#include <vector>

#include "lightpath/fabric.hpp"
#include "util/result.hpp"
#include "util/units.hpp"

namespace lp::core {

struct HostStackParams {
  /// Max concurrent circuits per source chip (SerDes port bound, >= 1).
  std::uint32_t max_peers{8};
  /// Wavelengths per cached circuit: max_peers x this must fit the tile's
  /// 16 Tx lambdas.
  std::uint32_t wavelengths_per_circuit{2};
};

struct HostStackStats {
  std::uint64_t messages{0};
  std::uint64_t hits{0};
  std::uint64_t misses{0};
  std::uint64_t evictions{0};
  Duration reconfig_time{Duration::zero()};
  Duration transfer_time{Duration::zero()};

  [[nodiscard]] double hit_rate() const {
    return messages == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(messages);
  }
  [[nodiscard]] Duration total_time() const { return reconfig_time + transfer_time; }
};

class HostStack {
 public:
  HostStack(fabric::Fabric& fab, HostStackParams params = {});

  /// Sends `bytes` from `src` to `dst`, establishing (and possibly
  /// evicting) circuits as needed.  Returns the message latency, or an
  /// error if no circuit can be established even after eviction.
  Result<Duration> send(fabric::GlobalTile src, fabric::GlobalTile dst, DataSize bytes);

  /// Whether a live circuit src->dst exists (no side effects).
  [[nodiscard]] bool has_circuit(fabric::GlobalTile src, fabric::GlobalTile dst) const;

  /// Tears down every cached circuit.
  void flush();

  [[nodiscard]] const HostStackStats& stats() const { return stats_; }
  void reset_stats() { stats_ = HostStackStats{}; }

 private:
  struct Peer {
    fabric::GlobalTile dst{};
    fabric::CircuitId id{0};
  };

  /// `src`'s chip index (wafer x tiles_per_wafer + tile), or live_.size()
  /// off the fabric.  Its MRU array is peers_[slot x max_peers, + live_[slot]).
  [[nodiscard]] std::size_t slot_of(fabric::GlobalTile src) const;

  fabric::Fabric& fabric_;
  HostStackParams params_;
  std::uint32_t tiles_per_wafer_;
  /// Every circuit the stack opens carries wavelengths_per_circuit lambdas,
  /// so all run at this one rate (Fabric::circuit_bandwidth's value).
  Bandwidth rate_;
  /// max_peers entries per chip, most recently used first.
  std::vector<Peer> peers_;
  /// Live entries per chip.
  std::vector<std::uint32_t> live_;
  HostStackStats stats_;
};

}  // namespace lp::core
