// HostStack against a map + std::list reference.
//
// The reference below keeps the same contract the straightforward way: a
// hash map from (src, dst) to circuit id, a per-source std::list holding
// the LRU order, and the fabric asked for each circuit's rate on every
// send.  The production stack keeps one flat most-recent-first array per
// chip and one per-stack rate.  This property test drives both over two
// identical 2-wafer fabrics joined by a fiber bundle with seeded random
// same- and cross-wafer sends and flushes, and after every operation holds
// the production stack to the reference's latency bits (or error),
// counters, cached pairs, circuit ids and fabric ledger digest.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "core/host_stack.hpp"
#include "util/rng.hpp"

namespace lp::core {
namespace {

using fabric::CircuitId;
using fabric::GlobalTile;

// --- reference ---------------------------------------------------------------

class ReferenceHostStack {
 public:
  ReferenceHostStack(fabric::Fabric& fab, HostStackParams params)
      : fabric_{fab}, params_{params} {}

  Result<Duration> send(GlobalTile src, GlobalTile dst, DataSize bytes) {
    ++stats_.messages;
    const Key key{src, dst};
    std::list<Key>& lru = sources_[src];

    Duration latency = Duration::zero();
    if (circuits_.contains(key)) {
      ++stats_.hits;
      lru.remove(key);
      lru.push_front(key);
    } else {
      ++stats_.misses;
      auto attempt = fabric_.connect(src, dst, params_.wavelengths_per_circuit);
      while (!attempt && !lru.empty()) {
        evict_back(lru);
        ++forced_evictions;
        attempt = fabric_.connect(src, dst, params_.wavelengths_per_circuit);
      }
      if (!attempt) return Err("cannot establish circuit: " + attempt.error().message);
      while (lru.size() >= params_.max_peers) evict_back(lru);
      circuits_.emplace(key, attempt.value());
      lru.push_front(key);
      const fabric::Circuit* c = fabric_.circuit(attempt.value());
      const Duration setup =
          fabric_.reconfig().batch_latency(c != nullptr ? c->mzis_to_program() : 1);
      stats_.reconfig_time += setup;
      latency += setup;
    }
    const Duration transfer =
        transfer_time(bytes, fabric_.circuit_bandwidth(circuits_.at(key)));
    stats_.transfer_time += transfer;
    latency += transfer;
    return latency;
  }

  [[nodiscard]] bool has_circuit(GlobalTile src, GlobalTile dst) const {
    return circuits_.contains(Key{src, dst});
  }

  void flush() {
    for (const auto& [key, id] : circuits_) fabric_.disconnect(id);
    circuits_.clear();
    sources_.clear();
  }

  [[nodiscard]] const HostStackStats& stats() const { return stats_; }

  /// Evictions made because connect() failed (lambdas, lanes or fibers ran
  /// out), as opposed to the port bound.
  std::uint64_t forced_evictions{0};

 private:
  struct Key {
    GlobalTile src, dst;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return (static_cast<std::size_t>(k.src.wafer) << 48) ^
             (static_cast<std::size_t>(k.src.tile) << 32) ^
             (static_cast<std::size_t>(k.dst.wafer) << 16) ^ k.dst.tile;
    }
  };
  struct TileHash {
    std::size_t operator()(const GlobalTile& t) const {
      return (static_cast<std::size_t>(t.wafer) << 32) ^ t.tile;
    }
  };

  void evict_back(std::list<Key>& lru) {
    const auto it = circuits_.find(lru.back());
    lru.pop_back();
    fabric_.disconnect(it->second);
    circuits_.erase(it);
    ++stats_.evictions;
  }

  fabric::Fabric& fabric_;
  HostStackParams params_;
  std::unordered_map<Key, CircuitId, KeyHash> circuits_;
  std::unordered_map<GlobalTile, std::list<Key>, TileHash> sources_;
  HostStackStats stats_;
};

// --- harness -----------------------------------------------------------------

fabric::Fabric two_wafers(std::uint32_t fibers) {
  fabric::FabricConfig config;
  config.wafer_count = 2;
  fabric::Fabric fab{config};
  fab.add_fiber_link({0, 7}, {1, 0}, fibers);
  return fab;
}

std::uint64_t bits(Duration d) { return std::bit_cast<std::uint64_t>(d.to_seconds()); }

void expect_same_stats(const HostStackStats& got, const HostStackStats& want) {
  EXPECT_EQ(got.messages, want.messages);
  EXPECT_EQ(got.hits, want.hits);
  EXPECT_EQ(got.misses, want.misses);
  EXPECT_EQ(got.evictions, want.evictions);
  EXPECT_EQ(bits(got.reconfig_time), bits(want.reconfig_time));
  EXPECT_EQ(bits(got.transfer_time), bits(want.transfer_time));
}

struct Setting {
  std::uint32_t max_peers;
  std::uint32_t wavelengths;
};

/// What a drive() reached, so the test can show every path was compared.
struct Coverage {
  std::uint64_t hits{0};
  std::uint64_t port_evictions{0};
  std::uint64_t forced_evictions{0};
  std::uint64_t failures{0};
  std::uint64_t cross_wafer{0};
  std::uint64_t flushes{0};
};

/// Drives both stacks through `ops` seeded operations and compares them
/// after each one.  Sources come from a small hot set so their LRUs churn;
/// destinations range over both wafers (the source itself included, which
/// fails after evicting the source's whole cache).
void drive(Setting s, std::uint64_t seed, int ops, Coverage& cov) {
  SCOPED_TRACE(::testing::Message() << "max_peers=" << s.max_peers
                                    << " wavelengths=" << s.wavelengths << " seed=" << seed);
  fabric::Fabric ref_fab = two_wafers(12);
  fabric::Fabric fab = two_wafers(12);
  const HostStackParams params{s.max_peers, s.wavelengths};
  ReferenceHostStack ref{ref_fab, params};
  HostStack stack{fab, params};

  const std::uint32_t tiles = fab.wafer(0).tile_count();
  std::vector<GlobalTile> chips;
  for (fabric::WaferId w = 0; w < 2; ++w) {
    for (fabric::TileId t = 0; t < tiles; ++t) chips.push_back({w, t});
  }
  Rng rng{seed};
  std::vector<GlobalTile> hot;
  for (int i = 0; i < 4; ++i) hot.push_back(chips[rng.uniform_index(chips.size())]);

  for (int op = 0; op < ops; ++op) {
    SCOPED_TRACE(::testing::Message() << "op " << op);
    if (rng.bernoulli(0.02)) {
      ref.flush();
      stack.flush();
      ++cov.flushes;
    } else {
      const GlobalTile src = hot[rng.uniform_index(hot.size())];
      // Most sends pick from a working set just over max_peers, so hits
      // and port-bound evictions both occur; the rest go anywhere.
      const GlobalTile dst =
          rng.bernoulli(0.8)
              ? chips[(src.wafer * tiles + src.tile + 1 + rng.uniform_index(s.max_peers + 2)) %
                      chips.size()]
              : chips[rng.uniform_index(chips.size())];
      const DataSize bytes = DataSize::kib(1.0 + static_cast<double>(rng.uniform_index(512)));
      const auto want = ref.send(src, dst, bytes);
      const auto got = stack.send(src, dst, bytes);
      ASSERT_EQ(got.ok(), want.ok());
      if (want.ok()) {
        ASSERT_EQ(bits(got.value()), bits(want.value()));
      } else {
        ++cov.failures;
      }
      if (src.wafer != dst.wafer) ++cov.cross_wafer;
    }
    expect_same_stats(stack.stats(), ref.stats());
    ASSERT_EQ(fab.active_circuits(), ref_fab.active_circuits());
    ASSERT_EQ(fab.circuit_ids(), ref_fab.circuit_ids());
    ASSERT_EQ(fab.ledger_digest(), ref_fab.ledger_digest());
    for (const GlobalTile a : chips) {
      for (const GlobalTile b : chips) {
        ASSERT_EQ(stack.has_circuit(a, b), ref.has_circuit(a, b))
            << a.wafer << ":" << a.tile << " -> " << b.wafer << ":" << b.tile;
      }
    }
  }
  cov.hits += ref.stats().hits;
  cov.forced_evictions += ref.forced_evictions;
  cov.port_evictions += ref.stats().evictions - ref.forced_evictions;
}

TEST(HostStackOracle, MatchesReferenceAcrossPortAndLambdaBounds) {
  // Port-bound settings (max_peers x lambdas below the tile's 16 Tx
  // lambdas) evict at the port limit; the rest run out of Tx lambdas first
  // and evict because connect() failed.
  const Setting settings[] = {{6, 1}, {1, 1}, {3, 4}, {8, 2}, {5, 4}, {16, 4}};
  std::uint64_t seed = 0x4057;
  std::uint64_t failures = 0;
  for (const Setting s : settings) {
    Coverage cov;
    for (int rep = 0; rep < 2; ++rep) drive(s, seed++, 300, cov);
    if (HasFatalFailure()) return;
    EXPECT_GT(cov.hits, 0u);
    EXPECT_GT(cov.cross_wafer, 0u);
    EXPECT_GT(cov.flushes, 0u);
    if (s.max_peers * s.wavelengths < 16) {
      EXPECT_GT(cov.port_evictions, 0u);
    } else {
      EXPECT_GT(cov.forced_evictions, 0u) << "Tx-lambda exhaustion path";
    }
    failures += cov.failures;
  }
  EXPECT_GT(failures, 0u) << "no send failed even after evicting";
}

}  // namespace
}  // namespace lp::core
