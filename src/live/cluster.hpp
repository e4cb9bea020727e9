#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "live/broadcast_server.hpp"
#include "live/reactor.hpp"
#include "live/reshard.hpp"
#include "live/shard_map.hpp"

namespace mci::live {

struct ClusterOptions {
  /// Shared by every shard — seed included, which is what makes the K
  /// thinned update streams union to the single-server stream.
  core::SimConfig cfg;
  double timeScale = 1.0;
  std::uint32_t shardCount = 1;
  std::string bindAddress = "127.0.0.1";
  /// Fixed TCP ports, one per shard; empty = all ephemeral.
  std::vector<std::uint16_t> tcpPorts;
  /// Nonempty = multicast downlinks: shard s sends its IR to
  /// multicastGroup : multicastBasePort + s (one group address, one port
  /// per shard stream).
  std::string multicastGroup;
  std::uint16_t multicastBasePort = 0;
  std::size_t maxSendQueueBytes = 1 << 20;
};

/// K BroadcastServers on one reactor wired into one cluster: constructs
/// every shard (ephemeral ports resolve here), assembles the ShardMap from
/// their endpoints, and installs it on each so their Welcomes advertise the
/// whole cluster. This is the in-process form of the `mci_live_cluster`
/// launcher; tests and demos embed it directly.
class Cluster {
 public:
  Cluster(Reactor& reactor, ClusterOptions options);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] std::uint32_t shardCount() const {
    return static_cast<std::uint32_t>(servers_.size());
  }
  [[nodiscard]] BroadcastServer& server(std::uint32_t shard) {
    return *servers_[shard];
  }
  [[nodiscard]] const BroadcastServer& server(std::uint32_t shard) const {
    return *servers_[shard];
  }
  [[nodiscard]] const ShardMap& shardMap() const { return map_; }

  /// Seed-shard TCP port (what a ClientPool dials; it learns the rest).
  [[nodiscard]] std::uint16_t seedPort() const {
    return servers_.front()->tcpPort();
  }

  /// Per-shard authoritative databases, indexed by shard — plugs straight
  /// into AgentOptions::auditDbs for in-process pools.
  [[nodiscard]] std::vector<const db::Database*> auditDbs() const;

  /// Element-wise sum of every shard's ServerStats.
  [[nodiscard]] ServerStats totalStats() const;

  /// Sum of per-shard audited stale reads (must stay 0).
  [[nodiscard]] std::uint64_t staleReads() const;

  // --- elastic membership (one transition at a time) -----------------------
  /// Adds `add` shards on ephemeral ports: new daemons are constructed on
  /// the cluster's reactor (so they read its model clock), the next-epoch
  /// map (same hash seed, appended endpoints) is computed, and a
  /// ReshardCoordinator drives freeze -> handoff -> cutover -> grace ->
  /// finish. `onDone` fires once the new epoch is installed cluster-wide.
  void grow(std::uint32_t add, std::function<void()> onDone = nullptr);
  /// Removes the `remove` highest-indexed shards: they hand off everything
  /// they own, announce the new map, refuse new Hellos, and are destroyed
  /// once the transition finishes.
  void shrink(std::uint32_t remove, std::function<void()> onDone = nullptr);
  /// Same membership, new hash seed: every item whose owner changes under
  /// the reseeded law migrates. The elastic path's shuffle primitive.
  void rebalance(std::function<void()> onDone = nullptr);
  [[nodiscard]] bool reshardInProgress() const {
    return coordinator_ &&
           coordinator_->phase() != ReshardCoordinator::Phase::kDone;
  }
  /// The installed map's version — bumps by one per completed transition.
  [[nodiscard]] std::uint32_t epoch() const { return map_.version(); }

 private:
  /// Options of the daemon at slot `index` of `count`, under the installed
  /// map's hash seed.
  [[nodiscard]] ServerOptions shardOptions(std::uint32_t index,
                                           std::uint32_t count,
                                           std::uint16_t tcpPort) const;
  /// The endpoints of the first `count` daemons, in slot order.
  [[nodiscard]] std::vector<ShardEndpoint> endpoints(std::size_t count) const;
  /// Moves to the next epoch: `hashSeed` over every daemon but the
  /// `retireCount` highest-indexed, which are destroyed once it finishes.
  void startReshard(std::uint64_t hashSeed, std::uint32_t retireCount,
                    std::function<void()> onDone);

  Reactor& reactor_;
  ClusterOptions opts_;
  ShardMap map_;
  std::vector<std::unique_ptr<BroadcastServer>> servers_;
  std::unique_ptr<ReshardCoordinator> coordinator_;
};

/// Parses "group:port" (e.g. "239.1.2.3:9000"); nullopt with no colon, a
/// non-numeric/zero port, or a group outside 224.0.0.0/4.
[[nodiscard]] std::optional<std::pair<std::string, std::uint16_t>>
parseMulticastSpec(const std::string& spec);

/// Parses a comma-separated port list ("4242,4243"); nullopt on any
/// non-numeric or out-of-range entry.
[[nodiscard]] std::optional<std::vector<std::uint16_t>> parsePortList(
    const std::string& spec);

}  // namespace mci::live
