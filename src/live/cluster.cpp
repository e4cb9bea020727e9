#include "live/cluster.hpp"

#include <arpa/inet.h>

#include <stdexcept>

#include "core/check.hpp"

namespace mci::live {

Cluster::Cluster(Reactor& reactor, ClusterOptions options)
    : reactor_(reactor), opts_(std::move(options)) {
  if (opts_.shardCount < 1 || opts_.shardCount > ShardMap::kMaxShards) {
    throw std::invalid_argument("cluster: shardCount must be in [1, kMaxShards]");
  }
  if (!opts_.tcpPorts.empty() && opts_.tcpPorts.size() != opts_.shardCount) {
    throw std::invalid_argument("cluster: need one TCP port per shard");
  }
  servers_.reserve(opts_.shardCount);
  for (std::uint32_t s = 0; s < opts_.shardCount; ++s) {
    servers_.push_back(std::make_unique<BroadcastServer>(
        reactor, shardOptions(s, opts_.shardCount,
                              opts_.tcpPorts.empty() ? 0 : opts_.tcpPorts[s])));
  }

  // Ephemeral ports are resolved now; assemble the map and install it
  // everywhere so any shard's Welcome teaches a client the whole cluster.
  map_ = ShardMap(1, ShardMap::kDefaultHashSeed, endpoints(servers_.size()));
  for (auto& server : servers_) server->setShardMap(map_);
}

ServerOptions Cluster::shardOptions(std::uint32_t index, std::uint32_t count,
                                    std::uint16_t tcpPort) const {
  ServerOptions so;
  so.cfg = opts_.cfg;
  so.timeScale = opts_.timeScale;
  so.bindAddress = opts_.bindAddress;
  so.tcpPort = tcpPort;
  so.maxSendQueueBytes = opts_.maxSendQueueBytes;
  so.shardIndex = index;
  so.shardCount = count;
  // Before the first map is installed this is the default seed.
  so.shardHashSeed = map_.hashSeed();
  if (!opts_.multicastGroup.empty()) {
    so.multicastGroup = opts_.multicastGroup;
    so.multicastPort =
        static_cast<std::uint16_t>(opts_.multicastBasePort + index);
  }
  return so;
}

std::vector<ShardEndpoint> Cluster::endpoints(std::size_t count) const {
  std::vector<ShardEndpoint> eps;
  eps.reserve(count);
  for (std::size_t s = 0; s < count; ++s) {
    eps.push_back(servers_[s]->selfEndpoint());
  }
  return eps;
}

std::vector<const db::Database*> Cluster::auditDbs() const {
  std::vector<const db::Database*> dbs;
  dbs.reserve(servers_.size());
  for (const auto& server : servers_) dbs.push_back(&server->database());
  return dbs;
}

ServerStats Cluster::totalStats() const {
  ServerStats t;
  for (const auto& server : servers_) {
    const ServerStats& s = server->stats();
    t.reportsBroadcast += s.reportsBroadcast;
    t.framesDropped += s.framesDropped;
    t.udpSendFailures += s.udpSendFailures;
    t.connectionsAccepted += s.connectionsAccepted;
    t.connectionsClosed += s.connectionsClosed;
    t.queryRequests += s.queryRequests;
    t.dataItemFrames += s.dataItemFrames;
    t.dataItemsSent += s.dataItemsSent;
    t.checksReceived += s.checksReceived;
    t.auditsReceived += s.auditsReceived;
    t.updatesApplied += s.updatesApplied;
    t.badFrames += s.badFrames;
    t.updatesThinned += s.updatesThinned;
    t.misroutedItems += s.misroutedItems;
    t.udpSendSyscalls += s.udpSendSyscalls;
    t.udpDatagramsSent += s.udpDatagramsSent;
    t.tcpSendSyscalls += s.tcpSendSyscalls;
    t.updatesFrozen += s.updatesFrozen;
    t.handoffItemsSent += s.handoffItemsSent;
    t.handoffItemsReceived += s.handoffItemsReceived;
    t.handoffFailures += s.handoffFailures;
    t.graceServed += s.graceServed;
    t.mapUpdatesSent += s.mapUpdatesSent;
    t.mapReannounces += s.mapReannounces;
  }
  return t;
}

void Cluster::grow(std::uint32_t add, std::function<void()> onDone) {
  MCI_CHECK(!reshardInProgress()) << "cluster: reshard already in progress";
  MCI_CHECK(add >= 1) << "cluster: grow needs at least one shard";
  const auto oldCount = static_cast<std::uint32_t>(servers_.size());
  MCI_CHECK(oldCount + add <= ShardMap::kMaxShards)
      << "cluster: grow past kMaxShards";
  for (std::uint32_t i = 0; i < add; ++i) {
    // Joiners always bind ephemeral ports.
    servers_.push_back(std::make_unique<BroadcastServer>(
        reactor_, shardOptions(oldCount + i, oldCount + add, 0)));
  }
  startReshard(map_.hashSeed(), 0, std::move(onDone));
}

void Cluster::shrink(std::uint32_t remove, std::function<void()> onDone) {
  MCI_CHECK(!reshardInProgress()) << "cluster: reshard already in progress";
  MCI_CHECK(remove >= 1 && remove < servers_.size())
      << "cluster: shrink must leave at least one shard";
  // Removal is always the highest indices: the survivors keep their slots,
  // so only items hashed to removed slots (or rehashed onto them) move.
  startReshard(map_.hashSeed(), remove, std::move(onDone));
}

void Cluster::rebalance(std::function<void()> onDone) {
  MCI_CHECK(!reshardInProgress()) << "cluster: reshard already in progress";
  // A golden-ratio step through seed space: deterministic, and far enough
  // from the old seed that the partition actually reshuffles.
  startReshard(map_.hashSeed() + 0x9E3779B97F4A7C15ull, 0, std::move(onDone));
}

void Cluster::startReshard(std::uint64_t hashSeed, std::uint32_t retireCount,
                           std::function<void()> onDone) {
  const ShardMap newMap(map_.version() + 1, hashSeed,
                        endpoints(servers_.size() - retireCount));
  std::vector<BroadcastServer*> members;
  members.reserve(servers_.size());
  for (const auto& server : servers_) members.push_back(server.get());
  coordinator_ = std::make_unique<ReshardCoordinator>(
      reactor_, std::move(members), map_, newMap,
      [this, newMap, retireCount, cb = std::move(onDone)] {
        map_ = newMap;
        // Retired daemons served their grace window; drop them now. Their
        // dtors close every remaining uplink (clients see EOF and have
        // already flipped to the new epoch).
        for (std::uint32_t i = 0; i < retireCount; ++i) servers_.pop_back();
        if (cb) cb();
      });
  coordinator_->start();
}

std::uint64_t Cluster::staleReads() const {
  std::uint64_t n = 0;
  for (const auto& server : servers_) n += server->staleReads();
  return n;
}

std::optional<std::pair<std::string, std::uint16_t>> parseMulticastSpec(
    const std::string& spec) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= spec.size()) {
    return std::nullopt;
  }
  const std::string group = spec.substr(0, colon);
  const std::string portStr = spec.substr(colon + 1);
  unsigned long port = 0;
  for (char c : portStr) {
    if (c < '0' || c > '9') return std::nullopt;
    port = port * 10 + static_cast<unsigned long>(c - '0');
    if (port > 65535) return std::nullopt;
  }
  if (port == 0) return std::nullopt;
  in_addr addr{};
  if (::inet_pton(AF_INET, group.c_str(), &addr) != 1 ||
      (ntohl(addr.s_addr) >> 28) != 0xE) {
    return std::nullopt;  // not an IPv4 multicast (224.0.0.0/4) address
  }
  return std::make_pair(group, static_cast<std::uint16_t>(port));
}

std::optional<std::vector<std::uint16_t>> parsePortList(
    const std::string& spec) {
  std::vector<std::uint16_t> ports;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string tok =
        spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (tok.empty()) return std::nullopt;
    unsigned long port = 0;
    for (char c : tok) {
      if (c < '0' || c > '9') return std::nullopt;
      port = port * 10 + static_cast<unsigned long>(c - '0');
      if (port > 65535) return std::nullopt;
    }
    if (port == 0) return std::nullopt;
    ports.push_back(static_cast<std::uint16_t>(port));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return ports;
}

}  // namespace mci::live
