#include "live/shard_map.hpp"

#include <utility>

#include "report/codec.hpp"

namespace mci::live {

ShardMap::ShardMap(std::uint32_t version, std::uint64_t hashSeed,
                   std::vector<ShardEndpoint> shards)
    : version_(version), hashSeed_(hashSeed), shards_(std::move(shards)) {}

ShardMap ShardMap::single(ShardEndpoint self) {
  return ShardMap(1, kDefaultHashSeed, {self});
}

std::optional<std::uint32_t> ShardMap::indexOf(std::uint32_t ipv4,
                                               std::uint16_t tcpPort) const {
  for (std::uint32_t s = 0; s < shardCount(); ++s) {
    if (shards_[s].ipv4 == ipv4 && shards_[s].tcpPort == tcpPort) return s;
  }
  return std::nullopt;
}

std::uint32_t ShardMap::shardOfItem(db::ItemId item, std::uint64_t hashSeed,
                                    std::uint32_t shardCount) {
  if (shardCount <= 1) return 0;
  // SplitMix64 finalizer: full avalanche, so the modulo is fair even for
  // the contiguous item-id ranges the hot/cold workloads use.
  std::uint64_t z = hashSeed + static_cast<std::uint64_t>(item);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  return static_cast<std::uint32_t>(z % shardCount);
}

void ShardMap::encodeTo(report::BitWriter& w) const {
  w.write(version_, 32);
  w.write(hashSeed_, 64);
  w.write(shardCount(), 16);
  for (const ShardEndpoint& e : shards_) {
    w.write(e.ipv4, 32);
    w.write(e.tcpPort, 16);
    w.write(e.multicastIpv4, 32);
    w.write(e.multicastPort, 16);
  }
}

std::optional<ShardMap> ShardMap::decodeFrom(
    report::BitReader& r, std::optional<std::uint32_t> mustContainIndex,
    std::uint32_t minVersion) {
  const auto version = static_cast<std::uint32_t>(r.read(32));
  if (!r.ok() || version < minVersion) return std::nullopt;
  const std::uint64_t hashSeed = r.read(64);
  const std::uint64_t count = r.read(16);
  if (!r.ok() || count == 0 || count > kMaxShards) return std::nullopt;
  if (mustContainIndex && *mustContainIndex >= count) return std::nullopt;
  if (!r.fits(count, 32 + 16 + 32 + 16)) return std::nullopt;
  std::vector<ShardEndpoint> shards;
  shards.reserve(count);
  for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
    ShardEndpoint e;
    e.ipv4 = static_cast<std::uint32_t>(r.read(32));
    e.tcpPort = static_cast<std::uint16_t>(r.read(16));
    e.multicastIpv4 = static_cast<std::uint32_t>(r.read(32));
    e.multicastPort = static_cast<std::uint16_t>(r.read(16));
    shards.push_back(e);
  }
  if (!r.ok()) return std::nullopt;
  return ShardMap(version, hashSeed, std::move(shards));
}

}  // namespace mci::live
