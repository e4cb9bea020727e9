#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/check.hpp"
#include "db/item.hpp"

namespace mci::report {
class BitWriter;
class BitReader;
}  // namespace mci::report

namespace mci::live {

/// Where one shard of the broadcast cluster lives. All addresses are IPv4 in
/// host byte order. `multicastIpv4 == 0` means the shard fans its IR out as
/// per-client UDP datagrams; nonzero means clients join that group and the
/// shard sends one datagram per report.
struct ShardEndpoint {
  std::uint32_t ipv4 = 0;
  std::uint16_t tcpPort = 0;
  std::uint32_t multicastIpv4 = 0;
  std::uint16_t multicastPort = 0;

  bool operator==(const ShardEndpoint&) const = default;
};

/// Versioned, hash-based item→shard map of a broadcast cluster.
///
/// Every shard owns the items `shardOf(item) == shardIndex`: it applies only
/// their updates, broadcasts only their invalidations, and answers only
/// their queries. The map travels in the `Welcome` v2 handshake, so a
/// client that contacts any one shard learns the whole cluster layout and
/// routes queries, checks and audits by item — the paper's single stateless
/// server becomes K of them without the client needing any out-of-band
/// configuration ("transparent invalidation scale-out").
///
/// The hash is a SplitMix64 finalizer over `hashSeed + item`, reduced mod
/// shardCount: uniform over item ids (contiguous hot ranges spread across
/// shards) and stable across processes, which is what makes the map a wire
/// artifact rather than local policy. `version` lets a future resharding
/// protocol invalidate stale maps; every member of one cluster must carry
/// the same (version, hashSeed, endpoints) tuple.
class ShardMap {
 public:
  /// Sanity bound for decoders: a corrupt count field must not make the
  /// receiver allocate gigabytes of endpoints.
  static constexpr std::uint16_t kMaxShards = 1024;
  static constexpr std::uint64_t kDefaultHashSeed = 0x9E3779B97F4A7C15ull;

  /// An empty (invalid) map; valid() is false.
  ShardMap() = default;

  ShardMap(std::uint32_t version, std::uint64_t hashSeed,
           std::vector<ShardEndpoint> shards);

  /// The degenerate single-shard map: exactly the pre-cluster deployment.
  [[nodiscard]] static ShardMap single(ShardEndpoint self);

  [[nodiscard]] bool valid() const { return !shards_.empty(); }
  [[nodiscard]] std::uint32_t version() const { return version_; }
  [[nodiscard]] std::uint64_t hashSeed() const { return hashSeed_; }
  [[nodiscard]] std::uint32_t shardCount() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  [[nodiscard]] const ShardEndpoint& endpoint(std::uint32_t shard) const {
    MCI_CHECK(shard < shards_.size())
        << "shard index " << shard << " out of range (count="
        << shards_.size() << ")";
    return shards_[shard];
  }
  [[nodiscard]] const std::vector<ShardEndpoint>& endpoints() const {
    return shards_;
  }

  /// The slot whose endpoint is (ipv4, tcpPort), if any. Endpoint identity
  /// is what survives a reshard; a daemon's slot index may change.
  [[nodiscard]] std::optional<std::uint32_t> indexOf(
      std::uint32_t ipv4, std::uint16_t tcpPort) const;

  /// Owner shard of `item`. Requires valid().
  [[nodiscard]] std::uint32_t shardOf(db::ItemId item) const {
    MCI_CHECK(valid()) << "shardOf(" << item << ") on an empty shard map";
    const std::uint32_t shard = shardOfItem(item, hashSeed_, shardCount());
    MCI_DCHECK(shard < shardCount())
        << "hash law produced shard " << shard << " of " << shardCount();
    return shard;
  }

  /// The map's hash law, callable without a map (servers know only their
  /// (index, count, seed) spec until the launcher installs endpoints).
  [[nodiscard]] static std::uint32_t shardOfItem(db::ItemId item,
                                                std::uint64_t hashSeed,
                                                std::uint32_t shardCount);

  /// Appends the map to a control payload (Welcome v2 embeds it).
  void encodeTo(report::BitWriter& w) const;

  /// Reads a map back; nullopt on underrun or an out-of-range shard count.
  /// When `mustContainIndex` is given, a map whose decoded count does not
  /// cover that index is rejected BEFORE any endpoint is parsed — the
  /// Welcome v2 shardIndex bound is enforced here, not after the fact.
  /// `minVersion` is the stale-epoch replay guard: a map whose version is
  /// LOWER than the caller's installed one is rejected just as early, so a
  /// replayed MapUpdate can never roll an epoch back.
  [[nodiscard]] static std::optional<ShardMap> decodeFrom(
      report::BitReader& r,
      std::optional<std::uint32_t> mustContainIndex = std::nullopt,
      std::uint32_t minVersion = 0);

  bool operator==(const ShardMap&) const = default;

 private:
  std::uint32_t version_ = 0;
  std::uint64_t hashSeed_ = kDefaultHashSeed;
  std::vector<ShardEndpoint> shards_;
};

}  // namespace mci::live
