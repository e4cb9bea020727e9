// ShardLinks: the one cluster follower of ClientAgent and the swarm mux. A
// fake link that opens no socket records what the follower did to it, so
// every membership rule is checked without a daemon: seed placement, the
// endpoint-identity law across epochs, retirement, dialing only empty
// slots, the seed's multicast regroup, and that no link is ever dropped
// unreachable, even when a dial throws.

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "live/shard_links.hpp"
#include "live/shard_map.hpp"

namespace mci::live {
namespace {

constexpr std::uint32_t kLoopback = 0x7F000001u;
constexpr std::uint32_t kGroup = 0xEFFF4D3Du;  // 239.255.77.61

ShardEndpoint unicast(std::uint16_t port) {
  return ShardEndpoint{kLoopback, port, 0, 0};
}

ShardEndpoint multicast(std::uint16_t port) {
  return ShardEndpoint{kLoopback, port, kGroup,
                       static_cast<std::uint16_t>(port + 1000)};
}

ShardMap mapOf(std::uint32_t version, std::vector<ShardEndpoint> eps) {
  return ShardMap(version, ShardMap::kDefaultHashSeed, std::move(eps));
}

/// The follower and everything its hooks saw. "Open" fake links stand for
/// open sockets: close() releases one, and a link destroyed while open is
/// a leaked socket.
struct Harness {
  struct Link {
    std::uint32_t shard = 0;
    ShardEndpoint endpoint;
    int id = 0;
    Harness* h = nullptr;

    void close() { h->open.erase(id); }
    ~Link() {
      if (h->open.count(id) != 0) ++h->leaked;
    }
  };
  using Links = ShardLinks<Link>;

  std::set<int> open;
  int leaked = 0;
  int nextId = 0;
  std::vector<std::pair<std::uint32_t, ShardEndpoint>> dials;
  std::vector<Link*> retires;
  std::vector<std::pair<Link*, ShardEndpoint>> regroups;
  std::optional<std::uint32_t> throwAtSlot;
  /// Last, so the links die while the books they report to still exist.
  Links links;

  std::unique_ptr<Link> make(const ShardEndpoint& ep) {
    auto link = std::make_unique<Link>();
    link->endpoint = ep;
    link->id = nextId++;
    link->h = this;
    open.insert(link->id);
    return link;
  }

  Link& seed(const ShardEndpoint& ep) { return links.seed(make(ep)); }

  void follow(const ShardMap& map, std::uint32_t seedSlot = Links::kUnplaced) {
    links.follow(
        map, seedSlot,
        [this](std::uint32_t slot, const ShardEndpoint& ep) {
          if (throwAtSlot == slot) throw std::runtime_error("dial refused");
          dials.emplace_back(slot, ep);
          return make(ep);
        },
        [this](Link& link) { retires.push_back(&link); },
        [this](Link& link, const ShardEndpoint& ep) {
          regroups.emplace_back(&link, ep);
        });
  }

  /// Closes every link the follower can still reach.
  void closeAll() {
    links.forEach([](Link& link) { link.close(); });
  }
};

TEST(ShardLinks, SeedTakesTheSlotItsWelcomeNames) {
  Harness h;
  Harness::Link& seed = h.seed(unicast(4001));
  EXPECT_EQ(seed.shard, Harness::Links::kUnplaced);
  EXPECT_FALSE(h.links.map().valid());
  ASSERT_EQ(h.links.slots().size(), 1u);

  const ShardMap map = mapOf(1, {unicast(4000), unicast(4001), unicast(4002)});
  h.follow(map, 1);

  EXPECT_EQ(h.links.map(), map);
  ASSERT_EQ(h.links.slots().size(), 3u);
  EXPECT_EQ(&h.links.at(1), &seed);
  EXPECT_EQ(seed.shard, 1u);
  EXPECT_EQ(seed.endpoint, unicast(4001));
  ASSERT_EQ(h.dials.size(), 2u);
  EXPECT_EQ(h.dials[0].first, 0u);
  EXPECT_EQ(h.dials[0].second, unicast(4000));
  EXPECT_EQ(h.dials[1].first, 2u);
  EXPECT_EQ(h.dials[1].second, unicast(4002));
  for (std::uint32_t s = 0; s < 3; ++s) {
    EXPECT_EQ(h.links.at(s).shard, s);
    EXPECT_EQ(h.links.at(s).endpoint, map.endpoint(s));
  }
  EXPECT_TRUE(h.retires.empty());
  EXPECT_TRUE(h.regroups.empty());
  EXPECT_TRUE(h.links.retired().empty());
}

// A daemon's slot index may change across epochs; its endpoint does not,
// and the link (with its sockets and cache partition) moves with it.
TEST(ShardLinks, SurvivorKeepsItsLinkObjectWhenItsSlotIndexChanges) {
  Harness h;
  h.seed(unicast(4000));
  h.follow(mapOf(1, {unicast(4000), unicast(4001), unicast(4002)}), 0);
  Harness::Link* a = &h.links.at(0);
  Harness::Link* b = &h.links.at(1);
  Harness::Link* c = &h.links.at(2);
  h.dials.clear();

  h.follow(mapOf(2, {unicast(4002), unicast(4000), unicast(4001)}));

  EXPECT_EQ(&h.links.at(0), c);
  EXPECT_EQ(&h.links.at(1), a);
  EXPECT_EQ(&h.links.at(2), b);
  EXPECT_EQ(c->shard, 0u);
  EXPECT_EQ(a->shard, 1u);
  EXPECT_EQ(b->shard, 2u);
  EXPECT_TRUE(h.dials.empty());
  EXPECT_TRUE(h.retires.empty());
  EXPECT_EQ(h.links.map().version(), 2u);
}

TEST(ShardLinks, RemovedEndpointsAreRetired) {
  Harness h;
  h.seed(unicast(4000));
  h.follow(mapOf(1, {unicast(4000), unicast(4001), unicast(4002)}), 0);
  Harness::Link* a = &h.links.at(0);
  Harness::Link* b = &h.links.at(1);
  Harness::Link* c = &h.links.at(2);

  h.follow(mapOf(2, {unicast(4000)}));

  ASSERT_EQ(h.links.slots().size(), 1u);
  EXPECT_EQ(&h.links.at(0), a);
  ASSERT_EQ(h.retires.size(), 2u);
  EXPECT_EQ(h.retires[0], b);
  EXPECT_EQ(h.retires[1], c);
  ASSERT_EQ(h.links.retired().size(), 2u);
  EXPECT_EQ(h.links.retired()[0].get(), b);
  EXPECT_EQ(h.links.retired()[1].get(), c);
  EXPECT_EQ(b->shard, Harness::Links::kUnplaced);
  EXPECT_EQ(c->shard, Harness::Links::kUnplaced);
  // Retiring hands the link to its owner; it closes nothing by itself.
  EXPECT_EQ(h.open.size(), 3u);
  h.closeAll();
  EXPECT_TRUE(h.open.empty());
}

TEST(ShardLinks, OnlyEmptySlotsAreDialed) {
  Harness h;
  h.seed(unicast(4000));
  h.follow(mapOf(1, {unicast(4000), unicast(4001)}), 0);
  Harness::Link* a = &h.links.at(0);
  Harness::Link* b = &h.links.at(1);
  h.dials.clear();

  // Grow by two, with a joiner ahead of a survivor.
  h.follow(mapOf(2, {unicast(4000), unicast(4005), unicast(4001),
                     unicast(4006)}));

  EXPECT_EQ(&h.links.at(0), a);
  EXPECT_EQ(&h.links.at(2), b);
  ASSERT_EQ(h.dials.size(), 2u);
  EXPECT_EQ(h.dials[0].first, 1u);
  EXPECT_EQ(h.dials[0].second, unicast(4005));
  EXPECT_EQ(h.dials[1].first, 3u);
  EXPECT_EQ(h.dials[1].second, unicast(4006));
  EXPECT_TRUE(h.retires.empty());
}

// The seed dials before the map is known, so its downlink is unicast. On a
// multicast shard it must be regrouped; links dialed from the map already
// match their entries and never are, on this map or a later one.
TEST(ShardLinks, RegroupFiresOnlyOnAMulticastMismatch) {
  {
    Harness h;
    Harness::Link& seed = h.seed(unicast(4001));
    h.follow(mapOf(1, {multicast(4000), multicast(4001)}), 1);
    ASSERT_EQ(h.regroups.size(), 1u);
    EXPECT_EQ(h.regroups[0].first, &seed);
    EXPECT_EQ(h.regroups[0].second, multicast(4001));
    EXPECT_EQ(seed.endpoint, multicast(4001));

    h.follow(mapOf(2, {multicast(4000), multicast(4001), multicast(4002)}));
    EXPECT_EQ(h.regroups.size(), 1u);
  }
  {
    // A unicast seed dialed at another address than its map entry names
    // (127.0.0.2 here) adopts the entry as its identity, but has no group
    // to join.
    Harness h;
    Harness::Link& seed = h.seed(ShardEndpoint{0x7F000002u, 4001, 0, 0});
    h.follow(mapOf(1, {unicast(4000), unicast(4001)}), 1);
    EXPECT_EQ(seed.endpoint, unicast(4001));
    h.follow(mapOf(2, {unicast(4000), unicast(4001), unicast(4002)}));
    EXPECT_EQ(&h.links.at(1), &seed);
    EXPECT_TRUE(h.regroups.empty());
  }
}

// A map naming one endpoint twice: the first link keeps the slot that
// indexOf names; a second link to that endpoint is retired, never written
// over the first, and the map's second slot gets a fresh dial.
TEST(ShardLinks, AMapNamingOneEndpointTwiceRetiresTheSecondLink) {
  Harness h;
  h.seed(unicast(4000));
  h.follow(mapOf(1, {unicast(4000), unicast(4000)}), 0);
  Harness::Link* first = &h.links.at(0);
  Harness::Link* second = &h.links.at(1);
  h.dials.clear();

  h.follow(mapOf(2, {unicast(4000), unicast(4000)}));

  EXPECT_EQ(&h.links.at(0), first);
  ASSERT_EQ(h.links.retired().size(), 1u);
  EXPECT_EQ(h.links.retired()[0].get(), second);
  ASSERT_EQ(h.dials.size(), 1u);
  EXPECT_EQ(h.dials[0].first, 1u);
  EXPECT_EQ(h.leaked, 0);
  h.closeAll();
  EXPECT_TRUE(h.open.empty());
}

// A dial that throws mid-follow (a refused connect, a refused group join)
// must leave every link the follower held reachable, so the owner's
// close-everything path still closes every socket.
TEST(ShardLinks, AThrowingDialLeavesEveryLinkReachable) {
  {
    Harness h;
    h.seed(unicast(4000));
    h.throwAtSlot = 2;
    EXPECT_THROW(
        h.follow(mapOf(1, {unicast(4000), unicast(4001), unicast(4002)}), 0),
        std::runtime_error);
    ASSERT_EQ(h.links.slots().size(), 3u);
    EXPECT_NE(h.links.slots()[0], nullptr);
    EXPECT_NE(h.links.slots()[1], nullptr);
    EXPECT_EQ(h.links.slots()[2], nullptr);
    h.closeAll();
    EXPECT_TRUE(h.open.empty());
    EXPECT_EQ(h.leaked, 0);
  }
  {
    Harness h;
    h.seed(unicast(4000));
    h.follow(mapOf(1, {unicast(4000), unicast(4001), unicast(4002)}), 0);
    h.throwAtSlot = 1;
    EXPECT_THROW(h.follow(mapOf(2, {unicast(4002), unicast(4007),
                                    unicast(4008)})),
                 std::runtime_error);
    EXPECT_EQ(h.links.retired().size(), 2u);
    h.closeAll();
    EXPECT_TRUE(h.open.empty());
    EXPECT_EQ(h.leaked, 0);
  }
}

TEST(ShardLinks, AdvancesEpochOnlyOnANewerValidMap) {
  const ShardMap v1 = mapOf(1, {unicast(4000)});
  const ShardMap v2 = mapOf(2, {unicast(4000)});
  EXPECT_TRUE(advancesEpoch(ShardMap(), v1));
  EXPECT_TRUE(advancesEpoch(v1, v2));
  EXPECT_FALSE(advancesEpoch(v2, v2));
  EXPECT_FALSE(advancesEpoch(v2, v1));
  EXPECT_FALSE(advancesEpoch(v1, ShardMap()));
}

}  // namespace
}  // namespace mci::live
