// Live resharding end to end over real loopback sockets: a Cluster plus a
// ClientPool running the paper's workload straight through an epoch switch.
// The cases target the migration races the protocol must absorb without a
// stale read or a dropped query: an item updated while its handoff stream
// is in flight (the cluster-wide freeze window), client queries racing the
// cutover announce, and a shard retired while a client dozes through the
// whole transition (it wakes into the new epoch and recovers through the
// Tlb gap path, never from a stale cache).

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/config.hpp"
#include "db/database.hpp"
#include "live/client_agent.hpp"
#include "live/cluster.hpp"
#include "live/reactor.hpp"

namespace mci::live {
namespace {

core::SimConfig reshardConfig() {
  core::SimConfig cfg;
  cfg.scheme = schemes::SchemeKind::kAaw;
  cfg.numClients = 8;
  cfg.dbSize = 1000;
  cfg.clientBufferFrac = 0.1;
  cfg.workload = core::WorkloadKind::kHotCold;
  cfg.hotQuery = {0, 50, 0.9};
  cfg.meanThinkTime = 25.0;
  // Fast updates: the freeze window (cutover + 0.5 wall-s grace) must see
  // update draws land on migrating items, or the mid-handoff case is
  // vacuous. Asserted via updatesFrozen below.
  cfg.meanUpdateInterarrival = 10.0;
  cfg.simTime = 2000.0;
  cfg.seed = 4242;
  return cfg;
}

struct ReshardRunResult {
  metrics::SimResult pool;
  PoolStats poolStats;
  ServerStats cluster;
  std::uint64_t clusterStale = 0;
  std::uint64_t queriesBeforeSwitch = 0;
  std::uint32_t epochAfter = 0;
  std::uint32_t shardsAfter = 0;
  bool transitionDone = false;
  /// Each agent's summed partition capacities at the end of the run.
  std::vector<std::size_t> cacheCapacities;
};

/// Runs `startShards` daemons + an 8-agent pool, fires `mutate(cluster)`
/// at model second `triggerAt`, and returns the full stats surface once the
/// model clock runs out. The pool audits locally where the shard still exists
/// and every agent echoes kAudit regardless, so the cluster-side stale
/// count covers migrated items wherever they land.
template <typename Mutate>
ReshardRunResult runAcrossReshard(const core::SimConfig& cfg,
                                  double timeScale, std::uint32_t startShards,
                                  double triggerAt, Mutate mutate) {
  Reactor reactor;
  ClusterOptions clusterOpts;
  clusterOpts.cfg = cfg;
  clusterOpts.timeScale = timeScale;
  clusterOpts.shardCount = startShards;
  Cluster cluster(reactor, clusterOpts);

  AgentOptions agentOpts;
  agentOpts.cfg = cfg;
  agentOpts.port = cluster.seedPort();
  agentOpts.numAgents = cfg.numClients;
  // No local audit snapshot: a grow adds databases the snapshot cannot
  // know and a shrink destroys the ones it holds. Server-side kAudit (on
  // by default) audits every answer against the live owner instead.
  ClientPool pool(reactor, agentOpts);
  pool.start();

  ReshardRunResult r;
  bool mutated = false;
  const Reactor::TimerHandle tick = reactor.addTimer(0.02, 0.02, [&] {
    if (!mutated && pool.welcomedCount() == cfg.numClients &&
        pool.modelNow() >= triggerAt) {
      mutated = true;
      r.queriesBeforeSwitch = pool.finalize().queriesCompleted;
      mutate(cluster, [&r] { r.transitionDone = true; });
    }
    if (pool.modelNow() >= cfg.simTime) {
      pool.shutdown();
      reactor.stop();
    }
  });
  reactor.run();
  (void)reactor.cancelTimer(tick);

  r.pool = pool.finalize();
  r.poolStats = pool.stats();
  r.cacheCapacities = pool.cacheCapacities();
  r.cluster = cluster.totalStats();
  r.clusterStale = cluster.staleReads();
  r.epochAfter = cluster.epoch();
  r.shardsAfter = cluster.shardCount();
  EXPECT_TRUE(mutated) << "pool never reached the trigger point";
  EXPECT_EQ(pool.shardMap().shardCount(), cluster.shardCount())
      << "pool never installed the post-switch map";
  return r;
}

TEST(LiveReshard, ItemUpdatedMidHandoffStaysConsistent) {
  // Grow 4 -> 6 under a hot update stream. Updates drawn on migrating
  // items inside the freeze window are skipped by EVERY member from the
  // shared stream (updatesFrozen counts them), which is exactly what makes
  // the handed-off snapshot authoritative while the old owner keeps
  // grace-serving it. Nothing served on either side of the switch may be
  // stale, and the backfill itself must have moved real items.
  const core::SimConfig cfg = reshardConfig();
  const ReshardRunResult r = runAcrossReshard(
      cfg, 400.0, 4, 0.3 * cfg.simTime,
      [](Cluster& cluster, std::function<void()> done) {
        cluster.grow(2, std::move(done));
      });

  EXPECT_TRUE(r.transitionDone);
  EXPECT_EQ(r.shardsAfter, 6u);
  EXPECT_EQ(r.epochAfter, 2u);
  EXPECT_GT(r.cluster.handoffItemsSent, 0u);
  EXPECT_EQ(r.cluster.handoffItemsSent, r.cluster.handoffItemsReceived);
  EXPECT_EQ(r.cluster.handoffFailures, 0u);
  EXPECT_GT(r.cluster.updatesFrozen, 0u)
      << "no update ever raced the freeze window; the case is vacuous";
  EXPECT_EQ(r.pool.staleReads, 0u);
  EXPECT_EQ(r.clusterStale, 0u);
  EXPECT_EQ(r.cluster.misroutedItems, 0u);
  EXPECT_EQ(r.poolStats.badFrames, 0u);
}

TEST(LiveReshard, QueriesRacingTheEpochFlipAllComplete) {
  // Eight agents keep querying straight through cutover: whatever was in
  // flight when the announce landed must still complete (owed legs move to
  // the new owners; fetches already out are grace-served by the old one),
  // and the pool must keep completing queries against the new map
  // afterwards.
  const core::SimConfig cfg = reshardConfig();
  const ReshardRunResult r = runAcrossReshard(
      cfg, 400.0, 4, 0.3 * cfg.simTime,
      [](Cluster& cluster, std::function<void()> done) {
        cluster.grow(2, std::move(done));
      });

  EXPECT_TRUE(r.transitionDone);
  EXPECT_EQ(r.poolStats.epochSwitches, 1u);
  EXPECT_GT(r.poolStats.mapUpdatesHeard, 0u);
  // The replay guard is the pool's version compare: each agent hears the
  // one announce on every uplink and on the IR downlinks, and every copy
  // after the first flip is a duplicate that must change nothing.
  EXPECT_GT(r.poolStats.staleMapUpdates, 0u);
  EXPECT_EQ(r.poolStats.staleMapUpdates + r.poolStats.epochSwitches,
            r.poolStats.mapUpdatesHeard);
  EXPECT_GT(r.queriesBeforeSwitch, 0u);
  EXPECT_GT(r.pool.queriesCompleted, r.queriesBeforeSwitch)
      << "no query completed after the epoch switch";
  // A grow retires nobody: no agent uplink may drop across the flip.
  EXPECT_EQ(r.poolStats.connectionsLost, 0u);
  EXPECT_EQ(r.pool.staleReads, 0u);
  EXPECT_EQ(r.clusterStale, 0u);
  EXPECT_EQ(r.cluster.misroutedItems, 0u);
}

TEST(LiveReshard, ShardRemovedWhileClientsDozeWakesIntoNewEpoch) {
  // Shrink 4 -> 2 with aggressive doze behavior: agents sleep through the
  // transition (radio off — they miss the cutover announce on the IR
  // downlink) and wake into an epoch where two of their uplinks' shards no
  // longer exist. Recovery is the Tlb gap path: the missed window forces a
  // drop/re-fetch against the surviving owners, so answers stay fresh and
  // the query stream keeps flowing. A removed daemon's uplink closing is
  // expected — what is not allowed is a stale answer or a wedged pool.
  core::SimConfig cfg = reshardConfig();
  cfg.disconnectProb = 0.5;  // paper's heavy-sleeper regime
  const ReshardRunResult r = runAcrossReshard(
      cfg, 400.0, 4, 0.3 * cfg.simTime,
      [](Cluster& cluster, std::function<void()> done) {
        cluster.shrink(2, std::move(done));
      });

  EXPECT_TRUE(r.transitionDone);
  EXPECT_EQ(r.shardsAfter, 2u);
  EXPECT_EQ(r.epochAfter, 2u);
  EXPECT_EQ(r.poolStats.epochSwitches, 1u);
  EXPECT_GT(r.pool.disconnects, 0u) << "nobody dozed; the case is vacuous";
  EXPECT_GT(r.pool.queriesCompleted, r.queriesBeforeSwitch)
      << "no query completed after the shrink";
  // The senders were the retired daemons — destroyed at finish, their
  // stats with them. The survivors' receive counter is the observable side.
  EXPECT_GT(r.cluster.handoffItemsReceived, 0u)
      << "retired shards handed nothing off";
  EXPECT_EQ(r.cluster.handoffFailures, 0u);
  EXPECT_EQ(r.pool.staleReads, 0u);
  EXPECT_EQ(r.clusterStale, 0u);
  EXPECT_EQ(r.cluster.misroutedItems, 0u);
}

// A flip re-shares each agent's cache at the new shard count: after a grow
// 4 -> 6 and a shrink 4 -> 2 every agent's partitions still hold exactly
// the Welcome's cacheCapacity between them (an agent that kept its pre-flip
// shares would hold 132 of the 100 slots after the grow, 50 after the
// shrink).
TEST(LiveReshard, FlipReSharesEveryAgentsCache) {
  const core::SimConfig cfg = reshardConfig();
  for (const std::uint32_t target : {6u, 2u}) {
    SCOPED_TRACE("4 -> " + std::to_string(target));
    const ReshardRunResult r = runAcrossReshard(
        cfg, 400.0, 4, 0.3 * cfg.simTime,
        [target](Cluster& cluster, std::function<void()> done) {
          if (target > 4) {
            cluster.grow(target - 4, std::move(done));
          } else {
            cluster.shrink(target, std::move(done));
          }
        });
    EXPECT_TRUE(r.transitionDone);
    EXPECT_EQ(r.shardsAfter, target);
    EXPECT_EQ(r.poolStats.epochSwitches, 1u);
    ASSERT_EQ(r.cacheCapacities.size(), cfg.numClients);
    for (std::size_t a = 0; a < r.cacheCapacities.size(); ++a) {
      EXPECT_EQ(r.cacheCapacities[a], cfg.cacheCapacity()) << "agent " << a;
    }
    EXPECT_EQ(r.pool.staleReads, 0u);
    EXPECT_EQ(r.clusterStale, 0u);
    EXPECT_EQ(r.cluster.misroutedItems, 0u);
  }
}

/// A flip whose next report comes after the retiring daemons' grace has
/// ended. At x20 a report period (L = 20 model s) is 1 wall s, twice
/// ReshardCoordinator::kGraceWallSeconds. The reshard starts 6 model s
/// after a report tick, with legs owed on every shard, so no shard reports
/// again until grace is over. A leg left on its old owner would then
/// outlive it: the retiring daemon's EOF reaches the drained link that
/// still holds the leg (shrink), or the old owner refuses the leg's fetch
/// (grow, rebalance). Owed legs follow their items to the new owners
/// instead: no agent is lost, nothing is misrouted or stale, and queries
/// keep completing after the flip.
template <typename Mutate>
void expectSlowFlipLosesNothing(Mutate mutate) {
  core::SimConfig cfg = reshardConfig();
  cfg.meanThinkTime = 5.0;  // most agents are mid-query at the flip
  cfg.simTime = 120.0;
  ASSERT_EQ(cfg.broadcastPeriod, 20.0);
  const ReshardRunResult r = runAcrossReshard(cfg, 20.0, 4, 66.0, mutate);
  EXPECT_TRUE(r.transitionDone);
  EXPECT_EQ(r.poolStats.epochSwitches, 1u);
  EXPECT_EQ(r.poolStats.connectionsLost, 0u);
  EXPECT_EQ(r.cluster.misroutedItems, 0u);
  EXPECT_GT(r.queriesBeforeSwitch, 0u);
  EXPECT_GT(r.pool.queriesCompleted, r.queriesBeforeSwitch)
      << "no query completed after the epoch switch";
  EXPECT_EQ(r.pool.staleReads, 0u);
  EXPECT_EQ(r.clusterStale, 0u);
}

TEST(LiveReshard, GrowWithReportsSlowerThanGraceLosesNoQuery) {
  expectSlowFlipLosesNothing(
      [](Cluster& cluster, std::function<void()> done) {
        cluster.grow(2, std::move(done));
      });
}

TEST(LiveReshard, RebalanceWithReportsSlowerThanGraceLosesNoQuery) {
  expectSlowFlipLosesNothing(
      [](Cluster& cluster, std::function<void()> done) {
        cluster.rebalance(std::move(done));
      });
}

TEST(LiveReshard, ShrinkWithReportsSlowerThanGraceLosesNoQuery) {
  expectSlowFlipLosesNothing(
      [](Cluster& cluster, std::function<void()> done) {
        cluster.shrink(2, std::move(done));
      });
}

/// Every shard's tick read between two reads of shard 0's: all shards run
/// one clock exactly when each lands inside that bracket. Shards built in
/// sequence that each started a clock of their own would read tens of
/// model milliseconds behind shard 0 at x400.
void expectOneClock(const Cluster& cluster) {
  for (std::uint32_t s = 1; s < cluster.shardCount(); ++s) {
    const std::uint64_t before = cluster.server(0).clock().nowTick();
    const std::uint64_t tick = cluster.server(s).clock().nowTick();
    const std::uint64_t after = cluster.server(0).clock().nowTick();
    EXPECT_GE(tick, before) << "shard " << s << " behind shard 0";
    EXPECT_LE(tick, after) << "shard " << s << " ahead of shard 0";
  }
}

TEST(LiveReshard, InitialAndGrownShardsReadOneModelClock) {
  Reactor reactor;
  ClusterOptions opts;
  opts.cfg = reshardConfig();
  opts.timeScale = 400.0;
  opts.shardCount = 4;
  Cluster cluster(reactor, opts);
  expectOneClock(cluster);

  bool done = false;
  cluster.grow(2, [&] {
    done = true;
    reactor.stop();
  });
  EXPECT_EQ(cluster.shardCount(), 6u);
  expectOneClock(cluster);
  const Reactor::TimerHandle guard =
      reactor.addTimer(10.0, 0, [&reactor] { reactor.stop(); });
  reactor.run();
  (void)reactor.cancelTimer(guard);
  EXPECT_TRUE(done) << "the grow never finished";
  expectOneClock(cluster);
}

}  // namespace
}  // namespace mci::live
