// The swarm emulator end to end over real loopback sockets: a cluster of
// BroadcastServers plus a SwarmEmulator sharing one reactor. The emulated
// population's hit ratio is gated against a real 8-agent ClientPool over
// the identical configuration and seed (the vectorized model's fidelity
// claim), cache answers are audited against the authoritative databases
// (zero stale reads), and forged reports are refused before they touch
// any client state.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "db/update_history.hpp"
#include "live/client_agent.hpp"
#include "live/cluster.hpp"
#include "live/reactor.hpp"
#include "live/shard_map.hpp"
#include "live/wire_bytes.hpp"
#include "report/codec.hpp"
#include "report/ts_report.hpp"
#include "swarm/engine.hpp"
#include "swarm/state.hpp"

namespace mci::swarm {
namespace {

/// Hot/cold over a small database with the hot set cacheable: enough hits
/// for the hit-ratio comparisons to carry signal within a short test run.
core::SimConfig baseConfig(schemes::SchemeKind scheme) {
  core::SimConfig cfg;
  cfg.scheme = scheme;
  cfg.dbSize = 500;
  cfg.clientBufferFrac = 0.1;
  cfg.workload = core::WorkloadKind::kHotCold;
  cfg.hotQuery = {0, 50, 0.8};
  cfg.meanThinkTime = 25.0;
  cfg.meanItemsPerQuery = 4.0;
  cfg.meanUpdateInterarrival = 50.0;
  cfg.broadcastPeriod = 10.0;
  cfg.simTime = 800.0;
  cfg.seed = 1234;
  return cfg;
}

struct SwarmRun {
  SwarmStats stats;
  MuxStats mux;
  bool ready = false;
};

SwarmRun runSwarm(const core::SimConfig& cfg, double timeScale,
                  std::uint32_t clients, std::uint32_t shards,
                  std::uint32_t endpoints, double zipfTheta = -1.0) {
  live::Reactor reactor;
  live::ClusterOptions co;
  co.cfg = cfg;
  co.cfg.numClients = clients;
  co.timeScale = timeScale;
  co.shardCount = shards;
  co.maxSendQueueBytes = std::size_t{64} << 20;
  live::Cluster cluster(reactor, co);

  SwarmOptions so;
  so.cfg = cfg;
  so.cfg.numClients = clients;
  so.port = cluster.seedPort();
  so.clients = clients;
  so.endpointsPerShard = endpoints;
  so.zipfTheta = zipfTheta;
  so.auditDbs = cluster.auditDbs();
  SwarmEmulator em(reactor, so);
  em.start();

  const live::Reactor::TimerHandle tick = reactor.addTimer(0.01, 0.01, [&] {
    if (em.ready() && em.modelNow() >= cfg.simTime) {
      em.shutdown();
      reactor.stop();
    }
  });
  reactor.run();
  (void)reactor.cancelTimer(tick);

  SwarmRun r;
  r.stats = em.stats();
  r.mux = em.mux().stats();
  r.ready = em.ready();
  EXPECT_EQ(cluster.staleReads(), 0u);
  return r;
}

double runPool(const core::SimConfig& cfg, double timeScale,
               std::size_t agents) {
  live::Reactor reactor;
  live::ClusterOptions co;
  co.cfg = cfg;
  co.cfg.numClients = agents;
  co.timeScale = timeScale;
  co.shardCount = 1;
  live::Cluster cluster(reactor, co);

  live::AgentOptions ao;
  ao.cfg = cfg;
  ao.cfg.numClients = agents;
  ao.port = cluster.seedPort();
  ao.numAgents = agents;
  ao.auditDbs = cluster.auditDbs();
  live::ClientPool pool(reactor, ao);
  pool.start();

  const live::Reactor::TimerHandle tick = reactor.addTimer(0.01, 0.01, [&] {
    if (pool.modelNow() >= cfg.simTime) {
      pool.shutdown();
      reactor.stop();
    }
  });
  reactor.run();
  (void)reactor.cancelTimer(tick);
  EXPECT_EQ(pool.staleReads(), 0u);
  EXPECT_EQ(cluster.staleReads(), 0u);
  return pool.finalize().hitRatio();
}

void expectSound(const SwarmRun& r) {
  EXPECT_TRUE(r.ready);
  EXPECT_EQ(r.mux.connectionsLost, 0u);
  EXPECT_GT(r.stats.reportsProcessed, 0u);
  EXPECT_GT(r.stats.queriesCompleted, 0u);
  EXPECT_EQ(r.stats.staleReads, 0u);
}

/// The headline fidelity check: an emulated population and a real agent
/// pool over the same scheme, workload and seed must land on comparable
/// hit ratios. The pool side is 8 agents (a few thousand reads), so the
/// tolerance is statistical, not exact; the committed bench gate runs the
/// same comparison at 10^5 clients with much tighter bounds.
void parityCase(schemes::SchemeKind scheme) {
  const core::SimConfig cfg = baseConfig(scheme);
  const SwarmRun sw = runSwarm(cfg, 400.0, 400, 1, 4);
  expectSound(sw);
  const double hitSwarm = sw.stats.hitRatio();
  const double hitPool = runPool(cfg, 400.0, 8);
  EXPECT_GT(hitSwarm, 0.1);
  EXPECT_GT(hitPool, 0.1);
  const double parity =
      std::min(hitSwarm, hitPool) / std::max(hitSwarm, hitPool);
  EXPECT_GT(parity, 0.6) << "swarm " << hitSwarm << " vs pool " << hitPool;
}

TEST(Swarm, AfwHitRatioMatchesClientPool) {
  parityCase(schemes::SchemeKind::kAfw);
}

TEST(Swarm, AawHitRatioMatchesClientPool) {
  parityCase(schemes::SchemeKind::kAaw);
}

// The parity above assumes the swarm and the pool give each shard the same
// cache partition. Both size partitions with live::ShardMap::cacheShare
// (ClientAgent per Welcome, SwarmState per layout); pin the swarm's layout
// to that rule for 1-5 shards, and the rule to an even split of the whole
// capacity.
TEST(Swarm, CacheSharesFollowTheClientPoolRule) {
  for (std::uint32_t shards = 1; shards <= 5; ++shards) {
    for (const std::uint32_t capacity : {1u, 4u, 50u, 101u}) {
      SwarmState st;
      st.configure(/*numClients=*/3, shards, /*databaseSize=*/500, capacity,
                   /*seed=*/1);
      std::uint32_t total = 0;
      for (std::uint32_t s = 0; s < shards; ++s) {
        const std::uint32_t share =
            live::ShardMap::cacheShare(capacity, shards, s);
        EXPECT_EQ(st.shareOf(s), share)
            << "shard " << s << " of " << shards << ", capacity " << capacity;
        EXPECT_GE(share, 1u);
        EXPECT_LE(share, capacity / shards + 1);
        total += share;
      }
      EXPECT_EQ(st.slotsPerClient, total);
      EXPECT_EQ(total, std::max(capacity, shards))
          << shards << " shards, capacity " << capacity;
    }
  }
}

// The model is driven purely by (seed, report ticks): multiplexing the
// uplink over 1 or 4 TCP endpoints must not move the aggregate statistics
// beyond report-timing jitter.
TEST(Swarm, EndpointCountDoesNotChangeTheModel) {
  const core::SimConfig cfg = baseConfig(schemes::SchemeKind::kAaw);
  const SwarmRun one = runSwarm(cfg, 400.0, 400, 1, 1);
  const SwarmRun four = runSwarm(cfg, 400.0, 400, 1, 4);
  expectSound(one);
  expectSound(four);
  const double h1 = one.stats.hitRatio();
  const double h4 = four.stats.hitRatio();
  EXPECT_GT(h1, 0.1);
  EXPECT_NEAR(h1, h4, 0.08) << "1-endpoint vs 4-endpoint hit ratio";
}

TEST(Swarm, ShardedClusterRunsClean) {
  const core::SimConfig cfg = baseConfig(schemes::SchemeKind::kAaw);
  const SwarmRun r = runSwarm(cfg, 400.0, 300, 3, 2);
  expectSound(r);
  EXPECT_GT(r.stats.hitRatio(), 0.05);
}

// A grow mid-run: the mux applies the one new epoch once. The cutover
// announce reaches it on every uplink and on each shard's IR downlink, and
// every copy after the first is a duplicate the version compare must count
// as stale and ignore — the mux's only replay guard.
TEST(Swarm, GrowFlipsTheMuxOnceAndDuplicateAnnouncesAreStale) {
  const core::SimConfig cfg = baseConfig(schemes::SchemeKind::kAaw);
  live::Reactor reactor;
  live::ClusterOptions co;
  co.cfg = cfg;
  co.cfg.numClients = 200;
  co.timeScale = 400.0;
  co.shardCount = 2;
  co.maxSendQueueBytes = std::size_t{64} << 20;
  live::Cluster cluster(reactor, co);

  SwarmOptions so;
  so.cfg = co.cfg;
  so.port = cluster.seedPort();
  so.clients = 200;
  so.endpointsPerShard = 2;
  so.auditDbResolver = [&cluster](std::uint32_t s) -> const db::Database* {
    return s < cluster.shardCount() ? &cluster.server(s).database() : nullptr;
  };
  SwarmEmulator em(reactor, so);
  em.start();

  bool grown = false;
  bool growDone = false;
  const live::Reactor::TimerHandle tick = reactor.addTimer(0.01, 0.01, [&] {
    if (!em.ready()) return;
    if (!grown && em.modelNow() >= cfg.simTime * 0.3) {
      grown = true;
      cluster.grow(1, [&growDone] { growDone = true; });
    }
    if (growDone && em.modelNow() >= cfg.simTime) {
      em.shutdown();
      reactor.stop();
    }
  });
  reactor.run();
  (void)reactor.cancelTimer(tick);

  EXPECT_TRUE(growDone);
  EXPECT_EQ(cluster.shardCount(), 3u);
  const MuxStats& mux = em.mux().stats();
  EXPECT_EQ(mux.epochSwitches, 1u);
  EXPECT_EQ(em.mux().shardMap().version(), 2u);
  // Four uplinks (TCP) and two IR downlinks heard the announce: even if
  // both datagrams were lost, at least three copies are duplicates.
  EXPECT_GE(mux.staleMapUpdates, 3u);
  EXPECT_EQ(mux.staleMapUpdates + mux.epochSwitches, mux.mapUpdatesHeard);
  EXPECT_EQ(mux.connectionsLost, 0u);
  EXPECT_EQ(em.stats().staleReads, 0u);
  EXPECT_EQ(cluster.staleReads(), 0u);
}

/// What a swarm run through one reshard leaves behind, read before the
/// shutdown closes every connection.
struct ReshardedSwarm {
  MuxStats mux;
  SwarmStats stats;
  std::uint32_t muxShards = 0;
  std::uint32_t clusterShards = 0;
  std::uint64_t clusterStaleReads = 0;
  bool done = false;
  /// Cluster-wide books just before the reshard, and at the end of the
  /// run.
  live::ServerStats before;
  live::ServerStats after;
  /// The highest-indexed starting daemon's books, last read while it still
  /// existed (a shrink destroys it once its grace ends).
  std::uint64_t lastShardAccepted = 0;
  std::uint64_t lastShardClosed = 0;
};

/// A 200-client swarm on `shards` daemons, 2 endpoints each, that runs
/// `reshard(cluster, done)` at 30% of the model run and then runs on to the
/// end.
template <class Reshard>
ReshardedSwarm runSwarmThroughReshard(std::uint32_t shards, Reshard reshard) {
  const core::SimConfig cfg = baseConfig(schemes::SchemeKind::kAaw);
  live::Reactor reactor;
  live::ClusterOptions co;
  co.cfg = cfg;
  co.cfg.numClients = 200;
  co.timeScale = 400.0;
  co.shardCount = shards;
  co.maxSendQueueBytes = std::size_t{64} << 20;
  live::Cluster cluster(reactor, co);

  SwarmOptions so;
  so.cfg = co.cfg;
  so.port = cluster.seedPort();
  so.clients = 200;
  so.endpointsPerShard = 2;
  so.auditDbResolver = [&cluster](std::uint32_t s) -> const db::Database* {
    return s < cluster.shardCount() ? &cluster.server(s).database() : nullptr;
  };
  SwarmEmulator em(reactor, so);
  em.start();

  ReshardedSwarm r;
  bool started = false;
  const live::Reactor::TimerHandle tick = reactor.addTimer(0.01, 0.01, [&] {
    if (!em.ready()) return;
    if (cluster.shardCount() == shards) {
      const live::ServerStats& last = cluster.server(shards - 1).stats();
      r.lastShardAccepted = last.connectionsAccepted;
      r.lastShardClosed = last.connectionsClosed;
    }
    if (!started && em.modelNow() >= cfg.simTime * 0.3) {
      started = true;
      r.before = cluster.totalStats();
      reshard(cluster, [&r] { r.done = true; });
    }
    if (r.done && em.modelNow() >= cfg.simTime) {
      r.after = cluster.totalStats();
      em.shutdown();
      reactor.stop();
    }
  });
  reactor.run();
  (void)reactor.cancelTimer(tick);

  r.mux = em.mux().stats();
  r.stats = em.stats();
  r.muxShards = em.mux().shards();
  r.clusterShards = cluster.shardCount();
  r.clusterStaleReads = cluster.staleReads();
  return r;
}

void expectOneCleanFlip(const ReshardedSwarm& r) {
  EXPECT_TRUE(r.done);
  EXPECT_EQ(r.mux.epochSwitches, 1u);
  EXPECT_EQ(r.mux.staleMapUpdates + r.mux.epochSwitches, r.mux.mapUpdatesHeard);
  EXPECT_EQ(r.muxShards, r.clusterShards);
  EXPECT_EQ(r.mux.connectionsLost, 0u);
  EXPECT_EQ(r.stats.staleReads, 0u);
  EXPECT_EQ(r.clusterStaleReads, 0u);
  EXPECT_GT(r.stats.queriesCompleted, 0u);
}

// A shrink mid-run: the mux retires the removed shard's link. Its downlink
// closes at the flip, and its uplink conns close as soon as their reply
// queues drain, inside the retiring daemon's grace window, so the daemon
// sees both conns close before it is destroyed, and none counts as lost.
TEST(Swarm, ShrinkRetiresTheRemovedShardsConnsOnceTheyDrain) {
  const ReshardedSwarm r = runSwarmThroughReshard(
      3, [](live::Cluster& c, std::function<void()> done) {
        c.shrink(1, std::move(done));
      });
  expectOneCleanFlip(r);
  EXPECT_EQ(r.clusterShards, 2u);
  EXPECT_EQ(r.lastShardAccepted, 2u);
  EXPECT_EQ(r.lastShardClosed, 2u)
      << "the retired shard's conns were still open when its grace ended";
}

// A rebalance keeps every daemon: the mux re-keys its links to the new
// seed's map without retiring or dialing anything. The daemons count only
// welcomed client uplinks, so the backfill channels the rebalance opens
// and closes between them leave both counts where they were.
TEST(Swarm, RebalanceRetiresAndDialsNothing) {
  const ReshardedSwarm r = runSwarmThroughReshard(
      2, [](live::Cluster& c, std::function<void()> done) {
        c.rebalance(std::move(done));
      });
  expectOneCleanFlip(r);
  EXPECT_EQ(r.clusterShards, 2u);
  EXPECT_EQ(r.before.connectionsAccepted, 4u);
  EXPECT_EQ(r.after.handoffFailures, 0u);
  EXPECT_GT(r.after.handoffItemsSent, r.before.handoffItemsSent)
      << "no backfill channel ran; the case is vacuous";
  EXPECT_EQ(r.after.connectionsAccepted, r.before.connectionsAccepted)
      << "the mux dialed during a rebalance";
  EXPECT_EQ(r.after.connectionsClosed, r.before.connectionsClosed)
      << "the mux closed a conn during a rebalance";
}

// Multicast shards: the mux dials the seed before it knows the map, so the
// seed's downlink starts unicast and must be swapped for a group-joined one
// when the map names a group; every other shard's downlink joins at dial.
// Every shard must be heard, by the mux's own per-shard report count.
// Loopback multicast needs kernel support the host may withhold, so a
// failed group join skips rather than fails.
TEST(Swarm, MulticastClusterIsHeardOnEveryShard) {
  const core::SimConfig cfg = baseConfig(schemes::SchemeKind::kAaw);
  live::Reactor reactor;
  live::ClusterOptions co;
  co.cfg = cfg;
  co.cfg.numClients = 200;
  co.timeScale = 400.0;
  co.shardCount = 2;
  co.multicastGroup = "239.255.77.62";
  co.multicastBasePort = 47871;
  std::unique_ptr<live::Cluster> cluster;
  std::unique_ptr<SwarmEmulator> em;
  try {
    cluster = std::make_unique<live::Cluster>(reactor, co);
    SwarmOptions so;
    so.cfg = co.cfg;
    so.port = cluster->seedPort();
    so.clients = 200;
    so.endpointsPerShard = 2;
    so.auditDbs = cluster->auditDbs();
    em = std::make_unique<SwarmEmulator>(reactor, so);
    em->start();
  } catch (const std::runtime_error& e) {
    GTEST_SKIP() << "multicast unavailable here: " << e.what();
  }

  const live::Reactor::TimerHandle tick = reactor.addTimer(0.01, 0.01, [&] {
    if (em->ready() && em->modelNow() >= cfg.simTime) {
      em->shutdown();
      reactor.stop();
    }
  });
  try {
    reactor.run();  // the seed's downlink joins its group at the Welcome
    (void)reactor.cancelTimer(tick);
  } catch (const std::runtime_error& e) {
    GTEST_SKIP() << "multicast unavailable here: " << e.what();
  }

  const MuxStats& mux = em->mux().stats();
  std::uint64_t broadcastSum = 0;
  for (std::uint32_t s = 0; s < cluster->shardCount(); ++s) {
    const std::uint64_t n = cluster->server(s).stats().reportsBroadcast;
    EXPECT_GT(mux.reportsHeardPerShard[s], 0u)
        << "shard " << s << "'s IR never reached the swarm";
    EXPECT_LE(mux.reportsHeardPerShard[s], n) << "shard " << s;
    broadcastSum += n;
  }
  EXPECT_LE(mux.reportsHeard, broadcastSum);
  EXPECT_EQ(mux.connectionsLost, 0u);
  EXPECT_GT(em->stats().queriesCompleted, 0u);
  EXPECT_EQ(em->stats().staleReads, 0u);
  EXPECT_EQ(cluster->staleReads(), 0u);
}

TEST(Swarm, ZipfWorkloadRunsAndSkewsTowardLowRanks) {
  core::SimConfig cfg = baseConfig(schemes::SchemeKind::kAaw);
  cfg.workload = core::WorkloadKind::kUniform;  // replaced by Zipf
  const SwarmRun r = runSwarm(cfg, 400.0, 300, 1, 4, /*zipfTheta=*/0.9);
  expectSound(r);
  // theta = 0.9 concentrates most picks on a cacheable head: the hit
  // ratio must clear what UNIFORM over 500 items could ever deliver
  // (<= capacity/db = 0.1) by a wide margin.
  EXPECT_GT(r.stats.hitRatio(), 0.2);
}

// Rejecting non-adaptive servers must be loud, not a silent misrun.
TEST(Swarm, NonAdaptiveServerIsRejected) {
  core::SimConfig cfg = baseConfig(schemes::SchemeKind::kTs);
  cfg.simTime = 50.0;
  EXPECT_THROW(runSwarm(cfg, 400.0, 10, 1, 1), std::runtime_error);
}

/// A TS report over `sizes` whose entries the caller picks freely: ids
/// up to the id field's width, past the database included.
std::vector<std::uint8_t> tsWire(const report::SizeModel& sizes,
                                 std::vector<db::UpdateRecord> entries,
                                 sim::SimTime now) {
  const report::ReportCodec codec(sizes);
  return codec.encode(*report::TsReport::fromParts(
      report::ReportKind::kTsWindow, sizes, now, now - 100.0,
      std::move(entries)));
}

/// A TS window laid out field by field with no records, so its coverage
/// can start after its broadcast time, which no encoder writes.
std::vector<std::uint8_t> tsHeaderWire(const report::SizeModel& sizes,
                                       sim::SimTime now,
                                       sim::SimTime coverage) {
  const report::ReportCodec codec(sizes);
  report::BitWriter w;
  w.write(0, 2);  // kind: TS
  w.write(0, 1);  // not extended
  w.write(codec.quantize(now), sizes.timestampBits);
  w.write(codec.quantize(coverage), sizes.timestampBits);
  w.write(0, 24);  // record count
  return w.finish();
}

// A forged report reaching a running emulator is counted as unsupported and
// leaves every client column as it was. Two forgeries: an entry id past the
// database (500 items take 9 bits, so a frame can name ids up to 511), and
// coverage that starts after the broadcast time. 128 clients x 500 items
// fill the presence bitmap's words exactly, so a per-entry presence probe
// of id 511 for the last client would read past its end (the asan-ubsan
// lane).
TEST(Swarm, ForgedEntryIdIsRejectedBeforeAnyState) {
  const core::SimConfig cfg = baseConfig(schemes::SchemeKind::kAaw);
  const report::SizeModel sizes = cfg.sizeModel();
  live::Reactor reactor;
  live::ClusterOptions co;
  co.cfg = cfg;
  co.cfg.numClients = 128;
  co.timeScale = 400.0;
  live::Cluster cluster(reactor, co);

  SwarmOptions so;
  so.cfg = co.cfg;
  so.port = cluster.seedPort();
  so.clients = 128;
  so.endpointsPerShard = 1;
  so.auditDbs = cluster.auditDbs();
  SwarmEmulator em(reactor, so);
  em.start();

  bool injected = false;
  const live::Reactor::TimerHandle tick = reactor.addTimer(0.01, 0.01, [&] {
    if (!em.ready() || em.modelNow() < 100.0) return;
    if (!injected) {
      injected = true;
      const double now = em.modelNow();
      for (const std::vector<std::uint8_t>& wire :
           {tsWire(sizes, {{3, now}, {511, now}}, now),
            tsHeaderWire(sizes, now, now + 4.0)}) {
        const SwarmStats before = em.stats();
        const SwarmState snapshot = em.state();
        em.onReportPayload(0, wire);
        EXPECT_EQ(em.stats().unsupportedReports,
                  before.unsupportedReports + 1);
        EXPECT_EQ(em.stats().reportsProcessed, before.reportsProcessed);
        EXPECT_EQ(em.stats().clientTicks, before.clientTicks);
        EXPECT_EQ(em.state().slotItem, snapshot.slotItem);
        EXPECT_EQ(em.state().slotRef, snapshot.slotRef);
        EXPECT_EQ(em.state().lastHeard, snapshot.lastHeard);
        EXPECT_EQ(em.state().occupancy, snapshot.occupancy);
      }
    }
    if (em.modelNow() >= 300.0) {
      em.shutdown();
      reactor.stop();
    }
  });
  reactor.run();
  (void)reactor.cancelTimer(tick);
  EXPECT_TRUE(injected);
  // The run goes on sound after the refusal.
  EXPECT_EQ(em.stats().staleReads, 0u);
  EXPECT_EQ(cluster.staleReads(), 0u);
  EXPECT_GT(em.stats().queriesCompleted, 0u);
}

/// A sink that records every fetch reply and every prefetch hint, and
/// queues `fetches` fetches for clients 0..fetches-1 on one endpoint once
/// the mux is ready.
class RecordingSink final : public SwarmSink {
 public:
  struct Hint {
    std::size_t repliesBefore = 0;  ///< replies delivered when it was hinted
    std::uint32_t client = 0;
    db::ItemId item = 0;
  };

  RecordingSink(live::Reactor& reactor, std::uint32_t fetches)
      : reactor_(reactor), fetches_(fetches) {}

  void attach(UplinkMux& mux) { mux_ = &mux; }

  static db::ItemId itemFor(std::uint32_t client) {
    return (7 * client + 3) % 500;
  }

  void onWelcome(const live::wire::Welcome&) override {}
  void onMuxReady() override {
    for (std::uint32_t c = 0; c < fetches_; ++c) {
      mux_->queueFetch(0, c, itemFor(c), /*tick=*/0);
    }
    mux_->flushFetches();
  }
  void onReportPayload(std::uint32_t,
                       std::span<const std::uint8_t>) override {}
  void onDataItem(std::uint32_t, std::uint32_t client, db::ItemId item,
                  db::Version, Tick, Tick) override {
    replies.emplace_back(client, item);
    if (replies.size() == fetches_) reactor_.stop();
  }
  void prefetchDataItem(std::uint32_t client, db::ItemId item) const override {
    hints.push_back({replies.size(), client, item});
  }
  void onCheckAck(std::uint32_t, std::uint32_t, Tick) override {}
  void onConnectionLost(std::uint32_t) override { reactor_.stop(); }

  std::vector<std::pair<std::uint32_t, db::ItemId>> replies;
  mutable std::vector<Hint> hints;

 private:
  live::Reactor& reactor_;
  std::uint32_t fetches_;
  UplinkMux* mux_ = nullptr;
};

// Replies on one connection come back in request order, so the mux can name
// the reply kPrefetchDistance ahead of the one it is handling: every hint
// must be exactly that reply, and the hints stop once fewer are queued.
TEST(SwarmMux, PrefetchHintsNameTheReplyTheDistanceAhead) {
  constexpr std::size_t kDistance = UplinkMux::kPrefetchDistance;
  constexpr auto kFetches = static_cast<std::uint32_t>(kDistance + 10);
  core::SimConfig cfg = baseConfig(schemes::SchemeKind::kAaw);
  live::Reactor reactor;
  live::ClusterOptions co;
  co.cfg = cfg;
  co.timeScale = 400.0;
  live::Cluster cluster(reactor, co);

  RecordingSink sink(reactor, kFetches);
  UplinkMux::Options mo;
  mo.port = cluster.seedPort();
  mo.endpointsPerShard = 1;  // every fetch on the one endpoint
  UplinkMux mux(reactor, sink, mo);
  sink.attach(mux);
  mux.connect();
  const live::Reactor::TimerHandle guard =
      reactor.addTimer(10.0, 0, [&] { reactor.stop(); });
  reactor.run();
  (void)reactor.cancelTimer(guard);
  mux.shutdown();

  ASSERT_EQ(sink.replies.size(), kFetches) << "not every fetch came back";
  for (std::uint32_t c = 0; c < kFetches; ++c) {
    EXPECT_EQ(sink.replies[c].first, c);
    EXPECT_EQ(sink.replies[c].second, RecordingSink::itemFor(c));
  }
  ASSERT_EQ(sink.hints.size(), kFetches - kDistance)
      << "one hint per reply while more than the distance are queued";
  for (std::size_t k = 0; k < sink.hints.size(); ++k) {
    const RecordingSink::Hint& h = sink.hints[k];
    EXPECT_EQ(h.repliesBefore, k) << "hint " << k << " out of order";
    const std::size_t target = h.repliesBefore + kDistance;
    ASSERT_LT(target, sink.replies.size());
    EXPECT_EQ(h.client, sink.replies[target].first) << "hint " << k;
    EXPECT_EQ(h.item, sink.replies[target].second) << "hint " << k;
  }
}

/// A one-shard daemon stand-in on a raw listening socket: it welcomes the
/// mux's one connection, takes its kQueryRequest, and answers with whatever
/// kDataItem payload a test forges.
class ForgingShard {
 public:
  explicit ForgingShard(live::Reactor& reactor) : reactor_(reactor) {
    listenFd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    EXPECT_GE(listenFd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(
        ::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
    EXPECT_EQ(::listen(listenFd_, 1), 0);
    socklen_t len = sizeof addr;
    EXPECT_EQ(
        ::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    port_ = ntohs(addr.sin_port);
  }
  ~ForgingShard() {
    if (fd_ >= 0) ::close(fd_);
    ::close(listenFd_);
  }
  ForgingShard(const ForgingShard&) = delete;
  ForgingShard& operator=(const ForgingShard&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Accepts the mux's dial, reads its Hello and welcomes it into a
  /// one-shard cluster of this socket.
  void welcome() {
    fd_ = ::accept4(listenFd_, nullptr, nullptr, SOCK_CLOEXEC);
    ASSERT_GE(fd_, 0);
    ASSERT_TRUE(readFrame().has_value()) << "no Hello";
    live::wire::Welcome w;
    w.scheme = static_cast<std::uint8_t>(schemes::SchemeKind::kAaw);
    w.dbSize = 500;
    w.shardMap = live::ShardMap::single(
        live::ShardEndpoint{.ipv4 = 0x7F000001u, .tcpPort = port_});
    send(live::wire::FrameType::kWelcome,
         live::wire::wiretest::encoded(live::wire::encodeWelcomeInto, w));
  }

  /// Drives the mux until one whole frame arrives from it. The view is
  /// valid until the next readFrame().
  std::optional<live::wire::FrameView> readFrame() {
    std::uint8_t buf[4096];
    for (int round = 0; round < 10'000; ++round) {
      if (std::optional<live::wire::FrameView> f = in_.next()) return f;
      if (round > 0) reactor_.runOnce(1);
      for (ssize_t n; (n = ::recv(fd_, buf, sizeof buf, MSG_DONTWAIT)) > 0;) {
        in_.append(buf, static_cast<std::size_t>(n));
      }
    }
    return std::nullopt;
  }

  void send(live::wire::FrameType type,
            const std::vector<std::uint8_t>& payload) {
    const std::vector<std::uint8_t> frame = live::wire::wiretest::framed(
        type, live::wire::kNoScheme, net::TrafficClass::kBulk, payload);
    EXPECT_EQ(::send(fd_, frame.data(), frame.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(frame.size()));
  }

 private:
  live::Reactor& reactor_;
  int listenFd_ = -1;
  int fd_ = -1;
  std::uint16_t port_ = 0;
  live::wire::FrameBuffer in_;
};

/// What a mux with `fetches` outstanding made of one forged reply payload.
struct ForgedReplyRun {
  std::vector<std::pair<std::uint32_t, db::ItemId>> replies;
  MuxStats stats;
};

ForgedReplyRun runForgedReply(std::uint32_t fetches,
                              const std::vector<std::uint8_t>& payload) {
  live::Reactor reactor;
  ForgingShard shard(reactor);
  RecordingSink sink(reactor, fetches);
  UplinkMux::Options mo;
  mo.port = shard.port();
  mo.endpointsPerShard = 1;
  UplinkMux mux(reactor, sink, mo);
  sink.attach(mux);
  mux.connect();
  shard.welcome();
  const std::optional<live::wire::FrameView> query = shard.readFrame();
  EXPECT_TRUE(query.has_value()) << "the mux sent no query";
  if (query) {
    EXPECT_EQ(query->header.type, live::wire::FrameType::kQueryRequest);
    shard.send(live::wire::FrameType::kDataItem, payload);
  }
  const live::Reactor::TimerHandle guard =
      reactor.addTimer(2.0, 0, [&] { reactor.stop(); });
  reactor.run();  // until every fetch came back, the conn died, or 2 s
  (void)reactor.cancelTimer(guard);
  ForgedReplyRun r{sink.replies, mux.stats()};
  mux.shutdown();
  return r;
}

/// A reply payload of `records` records answering clients 0, 1, ... of a
/// RecordingSink in order.
std::vector<std::uint8_t> replyPayload(std::uint32_t records) {
  std::vector<std::uint8_t> payload;
  report::BitWriter w(payload);
  live::wire::encodeDataItemInto(
      {.item = RecordingSink::itemFor(0), .version = 1, .readTime = 1.0}, w);
  for (std::uint32_t c = 1; c < records; ++c) {
    live::wire::encodeDataItemNextInto(
        {.item = RecordingSink::itemFor(c), .version = 1}, w);
  }
  return payload;
}

// The control: a reply frame answering exactly the outstanding fetches is
// applied record by record, in order.
TEST(SwarmMux, ReplyFrameAnsweringTheOutstandingFetchesIsApplied) {
  const ForgedReplyRun r = runForgedReply(3, replyPayload(3));
  ASSERT_EQ(r.replies.size(), 3u);
  for (std::uint32_t c = 0; c < 3; ++c) {
    EXPECT_EQ(r.replies[c].first, c);
    EXPECT_EQ(r.replies[c].second, RecordingSink::itemFor(c));
  }
  EXPECT_EQ(r.stats.dataItemFrames, 1u);
  EXPECT_EQ(r.stats.dataItems, 3u);
  EXPECT_EQ(r.stats.badFrames, 0u);
  EXPECT_EQ(r.stats.connectionsLost, 0u);
}

// A forged frame answering more fetches than are outstanding is refused
// whole: a bad frame, the conn dropped, and not one record applied (ASan
// and UBSan builds check that nothing reads past the FIFO either).
TEST(SwarmMux, ReplyFrameWithMoreRecordsThanFetchesIsRefusedWhole) {
  const ForgedReplyRun r = runForgedReply(2, replyPayload(3));
  EXPECT_TRUE(r.replies.empty()) << "a record was applied";
  EXPECT_EQ(r.stats.dataItems, 0u);
  EXPECT_EQ(r.stats.dataItemFrames, 0u);
  EXPECT_EQ(r.stats.badFrames, 1u);
  EXPECT_EQ(r.stats.connectionsLost, 1u);
}

// A payload that is not 16 + 8k bytes cannot say how many fetches it
// answers: refused the same way.
TEST(SwarmMux, ReplyFrameWithAPartialRecordIsRefusedWhole) {
  std::vector<std::uint8_t> payload = replyPayload(2);
  payload.resize(payload.size() + 4);
  const ForgedReplyRun r = runForgedReply(3, payload);
  EXPECT_TRUE(r.replies.empty()) << "a record was applied";
  EXPECT_EQ(r.stats.badFrames, 1u);
  EXPECT_EQ(r.stats.connectionsLost, 1u);
}

// The engine's hint must be safe for a client or an owner shard its state
// does not have (mid-reshard the map can run ahead of the state): it skips
// them and writes nothing. The engine is configured for one shard while
// its mux joins a two-shard cluster, so half the items hash to a shard the
// state lacks. ASan/UBSan builds check the "safe" part.
TEST(Swarm, PrefetchHintIsBoundsSafeAndWritesNothing) {
  core::SimConfig cfg = baseConfig(schemes::SchemeKind::kAaw);
  cfg.broadcastPeriod = 100.0;  // no report reaches the mismatched state
  constexpr std::uint32_t kClients = 16;
  live::Reactor reactor;
  live::ClusterOptions co;
  co.cfg = cfg;
  co.cfg.numClients = kClients;
  co.timeScale = 1.0;
  co.shardCount = 2;
  live::Cluster cluster(reactor, co);

  SwarmOptions so;
  so.cfg = cfg;
  so.port = cluster.seedPort();
  so.clients = kClients;
  so.endpointsPerShard = 1;
  SwarmEmulator em(reactor, so);
  live::wire::Welcome w;
  w.scheme = static_cast<std::uint8_t>(schemes::SchemeKind::kAaw);
  w.dbSize = cfg.dbSize;
  w.numClients = kClients;
  w.cacheCapacity = 50;
  w.broadcastPeriod = cfg.broadcastPeriod;
  w.windowIntervals = 10;
  w.shardMap = live::ShardMap::single(cluster.shardMap().endpoint(0));
  em.onWelcome(w);  // state for one shard; the mux learns two
  em.start();
  const live::Reactor::TimerHandle poll = reactor.addTimer(0.001, 0.001, [&] {
    if (em.mux().shardMap().valid()) reactor.stop();
  });
  const live::Reactor::TimerHandle guard =
      reactor.addTimer(10.0, 0, [&] { reactor.stop(); });
  reactor.run();
  (void)reactor.cancelTimer(poll);
  (void)reactor.cancelTimer(guard);

  const live::ShardMap& map = em.mux().shardMap();
  ASSERT_EQ(map.shardCount(), 2u);
  ASSERT_EQ(em.state().shards, 1u);
  std::vector<db::ItemId> owner0;
  std::vector<db::ItemId> owner1;
  for (db::ItemId item = 0; item < cfg.dbSize; ++item) {
    (map.shardOf(item) == 0 ? owner0 : owner1).push_back(item);
  }
  ASSERT_FALSE(owner0.empty());
  ASSERT_FALSE(owner1.empty());

  const SwarmState before = em.state();
  for (const std::uint32_t client :
       {0u, kClients - 1, kClients, ~std::uint32_t{0}}) {
    for (const db::ItemId item :
         {owner0.front(), owner0.back(), owner1.front(), owner1.back(),
          static_cast<db::ItemId>(cfg.dbSize), ~db::ItemId{0}}) {
      em.prefetchDataItem(client, item);
    }
  }
  const SwarmState& after = em.state();
  EXPECT_EQ(after.lastHeard, before.lastHeard);
  EXPECT_EQ(after.occupancy, before.occupancy);
  EXPECT_EQ(after.clockHand, before.clockHand);
  EXPECT_EQ(after.slotItem, before.slotItem);
  EXPECT_EQ(after.needAnswer, before.needAnswer);
  EXPECT_EQ(after.phase, before.phase);
  em.shutdown();
}

}  // namespace
}  // namespace mci::swarm
