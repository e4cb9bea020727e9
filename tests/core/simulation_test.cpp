#include "core/simulation.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace mci::core {
namespace {

SimConfig smallConfig(schemes::SchemeKind scheme) {
  SimConfig cfg;
  cfg.scheme = scheme;
  cfg.simTime = 5000.0;
  cfg.numClients = 20;
  cfg.dbSize = 500;
  cfg.clientBufferFrac = 0.02;
  cfg.seed = 11;
  return cfg;
}

class AllSchemesTest
    : public ::testing::TestWithParam<schemes::SchemeKind> {};

TEST_P(AllSchemesTest, RunsCleanlyAndAnswersQueries) {
  Simulation sim(smallConfig(GetParam()));
  const metrics::SimResult r = sim.run();
  EXPECT_GT(r.queriesCompleted, 0u);
  EXPECT_EQ(r.staleReads, 0u);
  EXPECT_EQ(r.cacheHits + r.cacheMisses, r.itemsReferenced);
  EXPECT_GT(r.downlink.irCount, 0u);
  EXPECT_DOUBLE_EQ(r.simTime, 5000.0);
  EXPECT_GE(r.avgQueryLatency, 0.0);
}

TEST_P(AllSchemesTest, DeterministicForSameSeed) {
  const auto cfg = smallConfig(GetParam());
  const auto a = Simulation(cfg).run();
  const auto b = Simulation(cfg).run();
  EXPECT_EQ(a.queriesCompleted, b.queriesCompleted);
  EXPECT_EQ(a.cacheHits, b.cacheHits);
  EXPECT_EQ(a.invalidations, b.invalidations);
  EXPECT_DOUBLE_EQ(a.uplink.controlBits, b.uplink.controlBits);
  EXPECT_DOUBLE_EQ(a.downlink.totalBits(), b.downlink.totalBits());
}

TEST_P(AllSchemesTest, DifferentSeedsDiffer) {
  auto cfg = smallConfig(GetParam());
  const auto a = Simulation(cfg).run();
  cfg.seed = 12;
  const auto b = Simulation(cfg).run();
  EXPECT_NE(a.queriesCompleted, b.queriesCompleted);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, AllSchemesTest, ::testing::ValuesIn(schemes::kAllSchemes),
    [](const ::testing::TestParamInfo<schemes::SchemeKind>& paramInfo) {
      std::string name = schemes::schemeName(paramInfo.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(Simulation, BsNeverUsesTheUplinkForChecks) {
  Simulation sim(smallConfig(schemes::SchemeKind::kBs));
  const auto r = sim.run();
  EXPECT_DOUBLE_EQ(r.uplink.controlBits, 0.0);
  EXPECT_EQ(r.checksSent, 0u);
  // Every broadcast is a BS report (the one built at the horizon may not
  // finish delivering).
  EXPECT_GE(r.reportsBs, r.downlink.irCount);
  EXPECT_LE(r.reportsBs, r.downlink.irCount + 1);
}

TEST(Simulation, TsCheckingSpendsTheMostUplink) {
  const auto bs = Simulation(smallConfig(schemes::SchemeKind::kBs)).run();
  const auto aaw = Simulation(smallConfig(schemes::SchemeKind::kAaw)).run();
  const auto check =
      Simulation(smallConfig(schemes::SchemeKind::kTsChecking)).run();
  EXPECT_GT(check.uplinkCheckBitsPerQuery(), aaw.uplinkCheckBitsPerQuery());
  EXPECT_GT(aaw.uplinkCheckBitsPerQuery(), bs.uplinkCheckBitsPerQuery());
}

TEST(Simulation, AdaptiveServersMixReportKinds) {
  const auto afw = Simulation(smallConfig(schemes::SchemeKind::kAfw)).run();
  EXPECT_GT(afw.reportsTs, 0u);
  EXPECT_GT(afw.reportsBs, 0u);  // someone needed help in 5000 s
  EXPECT_EQ(afw.reportsExtended, 0u);

  const auto aaw = Simulation(smallConfig(schemes::SchemeKind::kAaw)).run();
  EXPECT_GT(aaw.reportsTs, 0u);
  EXPECT_GT(aaw.reportsExtended + aaw.reportsBs, 0u);
}

TEST(Simulation, ReportsAreBroadcastEveryPeriod) {
  auto cfg = smallConfig(schemes::SchemeKind::kTs);
  cfg.simTime = 1000.0;
  Simulation sim(cfg);
  sim.runUntil(1000.0);
  // L = 20: reports at 20, 40, ..., 1000 -> 50 built.
  EXPECT_EQ(sim.server().reportsBroadcast(), 50u);
}

TEST(Simulation, NoDisconnectionsWhenProbabilityIsZero) {
  auto cfg = smallConfig(schemes::SchemeKind::kAaw);
  cfg.disconnectProb = 0.0;
  const auto r = Simulation(cfg).run();
  EXPECT_EQ(r.disconnects, 0u);
  EXPECT_DOUBLE_EQ(r.dozeSeconds, 0.0);
  // Nobody ever misses a report, so nobody asks for help.
  EXPECT_EQ(r.checksSent, 0u);
  EXPECT_EQ(r.reportsBs, 0u);
}

TEST(Simulation, DisconnectionsHappenAndAreAccounted) {
  auto cfg = smallConfig(schemes::SchemeKind::kAaw);
  cfg.disconnectProb = 0.5;
  const auto r = Simulation(cfg).run();
  EXPECT_GT(r.disconnects, 0u);
  EXPECT_GT(r.dozeSeconds, 0.0);
}

TEST(Simulation, PostQueryDisconnectModelWorks) {
  auto cfg = smallConfig(schemes::SchemeKind::kAaw);
  cfg.disconnectModel = workload::DisconnectModel::kPostQuery;
  cfg.disconnectProb = 0.3;
  const auto r = Simulation(cfg).run();
  EXPECT_GT(r.disconnects, 0u);
  EXPECT_EQ(r.staleReads, 0u);
  EXPECT_GT(r.queriesCompleted, 0u);
}

TEST(Simulation, HotColdWorkloadGetsHigherHitRatioThanUniform) {
  auto cfg = smallConfig(schemes::SchemeKind::kAaw);
  cfg.simTime = 20000.0;
  cfg.dbSize = 2000;
  cfg.hotQuery = {0, 100, 0.8};
  cfg.workload = WorkloadKind::kUniform;
  const auto uniform = Simulation(cfg).run();
  cfg.workload = WorkloadKind::kHotCold;
  const auto hotcold = Simulation(cfg).run();
  EXPECT_GT(hotcold.hitRatio(), uniform.hitRatio() + 0.05);
}

TEST(Simulation, MultiItemQueriesAreSupported) {
  auto cfg = smallConfig(schemes::SchemeKind::kAaw);
  cfg.meanItemsPerQuery = 10.0;
  const auto r = Simulation(cfg).run();
  EXPECT_EQ(r.staleReads, 0u);
  EXPECT_GT(r.itemsReferenced, 5 * r.queriesCompleted);
}

TEST(Simulation, SnapshotTracksPartialProgress) {
  Simulation sim(smallConfig(schemes::SchemeKind::kAaw));
  sim.runUntil(1000.0);
  const auto early = sim.snapshot();
  sim.runUntil(5000.0);
  const auto late = sim.snapshot();
  EXPECT_LT(early.queriesCompleted, late.queriesCompleted);
}

// The channel decomposition comes from the simulation's own network (the
// collector knows none): without a warm-up it is exactly the network's
// usage so far.
TEST(Simulation, SnapshotCarriesTheNetworksChannelUsage) {
  Simulation sim(smallConfig(schemes::SchemeKind::kAaw));
  sim.runUntil(1000.0);
  const auto r = sim.snapshot();
  EXPECT_GT(r.downlink.irBits, 0.0);
  EXPECT_GT(r.uplink.controlBits, 0.0);
  EXPECT_DOUBLE_EQ(r.downlink.irBits, sim.network().downlinkUsage().irBits);
  EXPECT_DOUBLE_EQ(r.uplink.controlBits,
                   sim.network().uplinkUsage().controlBits);
  EXPECT_DOUBLE_EQ(r.uplinkCheckBitsPerQuery(),
                   sim.network().uplinkUsage().controlBits /
                       static_cast<double>(r.queriesCompleted));
}

TEST(Simulation, UpdatesPropagateIntoTheDatabase) {
  Simulation sim(smallConfig(schemes::SchemeKind::kTs));
  sim.runUntil(5000.0);
  // ~50 transactions * ~5 items each.
  EXPECT_GT(sim.database().totalUpdates(), 100u);
  EXPECT_GT(sim.history().distinctUpdated(), 50u);
}

TEST(Simulation, SigSchemeRunsWithCustomParameters) {
  auto cfg = smallConfig(schemes::SchemeKind::kSig);
  cfg.sigSubsets = 64;
  cfg.sigPerItem = 3;
  const auto r = Simulation(cfg).run();
  EXPECT_EQ(r.staleReads, 0u);
  EXPECT_GE(r.reportsSig, r.downlink.irCount);
  EXPECT_LE(r.reportsSig, r.downlink.irCount + 1);
  EXPECT_DOUBLE_EQ(r.uplink.controlBits, 0.0);  // SIG is pure broadcast
}

TEST(Simulation, DedicatedDataChannelsRelieveTheBroadcastChannel) {
  auto cfg = smallConfig(schemes::SchemeKind::kBs);
  cfg.dbSize = 2000;  // fat BS reports
  cfg.simTime = 10000.0;
  const auto shared = Simulation(cfg).run();
  cfg.dataChannelBps = {cfg.downlinkBps};  // extra dedicated capacity
  const auto split = Simulation(cfg).run();
  EXPECT_EQ(split.staleReads, 0u);
  // Data moved off the broadcast channel entirely...
  EXPECT_DOUBLE_EQ(split.downlink.bulkBits, 0.0);
  EXPECT_GT(split.dataChannels.bulkBits, 0.0);
  // ...and the added capacity buys throughput.
  EXPECT_GT(split.queriesCompleted, shared.queriesCompleted);
}

TEST(Simulation, SingleChannelHasNoDataChannelUsage) {
  const auto r = Simulation(smallConfig(schemes::SchemeKind::kAaw)).run();
  EXPECT_DOUBLE_EQ(r.dataChannels.totalBits(), 0.0);
}

TEST(Simulation, RadioBitsAreAccounted) {
  const auto r = Simulation(smallConfig(schemes::SchemeKind::kAaw)).run();
  // Clients heard reports (rx) and sent query requests (tx).
  EXPECT_GT(r.clientRxBits, 0.0);
  EXPECT_GT(r.clientTxBits, 0.0);
  // Everything clients transmitted crossed the uplink (delivered bits can
  // lag the in-flight tail at the horizon).
  EXPECT_GE(r.clientTxBits + 1e-9, r.uplink.totalBits());
  EXPECT_GT(r.energyPerQueryJoules(), 0.0);
}

TEST(Simulation, HeterogeneityWidensTheClientSpread) {
  auto cfg = smallConfig(schemes::SchemeKind::kAaw);
  cfg.simTime = 20000.0;
  cfg.disconnectProb = 0.0;  // isolate the think-time spread
  const auto uniform = Simulation(cfg).run();
  cfg.clientHeterogeneity = 0.9;
  const auto varied = Simulation(cfg).run();
  EXPECT_EQ(varied.staleReads, 0u);
  // Fairness over per-client query counts degrades with heterogeneity.
  EXPECT_LT(varied.clients.fairness, uniform.clients.fairness);
  const double spreadU = uniform.clients.maxQueries - uniform.clients.minQueries;
  const double spreadV = varied.clients.maxQueries - varied.clients.minQueries;
  EXPECT_GT(spreadV, spreadU);
}

TEST(Simulation, HeterogeneityValidation) {
  auto cfg = smallConfig(schemes::SchemeKind::kAaw);
  cfg.clientHeterogeneity = 1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Simulation, WarmupExcludesTheColdStartTransient) {
  auto cfg = smallConfig(schemes::SchemeKind::kAaw);
  cfg.simTime = 6000.0;
  const auto cold = Simulation(cfg).run();
  cfg.warmupTime = 3000.0;
  const auto warm = Simulation(cfg).run();
  // Measured horizon halves; counts drop accordingly.
  EXPECT_DOUBLE_EQ(warm.simTime, 3000.0);
  EXPECT_LT(warm.queriesCompleted, cold.queriesCompleted);
  EXPECT_GT(warm.queriesCompleted, 0u);
  // Channel usage was baselined: the measured IR count is roughly half.
  EXPECT_LT(warm.downlink.irCount, cold.downlink.irCount);
  EXPECT_NEAR(static_cast<double>(warm.downlink.irCount),
              static_cast<double>(cold.downlink.irCount) / 2.0, 3.0);
  // The warm cache serves a hit ratio at least as good as the cold run.
  EXPECT_GE(warm.hitRatio() + 0.02, cold.hitRatio());
  EXPECT_EQ(warm.staleReads, 0u);
}

TEST(Simulation, WarmupValidation) {
  auto cfg = smallConfig(schemes::SchemeKind::kAaw);
  cfg.warmupTime = cfg.simTime;  // must be strictly inside the horizon
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Simulation, LatencyPercentilesAreOrdered) {
  const auto r = Simulation(smallConfig(schemes::SchemeKind::kAaw)).run();
  EXPECT_GT(r.p50QueryLatency, 0.0);
  EXPECT_LE(r.p50QueryLatency, r.p95QueryLatency);
  EXPECT_LE(r.p95QueryLatency, r.maxQueryLatency + 10.0);  // histogram bin slack
}

TEST(Simulation, ClientSpreadIsPopulated) {
  const auto r = Simulation(smallConfig(schemes::SchemeKind::kAaw)).run();
  EXPECT_GT(r.clients.meanQueries, 0.0);
  EXPECT_LE(r.clients.minQueries, r.clients.meanQueries);
  EXPECT_GE(r.clients.maxQueries, r.clients.meanQueries);
  EXPECT_GT(r.clients.fairness, 0.2);
  EXPECT_LE(r.clients.fairness, 1.0 + 1e-12);
  // Mean per-client queries times population equals the total.
  EXPECT_NEAR(r.clients.meanQueries * 20.0,
              static_cast<double>(r.queriesCompleted), 1e-6);
}

TEST(Simulation, GcoreGroupSizeIsConfigurable) {
  auto cfg = smallConfig(schemes::SchemeKind::kGcore);
  cfg.gcoreGroupSize = 8;
  const auto fine = Simulation(cfg).run();
  EXPECT_EQ(fine.staleReads, 0u);
  EXPECT_GT(fine.queriesCompleted, 0u);
  cfg.gcoreGroupSize = 250;  // half the database per group
  const auto coarse = Simulation(cfg).run();
  EXPECT_EQ(coarse.staleReads, 0u);
  // Coarser groups -> smaller checks but more collateral invalidations.
  EXPECT_LE(coarse.uplink.controlBits, fine.uplink.controlBits + 1e9);
}

TEST(Simulation, AsymmetricUplinkSlowsButStaysCorrect) {
  auto cfg = smallConfig(schemes::SchemeKind::kTsChecking);
  cfg.uplinkBps = 100.0;  // 1% of downlink
  const auto slow = Simulation(cfg).run();
  cfg.uplinkBps = 10000.0;
  const auto fast = Simulation(cfg).run();
  EXPECT_EQ(slow.staleReads, 0u);
  EXPECT_LT(slow.queriesCompleted, fast.queriesCompleted);
}

}  // namespace
}  // namespace mci::core
