#include "metrics/collector.hpp"

#include <gtest/gtest.h>


namespace mci::metrics {
namespace {

struct Fixture {
  db::Database db{100};
  Collector collector{&db, /*auditStaleReads=*/false};
};

TEST(Collector, CountsQueryLifecycle) {
  Fixture f;
  f.collector.onCacheAnswer(0, 1, 0, 10.0);
  f.collector.onCacheMiss(0);
  f.collector.onCacheMiss(0);
  f.collector.onQueryCompleted(0, 3.0);
  f.collector.onQueryCompleted(0, 5.0);
  const auto r = f.collector.finalize(100.0);
  EXPECT_EQ(r.queriesCompleted, 2u);
  EXPECT_EQ(r.cacheHits, 1u);
  EXPECT_EQ(r.cacheMisses, 2u);
  EXPECT_EQ(r.itemsReferenced, 3u);
  EXPECT_DOUBLE_EQ(r.avgQueryLatency, 4.0);
  EXPECT_DOUBLE_EQ(r.maxQueryLatency, 5.0);
  EXPECT_NEAR(r.hitRatio(), 1.0 / 3.0, 1e-12);
}

TEST(Collector, ClassifiesFalseInvalidations) {
  Fixture f;
  f.db.applyUpdate(3, 10.0);  // version 1
  // Invalidating version 1 while current is 1: the copy was still good.
  f.collector.onInvalidate(0, 3, 1);
  // Invalidating version 0: genuinely stale.
  f.collector.onInvalidate(0, 3, 0);
  const auto r = f.collector.finalize(100.0);
  EXPECT_EQ(r.invalidations, 2u);
  EXPECT_EQ(r.falseInvalidations, 1u);
}

TEST(Collector, DetectsStaleReads) {
  Fixture f;
  f.db.applyUpdate(5, 10.0);
  f.collector.onCacheAnswer(0, 5, 0, /*validAsOf=*/20.0);  // v0 after update
  EXPECT_EQ(f.collector.staleReads(), 1u);
  // A copy at (or above) the consistency-point version is fine.
  f.collector.onCacheAnswer(0, 5, 1, 20.0);
  EXPECT_EQ(f.collector.staleReads(), 1u);
  // Updates after the consistency point are invisible by design.
  f.db.applyUpdate(5, 30.0);
  f.collector.onCacheAnswer(0, 5, 1, 20.0);
  EXPECT_EQ(f.collector.staleReads(), 1u);
}

TEST(Collector, TracksDropsAndSalvages) {
  Fixture f;
  f.collector.onCacheDrop(0, 10);
  f.collector.onCacheDrop(1, 3);
  f.collector.onSalvage(0, 7);
  const auto r = f.collector.finalize(100.0);
  EXPECT_EQ(r.cacheDropEvents, 2u);
  EXPECT_EQ(r.entriesDropped, 13u);
  EXPECT_EQ(r.entriesSalvaged, 7u);
}

TEST(Collector, CountsReportKinds) {
  Fixture f;
  f.collector.onReportBuilt(report::ReportKind::kTsWindow);
  f.collector.onReportBuilt(report::ReportKind::kTsWindow);
  f.collector.onReportBuilt(report::ReportKind::kTsExtended);
  f.collector.onReportBuilt(report::ReportKind::kBitSeq);
  f.collector.onReportBuilt(report::ReportKind::kSignature);
  const auto r = f.collector.finalize(100.0);
  EXPECT_EQ(r.reportsTs, 2u);
  EXPECT_EQ(r.reportsExtended, 1u);
  EXPECT_EQ(r.reportsBs, 1u);
  EXPECT_EQ(r.reportsSig, 1u);
}

TEST(Collector, DisconnectionAccounting) {
  Fixture f;
  f.collector.onDisconnect();
  f.collector.onReconnect(400.0);
  f.collector.onDisconnect();
  f.collector.onReconnect(100.0);
  const auto r = f.collector.finalize(100.0);
  EXPECT_EQ(r.disconnects, 2u);
  EXPECT_DOUBLE_EQ(r.dozeSeconds, 500.0);
}

// The collector knows no network: channel usage is filled in by whoever
// owns one (core::Simulation), and stays zero for a live client pool.
TEST(Collector, FinalizeLeavesChannelUsageToTheNetworkOwner) {
  Fixture f;
  f.collector.onCheckSent();
  f.collector.onQueryCompleted(0, 1.0);
  const auto r = f.collector.finalize(200.0);
  EXPECT_EQ(r.checksSent, 1u);
  EXPECT_DOUBLE_EQ(r.simTime, 200.0);
  EXPECT_DOUBLE_EQ(r.uplink.totalBits(), 0.0);
  EXPECT_DOUBLE_EQ(r.downlink.totalBits(), 0.0);
}

// Without a ground-truth database nothing is audited or classified.
TEST(Collector, NullDatabaseMeansNoGroundTruth) {
  Collector collector(nullptr, /*auditStaleReads=*/true);
  collector.onCacheAnswer(0, 5, 0, /*validAsOf=*/20.0);
  collector.onInvalidate(0, 5, 0);
  const auto r = collector.finalize(100.0);
  EXPECT_EQ(r.cacheHits, 1u);
  EXPECT_EQ(r.staleReads, 0u);
  EXPECT_EQ(r.invalidations, 1u);
  EXPECT_EQ(r.falseInvalidations, 0u);
}

TEST(Collector, ClientSpreadSummarizesThePopulation) {
  Fixture f;
  f.collector.setClientCount(3);
  // Client 0: 4 queries, 3 hits / 1 miss. Client 1: 2 queries, all misses.
  // Client 2: idle.
  for (int i = 0; i < 3; ++i) f.collector.onCacheAnswer(0, 1, 0, 0.0);
  f.collector.onCacheMiss(0);
  for (int i = 0; i < 4; ++i) f.collector.onQueryCompleted(0, 1.0);
  f.collector.onCacheMiss(1);
  f.collector.onCacheMiss(1);
  f.collector.onQueryCompleted(1, 1.0);
  f.collector.onQueryCompleted(1, 1.0);
  const auto r = f.collector.finalize(100.0);
  EXPECT_DOUBLE_EQ(r.clients.minQueries, 0.0);
  EXPECT_DOUBLE_EQ(r.clients.maxQueries, 4.0);
  EXPECT_DOUBLE_EQ(r.clients.meanQueries, 2.0);
  // Jain: (6)^2 / (3 * (16+4+0)) = 36/60 = 0.6
  EXPECT_NEAR(r.clients.fairness, 0.6, 1e-12);
  EXPECT_DOUBLE_EQ(r.clients.minHitRatio, 0.0);
  EXPECT_DOUBLE_EQ(r.clients.maxHitRatio, 0.75);
}

TEST(Collector, RadioAccountingFeedsEnergyModel) {
  Fixture f;
  f.collector.onClientTx(1000.0);
  f.collector.onClientRx(50000.0);
  f.collector.onQueryCompleted(0, 1.0);
  f.collector.onQueryCompleted(1, 1.0);
  const auto r = f.collector.finalize(100.0);
  EXPECT_DOUBLE_EQ(r.clientTxBits, 1000.0);
  EXPECT_DOUBLE_EQ(r.clientRxBits, 50000.0);
  // tx at 1e-5 J/bit + rx at 1e-6 J/bit.
  EXPECT_NEAR(r.radioEnergyJoules(), 1000 * 1e-5 + 50000 * 1e-6, 1e-12);
  EXPECT_NEAR(r.energyPerQueryJoules(), r.radioEnergyJoules() / 2.0, 1e-12);
  // Custom constants.
  EXPECT_NEAR(r.radioEnergyJoules(2.0, 1.0), 2000.0 + 50000.0, 1e-9);
}

TEST(SimResult, DerivedMetricsHandleZeroQueries) {
  SimResult r;
  EXPECT_DOUBLE_EQ(r.uplinkCheckBitsPerQuery(), 0.0);
  EXPECT_DOUBLE_EQ(r.uplinkTotalBitsPerQuery(), 0.0);
  EXPECT_DOUBLE_EQ(r.hitRatio(), 0.0);
  EXPECT_DOUBLE_EQ(r.downlinkIrFraction(), 0.0);
  EXPECT_DOUBLE_EQ(r.throughput(), 0.0);
  EXPECT_DOUBLE_EQ(r.energyPerQueryJoules(), 0.0);
}

TEST(SimResult, MergeSumsCountersAndWeightsLatenciesByQueries) {
  SimResult a;
  a.simTime = 100.0;
  a.queriesCompleted = 300;
  a.cacheHits = 200;
  a.cacheMisses = 100;
  a.avgQueryLatency = 2.0;
  a.maxQueryLatency = 9.0;
  a.clientRxBits = 1000.0;
  a.downlink.irBits = 64;
  a.clients.fairness = 1.0;

  SimResult b;
  b.simTime = 90.0;
  b.queriesCompleted = 100;
  b.cacheHits = 20;
  b.cacheMisses = 80;
  b.staleReads = 1;
  b.avgQueryLatency = 6.0;
  b.maxQueryLatency = 4.0;
  b.clientRxBits = 500.0;
  b.downlink.irBits = 36;
  b.clients.fairness = 0.5;

  const SimResult m = mergeResults({a, b});
  EXPECT_DOUBLE_EQ(m.simTime, 100.0);  // parts ran concurrently: max, not sum
  EXPECT_EQ(m.queriesCompleted, 400u);
  EXPECT_EQ(m.cacheHits, 220u);
  EXPECT_EQ(m.cacheMisses, 180u);
  EXPECT_EQ(m.staleReads, 1u);
  EXPECT_DOUBLE_EQ(m.hitRatio(), 220.0 / 400.0);
  // avg = (300*2 + 100*6) / 400; max = max of maxes.
  EXPECT_DOUBLE_EQ(m.avgQueryLatency, 3.0);
  EXPECT_DOUBLE_EQ(m.maxQueryLatency, 9.0);
  EXPECT_DOUBLE_EQ(m.clientRxBits, 1500.0);
  EXPECT_DOUBLE_EQ(m.downlink.irBits, 100.0);
  EXPECT_DOUBLE_EQ(m.clients.fairness, 0.75 * 1.0 + 0.25 * 0.5);
}

TEST(SimResult, MergeOfNothingIsTheEmptyResult) {
  const SimResult m = mergeResults({});
  EXPECT_EQ(m.queriesCompleted, 0u);
  EXPECT_DOUBLE_EQ(m.hitRatio(), 0.0);
  EXPECT_DOUBLE_EQ(m.clients.fairness, 1.0);
}

TEST(SimResult, MergeWithZeroQueriesEverywhereWeightsEvenly) {
  SimResult a;
  a.avgQueryLatency = 2.0;
  SimResult b;
  b.avgQueryLatency = 4.0;
  const SimResult m = mergeResults({a, b});
  EXPECT_DOUBLE_EQ(m.avgQueryLatency, 3.0);
}

}  // namespace
}  // namespace mci::metrics
