#include "schemes/bs_scheme.hpp"

#include <gtest/gtest.h>

#include "scheme_test_util.hpp"

namespace mci::schemes {
namespace {

using testutil::ClientHarness;

struct BsFixture : ::testing::Test {
  db::UpdateHistory hist{64};
  ClientHarness h{64, 16};
  BsServerScheme server{hist, h.sizes};
  BsClientScheme client;
};

TEST_F(BsFixture, BuildsBsReports) {
  hist.record(1, 10.0);
  const auto r = server.buildReport(20.0);
  EXPECT_EQ(r->kind, report::ReportKind::kBitSeq);
  EXPECT_DOUBLE_EQ(r->sizeBits, h.sizes.bsReportBits());
}

TEST_F(BsFixture, NoUplinkProtocol) {
  EXPECT_FALSE(server.onCheckMessage({}, 10.0).has_value());
}

TEST_F(BsFixture, ConnectedClientInvalidatesRecentUpdates) {
  h.cacheItem(1, 5.0);
  h.cacheItem(2, 5.0);
  h.ctx.setLastHeard(20.0);
  hist.record(1, 30.0);  // updated after the client's last report
  const auto r = server.buildReport(40.0);
  client.onReport(*r, h.ctx);
  EXPECT_FALSE(h.ctx.cache().contains(1));
  EXPECT_TRUE(h.ctx.cache().contains(2));
  EXPECT_DOUBLE_EQ(h.ctx.lastHeard(), 40.0);
}

TEST_F(BsFixture, LongSleeperSalvagesWithoutUplink) {
  h.cacheItem(1, 5.0);
  h.cacheItem(2, 5.0);
  h.ctx.setLastHeard(10.0);
  // A long gap with a handful of updates: BS still tells the client
  // exactly which (few) items to toss.
  hist.record(1, 500.0);
  hist.record(9, 600.0);
  const auto r = server.buildReport(1000.0);
  const auto out = client.onReport(*r, h.ctx);
  EXPECT_FALSE(out.sendCheck);
  EXPECT_FALSE(h.ctx.cache().contains(1));
  EXPECT_TRUE(h.ctx.cache().contains(2));
}

TEST_F(BsFixture, AncientSleeperDropsAll) {
  h.cacheItem(1, 1.0);
  h.ctx.setLastHeard(2.0);
  // Update more than half the database after t=2.
  for (db::ItemId i = 0; i < 40; ++i) hist.record(i, 10.0 + i);
  const auto r = server.buildReport(100.0);
  client.onReport(*r, h.ctx);
  EXPECT_EQ(h.ctx.cache().size(), 0u);
  EXPECT_EQ(h.sink.dropEvents, 1u);
}

TEST_F(BsFixture, WireFaithfulnessMayFalselyInvalidateFreshCopies) {
  // An item refetched *after* its update is still marked in the level the
  // client picks; bit sequences carry no per-item times, so the fresh copy
  // is (conservatively) tossed. This is BS's false-invalidation cost.
  h.ctx.setLastHeard(20.0);
  hist.record(1, 25.0);
  h.cacheItem(1, /*refTime=*/30.0);  // fetched after the update
  const auto r = server.buildReport(40.0);
  client.onReport(*r, h.ctx);
  EXPECT_FALSE(h.ctx.cache().contains(1));
}

TEST(ApplyBsDecision, DecisionsRouteToCacheOps) {
  ClientHarness h(64, 16);
  db::UpdateHistory hist(64);
  hist.record(1, 50.0);
  const auto bs = report::BsReport::build(hist, h.sizes, 100.0);

  h.cacheItem(1, 5.0);
  h.cacheItem(2, 5.0);
  applyBsDecision(bs->decide(/*effectiveTlb=*/40.0), h.ctx);
  EXPECT_FALSE(h.ctx.cache().contains(1));
  EXPECT_TRUE(h.ctx.cache().contains(2));

  // kNothing: tlb at the last update time.
  h.cacheItem(1, 60.0);
  applyBsDecision(bs->decide(50.0), h.ctx);
  EXPECT_TRUE(h.ctx.cache().contains(1));
}

}  // namespace
}  // namespace mci::schemes
