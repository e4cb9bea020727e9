#include "schemes/ts_checking_scheme.hpp"

#include <gtest/gtest.h>

#include "core/client_rule.hpp"
#include "db/database.hpp"
#include "scheme_test_util.hpp"

namespace mci::schemes {
namespace {

using testutil::ClientHarness;

struct CheckingFixture : ::testing::Test {
  db::Database db{1000};
  db::UpdateHistory hist{1000};
  ClientHarness h;
  TsCheckingServerScheme server{hist, db, h.sizes, 20.0, 10};
  TsCheckingClientScheme client;

  void update(db::ItemId item, double t) {
    db.applyUpdate(item, t);
    hist.record(item, t);
  }
};

TEST_F(CheckingFixture, CoveredClientBehavesLikePlainTs) {
  h.cacheItem(1, 100.0);
  h.ctx.setLastHeard(480.0);
  update(1, 490.0);
  const auto r = server.buildReport(500.0);
  const auto out = client.onReport(*r, h.ctx);
  EXPECT_FALSE(out.sendCheck);
  EXPECT_FALSE(h.ctx.cache().contains(1));
  EXPECT_EQ(h.ctx.cache().suspectCount(), 0u);
}

TEST_F(CheckingFixture, GapTriggersSuspectsAndCheckRequest) {
  h.cacheItem(1, 100.0);
  h.cacheItem(2, 100.0);
  h.ctx.setLastHeard(120.0);  // gap: window at t=500 starts at 300

  const auto r = server.buildReport(500.0);
  const auto out = client.onReport(*r, h.ctx);
  ASSERT_TRUE(out.sendCheck);
  EXPECT_EQ(out.check.client, h.ctx.id());
  EXPECT_DOUBLE_EQ(out.check.tlb, 120.0);
  EXPECT_EQ(out.check.entries.size(), 2u);
  EXPECT_DOUBLE_EQ(out.check.sizeBits, h.sizes.checkRequestBits(2));
  EXPECT_TRUE(h.ctx.salvagePending());
  EXPECT_TRUE(h.ctx.checkSent());
  EXPECT_EQ(h.ctx.cache().suspectCount(), 2u);
}

TEST_F(CheckingFixture, ServerAnswersCheckAccurately) {
  update(1, 150.0);
  // Entry for item 1 validated at 100 (stale), item 2 untouched (valid).
  CheckMessage msg;
  msg.client = 7;
  msg.epoch = 3;
  msg.entries = {{1, 100.0}, {2, 100.0}};
  const auto reply = server.onCheckMessage(msg, 500.0);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->client, 7u);
  EXPECT_DOUBLE_EQ(reply->asOf, 500.0);
  EXPECT_EQ(reply->invalid, (std::vector<db::ItemId>{1}));
  EXPECT_DOUBLE_EQ(reply->sizeBits, h.sizes.validityReportBits(1));
}

TEST_F(CheckingFixture, ReplySalvagesSurvivorsAndDropsInvalid) {
  h.cacheItem(1, 100.0);
  h.cacheItem(2, 100.0);
  h.ctx.setLastHeard(120.0);
  const auto r = server.buildReport(500.0);
  const auto out = client.onReport(*r, h.ctx);
  ASSERT_TRUE(out.sendCheck);

  ValidityReply reply;
  reply.client = h.ctx.id();
  reply.asOf = 501.0;
  reply.invalid = {1};
  reply.epoch = out.check.epoch;
  client.onValidityReply(reply, h.ctx);

  EXPECT_FALSE(h.ctx.cache().contains(1));
  ASSERT_TRUE(h.ctx.cache().contains(2));
  EXPECT_FALSE(h.ctx.cache().find(2)->suspect);
  EXPECT_DOUBLE_EQ(h.ctx.cache().find(2)->refTime, 501.0);
  EXPECT_FALSE(h.ctx.salvagePending());
  EXPECT_EQ(h.sink.salvagedEntries, 1u);
}

TEST_F(CheckingFixture, StaleEpochReplyIsIgnored) {
  h.cacheItem(1, 100.0);
  h.ctx.setLastHeard(120.0);
  const auto r = server.buildReport(500.0);
  const auto out = client.onReport(*r, h.ctx);
  ASSERT_TRUE(out.sendCheck);

  ValidityReply reply;
  reply.client = h.ctx.id();
  reply.asOf = 501.0;
  reply.invalid = {1};
  reply.epoch = out.check.epoch + 17;  // from a previous gap
  client.onValidityReply(reply, h.ctx);
  EXPECT_TRUE(h.ctx.cache().contains(1));
  EXPECT_TRUE(h.ctx.salvagePending());  // still waiting for the real reply
}

TEST_F(CheckingFixture, CheckIsSentOnlyOnce) {
  h.cacheItem(1, 100.0);
  h.ctx.setLastHeard(120.0);
  const auto r1 = server.buildReport(500.0);
  EXPECT_TRUE(client.onReport(*r1, h.ctx).sendCheck);
  const auto r2 = server.buildReport(520.0);
  EXPECT_FALSE(client.onReport(*r2, h.ctx).sendCheck);  // reply pending
}

TEST_F(CheckingFixture, ReportRecordsShrinkTheCheck) {
  h.cacheItem(1, 100.0);
  h.cacheItem(2, 100.0);
  h.ctx.setLastHeard(120.0);
  update(1, 495.0);  // listed in the window -> invalidated before checking
  const auto r = server.buildReport(500.0);
  const auto out = client.onReport(*r, h.ctx);
  ASSERT_TRUE(out.sendCheck);
  EXPECT_EQ(out.check.entries.size(), 1u);
  EXPECT_EQ(out.check.entries[0].item, 2u);
  EXPECT_FALSE(h.ctx.cache().contains(1));
}

TEST_F(CheckingFixture, EmptyCacheGapSendsNoCheck) {
  h.ctx.setLastHeard(120.0);
  const auto r = server.buildReport(500.0);
  EXPECT_FALSE(client.onReport(*r, h.ctx).sendCheck);
  EXPECT_FALSE(h.ctx.salvagePending());
}

TEST_F(CheckingFixture, WakeMidSalvageRestartsTheCycle) {
  h.cacheItem(1, 100.0);
  h.ctx.setLastHeard(120.0);
  const auto r1 = server.buildReport(500.0);
  const auto out1 = client.onReport(*r1, h.ctx);
  ASSERT_TRUE(out1.sendCheck);

  // Client dozes before the reply and wakes much later: suspects survive,
  // and the next report triggers a fresh check with a new epoch.
  core::rule::onWake(h.ctx);
  EXPECT_EQ(h.ctx.cache().suspectCount(), 1u);
  EXPECT_TRUE(h.ctx.salvagePending());
  EXPECT_FALSE(h.ctx.checkSent());

  const auto r2 = server.buildReport(920.0);
  const auto out2 = client.onReport(*r2, h.ctx);
  ASSERT_TRUE(out2.sendCheck);
  EXPECT_NE(out2.check.epoch, out1.check.epoch);
}

}  // namespace
}  // namespace mci::schemes
