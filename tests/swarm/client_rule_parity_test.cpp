// Step-level differential test of the adaptive client rule's two views:
// one scripted AFW/AAW episode runs through AdaptiveClientScheme on a
// ClientContext (the sim and ClientAgent) and through the shared rule on a
// swarm PartitionView of a 1-client SwarmState, exactly as
// SwarmEmulator::tick and onDataItem call it. Every time sits on the
// millisecond grid, so after each step the two must agree bit for bit on
// lastHeard, suspectAsOf, checkSent, salvagePending, checkDeliveredAt and
// the cached and suspect item sets.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>

#include "core/adaptive_common.hpp"
#include "core/client_rule.hpp"
#include "db/update_history.hpp"
#include "live/clock.hpp"
#include "report/bs_report.hpp"
#include "report/ts_report.hpp"
#include "schemes/bs_scheme.hpp"
#include "schemes/scheme_test_util.hpp"
#include "swarm/state.hpp"

namespace mci::swarm {
namespace {

using core::rule::acceptsFetchedCopy;

Tick toTick(sim::SimTime t) { return static_cast<Tick>(std::llround(t * 1e3)); }

Tick toTickOrNever(sim::SimTime t) {
  return t == sim::kTimeInfinity ? kNeverTick : toTick(t);
}

/// Both clients of one scripted episode, plus the steps that feed them.
struct Episode {
  static constexpr std::uint32_t kCapacity = 8;

  db::UpdateHistory hist{1000};
  schemes::testutil::ClientHarness h{1000, kCapacity};
  core::AdaptiveClientScheme scheme;
  SwarmState st;

  Episode() { st.configure(1, 1, 1000, kCapacity, /*seed=*/1); }

  PartitionView view() { return PartitionView(st, 0, 0); }

  /// A TS report heard by both clients. `sendOk` scripts the uplink: when
  /// false, the check send is refused (a swarm endpoint not yet welcomed
  /// after a reshard) — the ClientContext side then runs the same rule
  /// AdaptiveClientScheme runs, with a refusing uplink.
  void hearTs(const report::TsReport& r, bool sendOk = true) {
    bool simSent = false;
    if (sendOk) {
      simSent = scheme.onReport(r, h.ctx).sendCheck;
    } else {
      core::rule::onTsReport(
          h.ctx, r.broadcastTime, r.coverageStart(),
          [&] { schemes::applyTsEntries(r.entries(), h.ctx); },
          [] { return false; });
    }

    entryItem.clear();
    entryTick.clear();
    for (const db::UpdateRecord& rec : r.entries()) {
      entryItem.push_back(rec.item);
      entryTick.push_back(toTick(rec.time));
    }
    bool swarmSent = false;
    PartitionView p = view();
    core::rule::onTsReport(
        p, toTick(r.broadcastTime), toTick(r.coverageStart()),
        [&] { st.applyTsEntries(0, 0, entryItem, entryTick); },
        [&] {
          swarmSent = sendOk;
          return sendOk;
        });
    EXPECT_EQ(simSent, swarmSent) << "check sent on one side only";
  }

  void hearBs(const report::BsReport& r) {
    scheme.onReport(r, h.ctx);
    PartitionView p = view();
    core::rule::onBsReport(p, toTick(r.broadcastTime), [&](Tick tlb) {
      schemes::applyBsDecision(r.decide(live::LiveClock::tickToTime(tlb)), p);
    });
  }

  /// A fetched copy the server read at `readTime` (ClientAgent::onDataItem
  /// and SwarmEmulator::onDataItem, with the miss issued at the read).
  void fetch(db::ItemId item, db::Version version, sim::SimTime readTime) {
    if (acceptsFetchedCopy(readTime, h.ctx.lastHeard())) {
      h.cacheItem(item, readTime, version);
    }
    if (acceptsFetchedCopy(toTick(readTime), view().lastHeard())) {
      st.insert(0, 0, item, toTick(readTime), version);
    }
  }

  void checkDelivered(sim::SimTime at) {
    scheme.onCheckDelivered(h.ctx, at);
    view().setCheckDeliveredAt(toTick(at));
  }

  void wake() {
    scheme.onWake(h.ctx);
    PartitionView p = view();
    core::rule::onWake(p);
  }

  [[nodiscard]] std::set<db::ItemId> simItems(bool suspectsOnly) const {
    std::set<db::ItemId> out;
    h.ctx.cache().forEach([&](const cache::Entry& e) {
      if (!suspectsOnly || e.suspect) out.insert(e.item);
    });
    return out;
  }

  [[nodiscard]] std::set<db::ItemId> swarmItems(bool suspectsOnly) const {
    std::set<db::ItemId> out;
    for (std::uint32_t slot = 0; slot < st.slotsPerClient; ++slot) {
      const std::size_t i = st.slotIndex(0, slot);
      if (st.slotItem[i] == SwarmState::kEmptySlot) continue;
      if (!suspectsOnly || st.slotSuspect.get(i)) out.insert(st.slotItem[i]);
    }
    return out;
  }

  /// The step-level parity assertion; `step` names the step on failure.
  void expectSame(const std::string& step) {
    SCOPED_TRACE(step);
    const PartitionView p = view();
    EXPECT_EQ(toTick(h.ctx.lastHeard()), p.lastHeard());
    EXPECT_EQ(toTick(h.ctx.suspectAsOf()), p.suspectAsOf());
    EXPECT_EQ(h.ctx.checkSent(), p.checkSent());
    EXPECT_EQ(h.ctx.salvagePending(), p.salvagePending());
    EXPECT_EQ(toTickOrNever(h.ctx.checkDeliveredAt()), p.checkDeliveredAt());
    EXPECT_EQ(h.ctx.suspectCount(), p.suspectCount());
    EXPECT_EQ(simItems(false), swarmItems(false));
    EXPECT_EQ(simItems(true), swarmItems(true));
  }

  std::vector<db::ItemId> entryItem;
  std::vector<Tick> entryTick;
};

/// IR(w) with w*L = 100 s.
std::shared_ptr<const report::TsReport> window(const Episode& e,
                                               sim::SimTime now) {
  return report::TsReport::build(e.hist, e.h.sizes, now,
                                 std::max(0.0, now - 100.0));
}

TEST(ClientRuleParity, ScriptedEpisodeAgreesAfterEveryStep) {
  Episode e;
  e.expectSame("initial state");

  // A gap with an empty cache: nothing to salvage, no uplink.
  e.hearTs(*window(e, 200.0));
  e.expectSame("gap with an empty cache");
  EXPECT_FALSE(e.h.ctx.checkSent());

  e.fetch(1, 0, 200.0);
  e.fetch(2, 0, 200.0);
  e.fetch(3, 0, 200.0);
  e.expectSame("three copies fetched");

  // A covered report lists item 2's update: invalidated, nothing else.
  e.hist.record(2, 205.0);
  e.hearTs(*window(e, 210.0));
  e.expectSame("covered TS report");
  EXPECT_EQ(e.simItems(false), (std::set<db::ItemId>{1, 3}));

  // The late-copy rule: a copy read before lastHeard is dropped; one read
  // at it is kept.
  e.fetch(2, 1, 208.0);
  e.fetch(4, 0, 210.0);
  e.expectSame("late copy dropped, current copy kept");
  EXPECT_EQ(e.simItems(false), (std::set<db::ItemId>{1, 3, 4}));

  // Doze (no suspects yet), then a report whose window misses the gap. The
  // check send is refused: the flags stay clear.
  e.hist.record(3, 250.0);
  e.wake();
  e.expectSame("wake without suspects");
  e.hearTs(*window(e, 400.0), /*sendOk=*/false);
  e.expectSame("gap detected, check send refused");
  EXPECT_EQ(e.simItems(true), (std::set<db::ItemId>{1, 3, 4}));
  EXPECT_FALSE(e.h.ctx.checkSent());

  // The next uncovered report retries the send; its explicit record for
  // item 4 applies to the suspect too.
  e.hist.record(4, 405.0);
  e.hearTs(*window(e, 410.0));
  e.expectSame("uncovered report, check sent on retry");
  EXPECT_TRUE(e.h.ctx.checkSent());
  EXPECT_TRUE(e.h.ctx.salvagePending());
  EXPECT_EQ(e.simItems(true), (std::set<db::ItemId>{1, 3}));

  e.checkDelivered(412.0);
  e.expectSame("check acknowledged");

  // AAW's IR(w') reaching back to the pre-gap Tlb: item 3's update is
  // listed, item 1 is salvaged.
  e.hearTs(*report::TsReport::buildExtended(e.hist, e.h.sizes, 420.0, 210.0));
  e.expectSame("extended report salvages");
  EXPECT_EQ(e.simItems(false), (std::set<db::ItemId>{1}));
  EXPECT_EQ(e.h.ctx.suspectCount(), 0u);

  e.fetch(3, 1, 420.0);
  e.fetch(4, 1, 420.0);
  e.expectSame("refetched");

  // Second gap; a wake during the salvage restarts its cycle.
  e.hist.record(1, 450.0);
  e.wake();
  e.hearTs(*window(e, 600.0));
  e.expectSame("second gap, check sent");
  e.wake();
  e.expectSame("wake during salvage");
  EXPECT_TRUE(e.h.ctx.salvagePending());
  EXPECT_FALSE(e.h.ctx.checkSent());
  e.hearTs(*window(e, 700.0));
  e.expectSame("fresh check after the restarted cycle");
  e.checkDelivered(702.0);
  e.expectSame("second check acknowledged");

  // AFW's helping BS report: item 1 (updated at 450, after the pre-gap Tlb
  // 420) goes, the rest is salvaged.
  e.hearBs(*report::BsReport::build(e.hist, e.h.sizes, 710.0));
  e.expectSame("helping BS report");
  EXPECT_EQ(e.simItems(false), (std::set<db::ItemId>{3, 4}));
  EXPECT_EQ(e.h.ctx.suspectCount(), 0u);

  // Third gap; the server declines (the post-ack report still misses the
  // gap), so the suspects are dropped.
  e.wake();
  e.hearTs(*window(e, 900.0));
  e.expectSame("third gap, check sent");
  e.checkDelivered(902.0);
  e.hearTs(*window(e, 910.0));
  e.expectSame("decline after the check ack");
  EXPECT_TRUE(e.simItems(false).empty());
  EXPECT_FALSE(e.h.ctx.salvagePending());
}

// The pre-flip consistency point folds a source partition's gap anchor in:
// lastHeard 500 but suspects as of 100 make the point 100, not the 480 of
// the other partition's lastHeard. Checked on both views.
TEST(ClientRule, PreFlipPointFoldsInSuspectAnchors) {
  const report::SizeModel sizes =
      schemes::testutil::ClientHarness::makeSizes(1000);
  schemes::ClientContext waking(0, 8, sizes, nullptr);
  cache::Entry entry;
  entry.item = 1;
  entry.refTime = 90.0;
  waking.cache().insert(entry);
  waking.markAllSuspect(100.0);
  waking.setLastHeard(500.0);
  schemes::ClientContext steady(1, 8, sizes, nullptr);
  steady.setLastHeard(480.0);

  core::rule::PreFlipPoint<sim::SimTime> sim;
  sim.add(waking);
  sim.add(steady);
  EXPECT_DOUBLE_EQ(sim.value(), 100.0);

  SwarmState st;
  st.configure(1, 2, 1000, 8, /*seed=*/1);
  st.insert(0, 0, 1, 90000, 0);
  PartitionView p0(st, 0, 0);
  p0.markAllSuspect(100000);
  p0.setLastHeard(500000);
  PartitionView p1(st, 0, 1);
  p1.setLastHeard(480000);
  core::rule::PreFlipPoint<Tick> swarm;
  swarm.add(p0);
  swarm.add(p1);
  EXPECT_EQ(swarm.value(), 100000u);

  // Without suspects a stale anchor is ignored; with no partition at all
  // the point is the epoch.
  steady.markAllSuspect(20.0);  // empty cache: marks nothing
  core::rule::PreFlipPoint<sim::SimTime> clean;
  clean.add(steady);
  EXPECT_DOUBLE_EQ(clean.value(), 480.0);
  EXPECT_DOUBLE_EQ(core::rule::PreFlipPoint<sim::SimTime>{}.value(),
                   sim::kTimeEpoch);
}

}  // namespace
}  // namespace mci::swarm
