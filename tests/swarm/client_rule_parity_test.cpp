// Step-level differential tests of the shared client code's two views.
//
// The adaptive client rule: one scripted AFW/AAW episode runs through
// AdaptiveClientScheme on a ClientContext (the sim and ClientAgent) and
// through the shared rule on a swarm PartitionView of a 1-client
// SwarmState, exactly as SwarmEmulator::tick and onDataItem call it. Every
// time sits on the millisecond grid, so after each step the two must agree
// bit for bit on lastHeard, suspectAsOf, checkSent, salvagePending,
// checkDeliveredAt and the cached and suspect item sets.
//
// The client lifecycle: one scripted think/query/doze sequence runs
// through core/client_lifecycle.hpp on a HostView (the fields core::Client
// and ClientAgent keep) and on a swarm ClientRow. After every step both
// must agree on phase, deadlines, owed mask, outstanding fetches and the
// draws consumed from each random stream, and both must match the draw
// order the lifecycle documents, replayed on reference streams. A query in
// flight across an epoch flip runs on two-partition views of both, which
// must answer each of its items exactly once.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/adaptive_common.hpp"
#include "core/client_lifecycle.hpp"
#include "core/client_rule.hpp"
#include "db/update_history.hpp"
#include "report/bs_report.hpp"
#include "report/ts_report.hpp"
#include "schemes/bs_scheme.hpp"
#include "schemes/scheme_test_util.hpp"
#include "sim/time.hpp"
#include "swarm/state.hpp"
#include "workload/pattern.hpp"
#include "workload/query_generator.hpp"

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

    // The listed-tick table SwarmEmulator::onReportPayload builds.
    std::vector<report::TsRecord> entries;
    for (const db::UpdateRecord& rec : r.entries()) {
      entries.push_back({rec.item, toTick(rec.time)});
    }
    ListedTicks listed(st.dbSize);
    listed.list(entries);
    bool swarmSent = false;
    PartitionView p = view();
    core::rule::onTsReport(
        p, toTick(r.broadcastTime), toTick(r.coverageStart()),
        [&] { st.applyTsEntries(0, 0, listed.data()); },
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
      schemes::applyBsDecision(r.decide(sim::tickTime(tlb)), p);
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
    core::rule::onWake(h.ctx);
    PartitionView p = view();
    core::rule::onWake(p);
  }

  /// The epoch-flip rule, run once the flip has put this partition's
  /// copies in place (ClientAgent::applyShardMap and
  /// SwarmEmulator::onMapUpdate).
  void flip(sim::SimTime preFlip) {
    core::rule::onEpochFlip(h.ctx, preFlip);
    PartitionView p = view();
    core::rule::onEpochFlip(p, toTick(preFlip));
  }

  /// A copy placed by a flip, bypassing the late-copy rule as migration
  /// does.
  void place(db::ItemId item, db::Version version, sim::SimTime refTime) {
    h.cacheItem(item, refTime, version);
    st.insert(0, 0, item, toTick(refTime), version);
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

// The epoch-flip rule on both views. A surviving partition with a check in
// flight: the flip voids the cycle, keeps lastHeard and re-anchors every
// suspect at the pre-flip point, so only a report reaching back to that
// point salvages. A partition the flip creates: it starts hearing at the
// pre-flip point. After every step both views agree field for field.
TEST(ClientRuleParity, EpochFlipAgreesOnBothViews) {
  Episode e;
  e.hearTs(*window(e, 200.0));
  e.fetch(1, 0, 200.0);
  e.fetch(2, 0, 200.0);
  e.fetch(3, 0, 200.0);
  e.hearTs(*window(e, 210.0));
  e.hist.record(3, 250.0);
  e.wake();
  e.hearTs(*window(e, 400.0));
  e.expectSame("gap, check in flight before the flip");
  ASSERT_TRUE(e.h.ctx.checkSent());

  e.flip(150.0);
  e.expectSame("survivor flipped");
  EXPECT_DOUBLE_EQ(e.h.ctx.lastHeard(), 400.0);
  EXPECT_DOUBLE_EQ(e.h.ctx.suspectAsOf(), 150.0);
  EXPECT_FALSE(e.h.ctx.checkSent());
  EXPECT_TRUE(e.h.ctx.salvagePending());
  EXPECT_EQ(e.simItems(true), (std::set<db::ItemId>{1, 2, 3}));

  // The next uncovered report sends a fresh check; the extended report
  // reaching back to the pre-flip point lists item 3 and salvages the rest.
  e.hearTs(*window(e, 410.0));
  e.expectSame("fresh check after the flip");
  EXPECT_TRUE(e.h.ctx.checkSent());
  e.checkDelivered(412.0);
  e.hearTs(*report::TsReport::buildExtended(e.hist, e.h.sizes, 420.0, 150.0));
  e.expectSame("extended report salvages past the flip");
  EXPECT_EQ(e.simItems(false), (std::set<db::ItemId>{1, 2}));
  EXPECT_EQ(e.h.ctx.suspectCount(), 0u);

  Episode created;
  created.place(4, 0, 280.0);
  created.place(5, 0, 280.0);
  created.hist.record(5, 320.0);
  created.flip(300.0);
  created.expectSame("created partition flipped");
  EXPECT_DOUBLE_EQ(created.h.ctx.lastHeard(), 300.0);
  EXPECT_DOUBLE_EQ(created.h.ctx.suspectAsOf(), 300.0);
  EXPECT_TRUE(created.h.ctx.salvagePending());
  created.hearTs(*window(created, 350.0));
  created.expectSame("created partition's first report salvages");
  EXPECT_EQ(created.simItems(false), (std::set<db::ItemId>{4}));
  EXPECT_EQ(created.h.ctx.suspectCount(), 0u);
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

// --- the client lifecycle -------------------------------------------------

namespace life = core::lifecycle;
using life::Phase;

constexpr std::uint64_t kSeed = 11;
constexpr std::size_t kDbSize = 1000;
constexpr std::uint32_t kCapacity = 8;
constexpr double kMeanThink = 100.0;
constexpr double kMeanItems = 4.0;

workload::AccessPattern lifePattern() {
  return workload::AccessPattern::uniform(kDbSize);
}

workload::QueryGenerator::Params lifeQueryParams() {
  workload::QueryGenerator::Params qp;
  qp.meanThinkTime = kMeanThink;
  qp.meanItemsPerQuery = kMeanItems;
  return qp;
}

/// The disconnection law both views read; the script switches its model.
struct Law {
  workload::Disconnector::Params params;
  Law() {
    params.model = workload::DisconnectModel::kPostQuery;
    params.probability = 1.0;  // every coin lands: the script decides
    params.meanDuration = 300.0;
  }
};

/// The fields core::Client and ClientAgent keep, one partition.
struct HostClient {
  life::HostLife life;
  workload::QueryGenerator queries{lifePattern(), lifeQueryParams(),
                                   sim::Rng(kSeed).fork("query", 0)};
  workload::Disconnector disc{Law().params, sim::Rng(kSeed).fork("disc", 0)};
  schemes::testutil::ClientHarness h{kDbSize, kCapacity};
  life::QueryLeg leg;
  double wakeAt = -1;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::map<db::ItemId, int> answers;  ///< hits plus misses, per item

  HostClient() { leg.ctx = &h.ctx; }
};

/// HostView (the production state half) plus core::Client's mechanics,
/// minus the simulator.
class HostSide : public life::HostView {
 public:
  HostSide(HostClient& c, const Law& law)
      : HostView(c.life, c.queries, c.disc, nullptr, 0), c_(c), law_(law) {}

  [[nodiscard]] life::QueryLeg* part() { return &c_.leg; }
  [[nodiscard]] const workload::Disconnector::Params& dozeParams() const {
    return law_.params;
  }
  template <class F>
  void forEachPartition(F&& f) {
    f(c_.h.ctx);
  }
  [[nodiscard]] static bool isCoinPartition(const life::QueryLeg*) {
    return true;
  }
  [[nodiscard]] bool anyOwed() const { return c_.leg.owed; }
  [[nodiscard]] bool anyFetchOutstanding() const {
    return !c_.leg.fetch.empty();
  }
  void drawQuery(double now) {
    c_.queries.nextQuery(c_.leg.items);
    life_.queryStart = now;
    c_.leg.owed = true;
  }
  static void armThink(double) {}
  static void cancelThink() {}
  void armWake(double now, double duration) {
    noteDoze(now);
    c_.wakeAt = now + duration;
  }
  bool hit(life::QueryLeg* leg, db::ItemId item, const cache::Entry* e) {
    ++c_.hits;
    ++c_.answers[item];
    return HostView::hit(leg, item, e);
  }
  void miss(life::QueryLeg* leg, db::ItemId item) {
    ++c_.misses;
    ++c_.answers[item];
    HostView::miss(leg, item);
  }
  static void requestFetches(const life::QueryLeg*) {}
  void recordCompletion(double now) {
    HostView::recordCompletion(now);
    c_.leg.items.clear();
  }

 protected:
  HostClient& c_;
  const Law& law_;
};

/// One SwarmState row, with the emulator's per-client fetch count.
struct RowClient {
  SwarmState st;
  workload::AccessPattern pattern = lifePattern();
  std::vector<db::ItemId> scratch;
  std::uint32_t pending = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t completed = 0;
  std::map<db::ItemId, int> answers;  ///< hits plus misses, per item

  explicit RowClient(std::uint32_t shards = 1) {
    st.configure(1, shards, kDbSize, kCapacity, kSeed);
  }
};

/// ClientRow (the production state half) plus the emulator's mechanics.
class RowSide : public ClientRow {
 public:
  RowSide(RowClient& c, const Law& law)
      : ClientRow(c.st, 0), rc_(c), law_(law) {}

  [[nodiscard]] static std::uint32_t part() { return 0; }
  [[nodiscard]] const workload::Disconnector::Params& dozeParams() const {
    return law_.params;
  }
  double drawThink() { return st_.rngQuery[0].exponential(kMeanThink); }
  void drawQuery(double now) {
    workload::drawQueryItems(st_.rngQuery[0], kMeanItems, rc_.pattern,
                             rc_.scratch);
    const auto kept = static_cast<std::uint32_t>(std::min<std::size_t>(
        rc_.scratch.size(), SwarmState::kMaxQueryItems));
    for (std::uint32_t i = 0; i < kept; ++i) {
      st_.queryItems[i] = rc_.scratch[i];
    }
    st_.queryCount[0] = static_cast<std::uint8_t>(kept);
    st_.needAnswer[0] = 1;
    st_.queryStart[0] = now;
    rc_.pending = 0;
  }
  static void armThink(double) {}
  static void cancelThink() {}
  void armWake(double now, double duration) {
    st_.dozeEnd[0] = now + duration;
  }
  static void onWoken(double) {}
  template <class F>
  void forEachQueryItem(std::uint32_t, F&& f) {
    for (std::uint32_t i = 0; i < st_.queryCount[0]; ++i) {
      if (!f(st_.queryItems[i])) return;
    }
  }
  bool hit(std::uint32_t, db::ItemId item, Slot h) {
    st_.slotUsed.set(h.index);
    ++rc_.hits;
    ++rc_.answers[item];
    return true;
  }
  void miss(std::uint32_t, db::ItemId item) {
    ++rc_.misses;
    ++rc_.answers[item];
    ++rc_.pending;
  }
  static void requestFetches(std::uint32_t) {}
  [[nodiscard]] bool anyFetchOutstanding() const { return rc_.pending != 0; }
  void retireFetch(std::uint32_t, db::ItemId) {
    ASSERT_GT(rc_.pending, 0u);
    --rc_.pending;
  }
  void recordCompletion(double) { ++rc_.completed; }

 protected:
  RowClient& rc_;
  const Law& law_;
};

/// Both clients, driven in lockstep.
struct Lifecycle {
  Law law;
  HostClient host;
  RowClient row;

  HostSide hv() { return HostSide(host, law); }
  RowSide rv() { return RowSide(row, law); }

  template <class Step>
  void both(Step&& step) {
    HostSide h = hv();
    step(h);
    RowSide r = rv();
    step(r);
  }

  /// A copy of `item` the server read at `t`, cached on both sides.
  void cache(db::ItemId item, double t) {
    host.h.cacheItem(item, t, 0);
    row.st.insert(0, 0, item, toTick(t), 0);
  }

  /// Every outstanding fetch lands at `t`, read at `t`.
  void landFetches(double t) {
    const std::vector<db::ItemId> items = host.leg.fetch;
    for (db::ItemId item : items) {
      both([&](auto& v) {
        (void)life::onFetchedCopy(v, v.part(), t, item, readTimeOf(v, t),
                                  [] {});
      });
    }
  }

  static sim::SimTime readTimeOf(const HostSide&, double t) { return t; }
  static Tick readTimeOf(const RowSide&, double t) { return toTick(t); }

  [[nodiscard]] std::vector<db::ItemId> rowItems() const {
    return {row.st.queryItems.begin(),
            row.st.queryItems.begin() + row.st.queryCount[0]};
  }

  /// The next draw of each stream, without consuming it.
  [[nodiscard]] static double peek(sim::Rng rng) { return rng.uniform01(); }

  void expectSame(const std::string& step) {
    SCOPED_TRACE(step);
    const SwarmState& st = row.st;
    EXPECT_EQ(host.life.phase, st.phase[0]);
    EXPECT_EQ(host.life.thinkDeadline, st.thinkDeadline[0]);
    EXPECT_EQ(host.life.queryAfterWake, st.queryAfterWake.get(0));
    if (host.life.phase == Phase::kDozing) {
      EXPECT_EQ(host.wakeAt, st.dozeEnd[0]);
    }
    if (host.life.phase == Phase::kQuerying) {
      EXPECT_EQ(host.life.queryStart, st.queryStart[0]);
      EXPECT_EQ(host.leg.items, rowItems());
    }
    EXPECT_EQ(host.leg.owed ? 1u : 0u, st.needAnswer[0]);
    EXPECT_EQ(host.leg.fetch.size(), row.pending);
    EXPECT_EQ(host.hits, row.hits);
    EXPECT_EQ(host.misses, row.misses);
    EXPECT_EQ(host.life.completed, row.completed);
    workload::QueryGenerator q = host.queries;
    EXPECT_EQ(q.thinkTime(), sim::Rng(st.rngQuery[0]).exponential(kMeanThink));
    workload::Disconnector d = host.disc;
    EXPECT_EQ(peek(d.rng()), peek(st.rngDisc[0]));
  }
};

TEST(ClientLifecycleParity, ScriptedLifecycleAgreesAfterEveryStep) {
  Lifecycle e;
  // Reference streams replaying the documented draw order: "query" gives
  // think, items, think...; "disc" gives coin, duration, coin, duration.
  workload::QueryGenerator refQuery(lifePattern(), lifeQueryParams(),
                                    sim::Rng(kSeed).fork("query", 0));
  sim::Rng refDisc = sim::Rng(kSeed).fork("disc", 0);

  e.both([](auto& v) { life::startThink(v, 0.0, v.drawThink()); });
  e.expectSame("start");
  const double firstThink = refQuery.thinkTime();
  EXPECT_EQ(e.host.life.phase, Phase::kThinking);
  EXPECT_EQ(e.host.life.thinkDeadline, firstThink);

  // Think elapses: the query exists from its deadline on.
  const double issued = e.host.life.thinkDeadline;
  e.both([&](auto& v) { life::issueQuery(v, issued); });
  e.expectSame("query issued at the think deadline");
  EXPECT_EQ(e.host.leg.items, refQuery.nextQuery());
  ASSERT_GE(e.host.leg.items.size(), 2u) << "the script needs a hit and a miss";
  EXPECT_EQ(e.host.life.phase, Phase::kQuerying);

  // One item is cached and fresh, another cached but suspect, the rest
  // absent: one hit, the others fetched.
  e.cache(e.host.leg.items[0], 1.0);
  e.cache(e.host.leg.items[1], 1.0);
  e.host.h.ctx.cache().find(e.host.leg.items[1])->suspect = true;
  e.row.st.slotSuspect.set(e.row.st.slotIndex(
      0, static_cast<std::uint32_t>(e.row.st.findSlot(0, 0, e.host.leg.items[1]))));

  const double heard = std::ceil(issued) + 1.0;
  e.both([&](auto& v) { life::onReportHeard(v, v.part(), heard); });
  e.expectSame("report answers: a hit and misses");
  EXPECT_EQ(e.host.hits, 1u);
  EXPECT_EQ(e.host.leg.fetch.size(), e.host.leg.items.size() - 1);
  EXPECT_FALSE(e.host.leg.owed);

  // The fetches land; the last completes the query, the post-query coin
  // lands and the doze replaces the next think.
  const double landed = heard + 2.0;
  e.landFetches(landed);
  e.expectSame("fetches landed, post-query doze");
  EXPECT_EQ(e.host.life.completed, 1u);
  EXPECT_EQ(e.host.life.phase, Phase::kDozing);
  EXPECT_TRUE(e.host.life.queryAfterWake);
  EXPECT_TRUE(refDisc.bernoulli(1.0));
  EXPECT_EQ(e.host.wakeAt, landed + refDisc.exponential(300.0));

  // Wake: the query the doze replaced, with no think drawn in between. A
  // salvage is pending on the partition, so the next report cannot answer.
  const double woke = e.host.wakeAt;
  e.both([&](auto& v) { life::wake(v, woke); });
  e.expectSame("query after wake");
  EXPECT_EQ(e.host.life.phase, Phase::kQuerying);
  EXPECT_EQ(e.host.life.queryStart, woke);
  EXPECT_EQ(e.host.leg.items, refQuery.nextQuery());

  e.host.h.ctx.setSalvagePending(true);
  PartitionView(e.row.st, 0, 0).setSalvagePending(true);
  const double gated = std::ceil(woke) + 1.0;
  e.both([&](auto& v) { life::onReportHeard(v, v.part(), gated); });
  e.expectSame("salvage pending gates the answer");
  EXPECT_TRUE(e.host.leg.owed);

  // The salvage resolves (a validity reply): answer now. The model is
  // switched to the interval coin, so completion draws the next think.
  e.host.h.ctx.setSalvagePending(false);
  PartitionView(e.row.st, 0, 0).setSalvagePending(false);
  e.law.params.model = workload::DisconnectModel::kIntervalCoin;
  e.both([&](auto& v) { life::tryAnswer(v, v.part(), gated + 0.5); });
  e.expectSame("validity reply answers");
  EXPECT_FALSE(e.host.leg.owed);
  const double done = gated + 3.0;
  e.landFetches(done);
  e.expectSame("second query complete, next think");
  EXPECT_EQ(e.host.life.completed, 2u);
  EXPECT_EQ(e.host.life.phase, Phase::kThinking);
  EXPECT_EQ(e.host.life.thinkDeadline, done + refQuery.thinkTime());

  // A report in mid-think: the interval coin lands, the doze parks the
  // remaining think.
  const double deadline = e.host.life.thinkDeadline;
  const double coin = done + 0.25;
  ASSERT_LT(coin, deadline);
  e.both([&](auto& v) { life::onReportHeard(v, v.part(), coin); });
  e.expectSame("interval-coin doze in mid-think");
  EXPECT_EQ(e.host.life.phase, Phase::kDozing);
  EXPECT_FALSE(e.host.life.queryAfterWake);
  EXPECT_EQ(e.host.life.thinkDeadline, deadline - coin);
  EXPECT_TRUE(refDisc.bernoulli(1.0));
  EXPECT_EQ(e.host.wakeAt, coin + refDisc.exponential(300.0));

  // Wake: the rest of the think, not a fresh one.
  const double back = e.host.wakeAt;
  e.both([&](auto& v) { life::wake(v, back); });
  e.expectSame("wake resumes the remaining think");
  EXPECT_EQ(e.host.life.phase, Phase::kThinking);
  EXPECT_EQ(e.host.life.thinkDeadline, back + (deadline - coin));

  // Under the post-query model a report heard while thinking flips nothing.
  e.law.params.model = workload::DisconnectModel::kPostQuery;
  e.both([&](auto& v) { life::onReportHeard(v, v.part(), back + 1.0); });
  e.expectSame("no interval coin under the post-query model");
  EXPECT_EQ(Lifecycle::peek(e.host.disc.rng()), Lifecycle::peek(refDisc));
  EXPECT_EQ(e.host.life.phase, Phase::kThinking);
}

// --- the in-flight query at an epoch flip ----------------------------------

/// A shard map by residue: item i lives on partition i % shards.
struct ResidueMap {
  std::uint32_t shards;
  [[nodiscard]] std::uint32_t shardOf(db::ItemId item) const {
    return static_cast<std::uint32_t>(item % shards);
  }
};

/// What both views of a flip read: the law, the scripted query, the
/// installed map and the one it replaced.
struct FlipScript {
  Law law;
  std::vector<db::ItemId> query;
  ResidueMap map{2};
  ResidueMap preFlip{2};

  FlipScript() { law.params.model = workload::DisconnectModel::kIntervalCoin; }
};

/// ClientAgent's fields for two shard links: leg 0 is the HostClient's, leg
/// 1 has a partition of its own. A flip leaves the legs where they are.
struct TwoLegHost : HostClient {
  schemes::testutil::ClientHarness h1{kDbSize, kCapacity};
  life::QueryLeg leg1;
  std::vector<db::ItemId> items;

  TwoLegHost() { leg1.ctx = &h1.ctx; }
  std::array<life::QueryLeg*, 2> legs() { return {&leg, &leg1}; }
};

/// HostSide plus ClientAgent::Life's query hooks over two legs.
class TwoLegSide : public HostSide {
 public:
  TwoLegSide(TwoLegHost& c, const FlipScript& s)
      : HostSide(c, s.law), t_(c), s_(s) {}

  [[nodiscard]] life::QueryLeg* part(std::uint32_t p) { return t_.legs()[p]; }
  [[nodiscard]] static sim::SimTime stamp(double t) { return t; }
  [[nodiscard]] bool anyOwed() const { return t_.leg.owed || t_.leg1.owed; }
  [[nodiscard]] bool anyFetchOutstanding() const {
    return !t_.leg.fetch.empty() || !t_.leg1.fetch.empty();
  }
  void drawQuery(double now) {
    t_.items = s_.query;
    life_.queryStart = now;
    oweQueryItems();
  }
  template <class Owed>
  void keepQueryItems(Owed&& owed) {
    std::vector<db::ItemId>& items = t_.items;
    items.clear();
    for (life::QueryLeg* l : t_.legs()) {
      if (owed(l)) items.insert(items.end(), l->items.begin(), l->items.end());
    }
  }
  void oweQueryItems() {
    for (life::QueryLeg* l : t_.legs()) {
      l->owed = false;
      l->items.clear();
    }
    for (db::ItemId item : t_.items) {
      life::QueryLeg* l = part(s_.map.shardOf(item));
      l->items.push_back(item);
      l->owed = true;
    }
  }

 private:
  TwoLegHost& t_;
  const FlipScript& s_;
};

/// RowSide over a two-shard row plus SwarmEmulator::Life's query hooks:
/// forEachQueryItem picks a partition's items by the installed map, as the
/// tick loop does.
class TwoShardSide : public RowSide {
 public:
  TwoShardSide(RowClient& c, const FlipScript& s) : RowSide(c, s.law), s_(s) {}

  [[nodiscard]] static std::uint32_t part(std::uint32_t p) { return p; }
  [[nodiscard]] static Tick stamp(double t) { return toTick(t); }
  void drawQuery(double now) {
    std::copy(s_.query.begin(), s_.query.end(), st_.queryItems.begin());
    st_.queryCount[0] = static_cast<std::uint8_t>(s_.query.size());
    st_.queryStart[0] = now;
    oweQueryItems();
    rc_.pending = 0;
  }
  template <class Owed>
  void keepQueryItems(Owed&& owed) {
    ClientRow::keepQueryItems(s_.preFlip, owed);
  }
  void oweQueryItems() { ClientRow::oweQueryItems(s_.map); }
  template <class F>
  void forEachQueryItem(std::uint32_t s, F&& f) {
    for (std::uint32_t i = 0; i < st_.queryCount[0]; ++i) {
      const db::ItemId item = st_.queryItems[i];
      if (s_.map.shardOf(item) == s && !f(item)) return;
    }
  }

 private:
  const FlipScript& s_;
};

// A query spans two partitions; one leg is answered; then a flip maps both
// legs' items onto one partition. The answered item leaves the query, the
// owed one is owed at its new owner, and the next report there answers it:
// each item is answered exactly once on both views, and the query
// completes when its fetches land.
TEST(ClientLifecycleParity, FlipAnswersEachItemOnceOnBothViews) {
  FlipScript s;
  s.query = {10, 11};  // partition 0 and partition 1 under the old map
  TwoLegHost host;
  RowClient row(2);
  auto both = [&](auto&& step) {
    TwoLegSide h(host, s);
    step(h);
    TwoShardSide r(row, s);
    step(r);
  };
  auto expectSame = [&](const std::string& step) {
    SCOPED_TRACE(step);
    EXPECT_EQ(host.life.phase, row.st.phase[0]);
    EXPECT_EQ((host.leg.owed ? 1u : 0u) | (host.leg1.owed ? 2u : 0u),
              row.st.needAnswer[0]);
    EXPECT_EQ(host.leg.fetch.size() + host.leg1.fetch.size(), row.pending);
    EXPECT_EQ(host.answers, row.answers);
    EXPECT_EQ(host.life.completed, row.completed);
  };

  // Item 10 is cached fresh on partition 0; item 11 is nowhere.
  host.h.cacheItem(10, 1.0, 0);
  row.st.insert(0, 0, 10, toTick(1.0), 0);

  both([](auto& v) { life::issueQuery(v, 5.0); });
  expectSame("query owed on both partitions");
  EXPECT_EQ(row.st.needAnswer[0], 3u);

  both([](auto& v) { life::tryAnswer(v, v.part(0), 6.0); });
  expectSame("partition 0 answers item 10");
  EXPECT_EQ(host.answers, (std::map<db::ItemId, int>{{10, 1}}));

  // The flip: partition 1 leaves the map and its items move to 0.
  s.preFlip = s.map;
  s.map = ResidueMap{1};
  both([](auto& v) { life::onEpochFlip(v, 7.0); });
  expectSame("flip moves the owed leg");
  EXPECT_EQ(row.st.needAnswer[0], 1u);
  EXPECT_EQ(host.items, (std::vector<db::ItemId>{11}));
  EXPECT_EQ(host.items, (std::vector<db::ItemId>(
                            row.st.queryItems.begin(),
                            row.st.queryItems.begin() + row.st.queryCount[0])));
  EXPECT_FALSE(host.leg1.owed);

  both([](auto& v) { life::tryAnswer(v, v.part(0), 8.0); });
  expectSame("partition 0 answers the moved item");
  EXPECT_EQ(host.answers, (std::map<db::ItemId, int>{{10, 1}, {11, 1}}));
  EXPECT_EQ(host.life.phase, Phase::kQuerying);

  both([](auto& v) {
    (void)life::onFetchedCopy(v, v.part(0), 9.0, 11, v.stamp(9.0), [] {});
  });
  expectSame("the fetch lands and the query completes");
  EXPECT_EQ(host.life.completed, 1u);
  EXPECT_EQ(host.life.phase, Phase::kThinking);
  EXPECT_EQ(host.life.thinkDeadline, row.st.thinkDeadline[0]);
}

// The one query law: from the same stream, QueryGenerator (the sim and
// ClientAgent) and the swarm's draw pick the same items and leave the
// stream in the same state.
TEST(QueryDrawLaw, QueryGeneratorAndSwarmDrawAgree) {
  const workload::AccessPattern hot = workload::AccessPattern::hotCold(
      kDbSize, workload::HotColdSpec{});
  workload::QueryGenerator gen(hot, lifeQueryParams(),
                               sim::Rng(kSeed).fork("query", 3));
  SwarmState st;
  st.configure(4, 1, kDbSize, kCapacity, kSeed);
  std::vector<db::ItemId> swarmItems;
  for (int q = 0; q < 200; ++q) {
    const std::vector<db::ItemId> simItems = gen.nextQuery();
    workload::drawQueryItems(st.rngQuery[3], kMeanItems, hot, swarmItems);
    ASSERT_EQ(simItems, swarmItems) << "query " << q;
  }
  EXPECT_EQ(gen.thinkTime(), st.rngQuery[3].exponential(kMeanThink));

}

}  // namespace
}  // namespace mci::swarm
