// Protocol-level property harness: drives every scheme's (server, client)
// pair directly — no network, no queueing — through thousands of randomized
// episodes of updates, heard reports, missed reports (dozes), validity
// replies and wake-ups, checking after every step against an oracle
// database:
//
//   SAFETY:    every cached, non-suspect entry is current as of the last
//              report the client processed (the no-stale-answer invariant
//              at its source);
//   LIVENESS:  while the client stays connected, a salvage pending state
//              always resolves within two further reports.
//
// This is the fast inner loop of the consistency argument; the integration
// suites re-prove it end-to-end with real channels.

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "core/aaw_scheme.hpp"
#include "core/afw_scheme.hpp"
#include "core/client_rule.hpp"
#include "db/database.hpp"
#include "scheme_test_util.hpp"
#include "schemes/at_scheme.hpp"
#include "schemes/bs_scheme.hpp"
#include "schemes/dts_scheme.hpp"
#include "schemes/factory.hpp"
#include "schemes/gcore_scheme.hpp"
#include "schemes/sig_scheme.hpp"
#include "schemes/ts_checking_scheme.hpp"
#include "schemes/ts_scheme.hpp"
#include "sim/random.hpp"

namespace mci::schemes {
namespace {

constexpr std::size_t kItems = 200;
constexpr double kPeriod = 20.0;

struct Episode {
  db::Database db{kItems};
  db::UpdateHistory hist{kItems};
  report::SignatureTable sigTable{kItems, 32, 3, 99};
  testutil::ClientHarness h{kItems, 24};
  std::unique_ptr<ServerScheme> server;
  std::unique_ptr<ClientScheme> client;
  sim::Rng rng;
  double now = 0;
  int reportsSinceSalvageStart = 0;
  std::optional<ValidityReply> pendingReply;

  explicit Episode(SchemeKind kind, std::uint64_t seed) : rng(seed) {
    switch (kind) {
      case SchemeKind::kTs:
        server = std::make_unique<TsServerScheme>(hist, h.sizes, kPeriod, 5);
        client = std::make_unique<TsClientScheme>();
        break;
      case SchemeKind::kAt:
        server = std::make_unique<AtServerScheme>(hist, h.sizes, kPeriod);
        client = std::make_unique<TsClientScheme>();
        break;
      case SchemeKind::kSig:
        server = std::make_unique<SigServerScheme>(sigTable, h.sizes);
        client = std::make_unique<SigClientScheme>(sigTable,
                                                   sigTable.combined(), 0);
        break;
      case SchemeKind::kDts:
        server = std::make_unique<DtsServerScheme>(
            hist, db, h.sizes, kPeriod,
            DtsServerScheme::Params{2, 50, 2.0});
        client = std::make_unique<DtsClientScheme>();
        break;
      case SchemeKind::kTsChecking:
        server = std::make_unique<TsCheckingServerScheme>(hist, db, h.sizes,
                                                          kPeriod, 5);
        client = std::make_unique<TsCheckingClientScheme>();
        break;
      case SchemeKind::kGcore:
        server = std::make_unique<GcoreServerScheme>(hist, db, h.sizes,
                                                     kPeriod, 5, 16);
        client = std::make_unique<GcoreClientScheme>(16);
        break;
      case SchemeKind::kBs:
        server = std::make_unique<BsServerScheme>(hist, h.sizes);
        client = std::make_unique<BsClientScheme>();
        break;
      case SchemeKind::kAfw:
        server = std::make_unique<core::AfwServerScheme>(hist, h.sizes,
                                                         kPeriod, 5);
        client = std::make_unique<core::AdaptiveClientScheme>();
        break;
      case SchemeKind::kAaw:
        server = std::make_unique<core::AawServerScheme>(hist, h.sizes,
                                                         kPeriod, 5);
        client = std::make_unique<core::AdaptiveClientScheme>();
        break;
    }
  }

  void update() {
    const auto item = static_cast<db::ItemId>(rng.uniformInt(0, kItems - 1));
    db.applyUpdate(item, now);
    hist.record(item, now);
    sigTable.applyUpdate(item, db.currentVersion(item) - 1,
                         db.currentVersion(item));
  }

  /// Fetch a fresh copy into the cache (a miss being served).
  void fetch() {
    const auto item = static_cast<db::ItemId>(rng.uniformInt(0, kItems - 1));
    cache::Entry e;
    e.item = item;
    e.version = db.currentVersion(item);
    e.refTime = now;
    h.ctx.cache().insert(e);
  }

  /// One broadcast heard by the client, including the feedback round trip
  /// (uplink + any validity reply arrive before the next broadcast).
  void hearReport() {
    // A reply left over from the previous interval lands before the next
    // broadcast (it is priority traffic; only a doze can lose it).
    deliverReply();
    const auto r = server->buildReport(now);
    const bool wasPending = h.ctx.salvagePending();
    const auto out = client->onReport(*r, h.ctx);
    if (out.sendCheck) {
      client->onCheckDelivered(h.ctx, now + 1.0);
      pendingReply = server->onCheckMessage(out.check, now + 1.0);
      if (pendingReply) pendingReply->epoch = out.check.epoch;
    }
    if (h.ctx.salvagePending()) {
      reportsSinceSalvageStart = wasPending ? reportsSinceSalvageStart + 1 : 1;
    } else {
      reportsSinceSalvageStart = 0;
    }
  }

  void deliverReply() {
    if (!pendingReply) return;
    client->onValidityReply(*pendingReply, h.ctx);
    pendingReply.reset();
  }

  /// Client dozes: reports are built (and consumed by the clock) unheard.
  void doze(int intervals) {
    for (int i = 0; i < intervals; ++i) {
      now += kPeriod;
      (void)server->buildReport(now);
      if (rng.bernoulli(0.3)) update();
    }
    pendingReply.reset();  // replies sent into the void
    core::rule::onWake(h.ctx);
    reportsSinceSalvageStart = 0;
  }

  /// SAFETY check: every answerable entry is current as of lastHeard.
  void auditCache() {
    h.ctx.cache().forEach([&](const cache::Entry& e) {
      if (e.suspect) return;  // not answerable
      if (h.ctx.salvagePending()) return;  // queries are deferred
      EXPECT_GE(e.version, db.versionAt(e.item, h.ctx.lastHeard()))
          << "item " << e.item << " at t=" << now;
    });
  }
};

class ProtocolPropertyTest
    : public ::testing::TestWithParam<std::tuple<SchemeKind, std::uint64_t>> {};

TEST_P(ProtocolPropertyTest, RandomEpisodesStaySafeAndLive) {
  const auto [kind, seed] = GetParam();
  Episode ep(kind, seed);

  for (int step = 0; step < 800; ++step) {
    // Advance one broadcast interval with a random amount of churn.
    ep.now += kPeriod;
    const int updates = static_cast<int>(ep.rng.uniformInt(0, 3));
    for (int u = 0; u < updates; ++u) ep.update();

    const double dice = ep.rng.uniform01();
    if (dice < 0.60) {
      ep.hearReport();
      if (ep.rng.bernoulli(0.7)) ep.deliverReply();
      if (ep.rng.bernoulli(0.4)) ep.fetch();
    } else if (dice < 0.85) {
      // Short or long doze: 1..40 intervals of missed reports.
      ep.doze(static_cast<int>(ep.rng.uniformInt(1, 40)));
    } else {
      ep.hearReport();
      ep.deliverReply();
    }
    ep.auditCache();

    // LIVENESS: pending salvage must resolve within two heard reports
    // after the feedback landed (covering/helping/decline all count),
    // for the schemes that use the salvage machinery.
    EXPECT_LE(ep.reportsSinceSalvageStart, 3)
        << schemeName(kind) << " stuck in salvage at t=" << ep.now;
  }
}

std::string paramName(
    const ::testing::TestParamInfo<std::tuple<SchemeKind, std::uint64_t>>&
        info) {
  std::string n = schemeName(std::get<0>(info.param));
  for (char& c : n) {
    if (c == '-') c = '_';
  }
  return n + "_s" + std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, ProtocolPropertyTest,
    ::testing::Combine(::testing::ValuesIn(kAllSchemes),
                       ::testing::Values(11u, 22u, 33u)),
    paramName);

}  // namespace
}  // namespace mci::schemes
