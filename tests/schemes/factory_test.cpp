#include "schemes/factory.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "core/config.hpp"
#include "core/scheme_factory.hpp"
#include "db/database.hpp"
#include "db/update_history.hpp"
#include "report/sig_report.hpp"

namespace mci::schemes {
namespace {

TEST(Factory, NamesRoundTrip) {
  for (SchemeKind k : kAllSchemes) {
    const auto parsed = parseSchemeName(schemeName(k));
    ASSERT_TRUE(parsed.has_value()) << schemeName(k);
    EXPECT_EQ(*parsed, k);
  }
}

TEST(Factory, NamesAreUnique) {
  std::set<std::string> names;
  for (SchemeKind k : kAllSchemes) names.insert(schemeName(k));
  EXPECT_EQ(names.size(), std::size(kAllSchemes));
}

TEST(Factory, UnknownNameRejected) {
  EXPECT_FALSE(parseSchemeName("bogus").has_value());
  EXPECT_FALSE(parseSchemeName("").has_value());
  EXPECT_FALSE(parseSchemeName("aaw").has_value());  // case-sensitive
}

TEST(Factory, NameListAndListingEnumerateEverything) {
  const std::string list = schemeNameList();
  const std::string listing = schemeListing();
  for (SchemeKind k : kAllSchemes) {
    EXPECT_NE(list.find(schemeName(k)), std::string::npos) << schemeName(k);
    EXPECT_NE(listing.find(schemeName(k)), std::string::npos) << schemeName(k);
    EXPECT_NE(listing.find(schemeDescription(k)), std::string::npos)
        << schemeName(k);
  }
}

TEST(Factory, PaperSchemesMatchTheFiguresLegend) {
  ASSERT_EQ(std::size(kPaperSchemes), 4u);
  EXPECT_EQ(kPaperSchemes[0], SchemeKind::kAaw);
  EXPECT_EQ(kPaperSchemes[1], SchemeKind::kAfw);
  EXPECT_EQ(kPaperSchemes[2], SchemeKind::kTsChecking);
  EXPECT_EQ(kPaperSchemes[3], SchemeKind::kBs);
  EXPECT_STREQ(schemeLegend(SchemeKind::kAaw), "adaptive with adjusting window");
  EXPECT_STREQ(schemeLegend(SchemeKind::kBs), "bit sequences");
  EXPECT_STREQ(schemeLegend(SchemeKind::kTs), "TS");
}

// The live client drops a report whose kind clientTakesReport refuses, so
// the table must accept what every scheme's own server broadcasts.
TEST(Factory, EveryClientTakesItsServersReport) {
  for (SchemeKind k : kAllSchemes) {
    core::SimConfig cfg;
    cfg.scheme = k;
    cfg.dbSize = 200;
    const report::SizeModel sizes = cfg.sizeModel();
    db::UpdateHistory history(cfg.dbSize);
    db::Database db(cfg.dbSize);
    db.applyUpdate(7, 3.0);
    history.record(7, 3.0);
    std::unique_ptr<report::SignatureTable> sigTable;
    if (k == SchemeKind::kSig) {
      sigTable = std::make_unique<report::SignatureTable>(
          cfg.dbSize, cfg.sigSubsets, cfg.sigPerItem, 1);
    }
    const auto server =
        core::makeServerScheme(cfg, history, db, sizes, sigTable.get());
    const report::ReportPtr r = server->buildReport(cfg.broadcastPeriod);
    EXPECT_TRUE(clientTakesReport(k, r->kind))
        << schemeName(k) << " refuses " << report::reportKindName(r->kind);
  }
}

}  // namespace
}  // namespace mci::schemes
