#include "metrics/json.hpp"

#include <gtest/gtest.h>

#include "core/simulation.hpp"

namespace mci::metrics {
namespace {

TEST(JsonEscape, HandlesSpecials) {
  EXPECT_EQ(jsonEscape("plain"), "plain");
  EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(jsonEscape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(Json, SimResultRoundTripsKeyFields) {
  SimResult r;
  r.simTime = 1000;
  r.queriesCompleted = 42;
  r.cacheHits = 10;
  r.cacheMisses = 32;
  r.itemsReferenced = 42;
  r.uplink.controlBits = 84;
  const std::string j = toJson(r);
  EXPECT_NE(j.find("\"queriesCompleted\":42"), std::string::npos);
  EXPECT_NE(j.find("\"throughput\":42"), std::string::npos);
  EXPECT_NE(j.find("\"uplinkCheckBitsPerQuery\":2"), std::string::npos);
  EXPECT_NE(j.find("\"staleReads\":0"), std::string::npos);
  EXPECT_EQ(j.front(), '{');
  EXPECT_EQ(j.back(), '}');
  // Balanced braces/brackets (cheap well-formedness probe).
  int depth = 0;
  bool inString = false;
  for (std::size_t i = 0; i < j.size(); ++i) {
    const char c = j[i];
    if (c == '"' && (i == 0 || j[i - 1] != '\\')) inString = !inString;
    if (inString) continue;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(inString);
}

TEST(Json, FigureDataSchema) {
  const FigureData d{
      .title = "Figure \"5\"",
      .subtitle = "",
      .xLabel = "N",
      .yLabel = "queries",
      .xs = {1, 2},
      .series = {{"AAW", {3.5, 4.0}, {}}, {"BS", {1.0, 2.0}, {0.1, 0.2}}},
  };
  const std::string j = toJson(d);
  EXPECT_NE(j.find("\"title\":\"Figure \\\"5\\\"\""), std::string::npos);
  EXPECT_NE(j.find("\"xs\":[1,2]"), std::string::npos);
  EXPECT_NE(j.find("\"ys\":[3.5,4]"), std::string::npos);
  EXPECT_NE(j.find("\"sds\":[0.1,0.2]"), std::string::npos);
  // The first series has no replication spread and thus no sds key before
  // its closing brace.
  const auto aaw = j.find("\"AAW\"");
  const auto close = j.find('}', aaw);
  EXPECT_EQ(j.substr(aaw, close - aaw).find("sds"), std::string::npos);
}

TEST(Json, RealRunSerializes) {
  core::SimConfig cfg;
  cfg.simTime = 1500;
  cfg.numClients = 10;
  cfg.dbSize = 200;
  const auto r = core::Simulation(cfg).run();
  const std::string j = toJson(r);
  EXPECT_NE(j.find("\"downlink\""), std::string::npos);
  EXPECT_NE(j.find("\"fairness\""), std::string::npos);
  EXPECT_EQ(j.find("inf"), std::string::npos);
  EXPECT_EQ(j.find("nan"), std::string::npos);
}

}  // namespace
}  // namespace mci::metrics
