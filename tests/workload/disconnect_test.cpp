#include "workload/disconnect.hpp"

#include <gtest/gtest.h>

namespace mci::workload {
namespace {

TEST(Disconnector, CoinMatchesProbability) {
  Disconnector::Params p;
  p.probability = 0.25;
  Disconnector d(p, sim::Rng(1));
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += Disconnector::coin(d.params(), d.rng()) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

TEST(Disconnector, ZeroProbabilityNeverDisconnects) {
  Disconnector::Params p;
  p.probability = 0.0;
  Disconnector d(p, sim::Rng(2));
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(Disconnector::coin(d.params(), d.rng()));
}

TEST(Disconnector, DurationMeanMatches) {
  Disconnector::Params p;
  p.meanDuration = 400.0;
  Disconnector d(p, sim::Rng(3));
  double total = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) total += Disconnector::duration(d.params(), d.rng());
  EXPECT_NEAR(total / n, 400.0, 8.0);
}

TEST(Disconnector, DurationsArePositive) {
  Disconnector::Params p;
  p.meanDuration = 10.0;
  Disconnector d(p, sim::Rng(4));
  for (int i = 0; i < 10000; ++i) EXPECT_GT(Disconnector::duration(d.params(), d.rng()), 0.0);
}

TEST(DisconnectModel, NamesAreStable) {
  EXPECT_STREQ(disconnectModelName(DisconnectModel::kIntervalCoin),
               "interval-coin");
  EXPECT_STREQ(disconnectModelName(DisconnectModel::kPostQuery), "post-query");
}

}  // namespace
}  // namespace mci::workload
