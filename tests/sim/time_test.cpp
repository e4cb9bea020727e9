// The model-time grid of sim/time.hpp: toTick and tickTime are exact
// inverses on the grid, and agree with the hand-written conversions they
// replaced in the live daemons and the swarm.

#include "sim/time.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "sim/random.hpp"

namespace mci::sim {
namespace {

TEST(TickGrid, RoundTripsEveryTickAndMatchesTheReplacedForms) {
  Rng rng(2718);
  for (int i = 0; i < 200000; ++i) {
    // Up to 2^32 ticks: the 32-bit codec field, ~49 days of model time.
    const auto k = static_cast<std::uint64_t>(
        rng.uniformInt(0, std::int64_t{1} << 32));
    const SimTime t = tickTime(k);
    ASSERT_EQ(toTick(t), k) << t;
    // The hand-written forms toTick stands for agree with it on the grid.
    ASSERT_EQ(static_cast<std::uint64_t>(std::llround(t * 1000.0)), k) << t;
    ASSERT_EQ(static_cast<std::uint64_t>(t * 1000.0 + 0.5), k) << t;
  }
}

TEST(TickGrid, RoundsToNearestAndClampsTheEdges) {
  EXPECT_EQ(kTickSeconds, 1e-3);
  EXPECT_EQ(toTick(0.0104), 10u);
  EXPECT_EQ(toTick(0.0106), 11u);
  EXPECT_EQ(toTick(0.0), 0u);
  EXPECT_EQ(toTick(-5.0), 0u);
  EXPECT_EQ(toTick(std::numeric_limits<double>::quiet_NaN()), 0u);
  EXPECT_EQ(toTick(1e300), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(toTick(kTimeInfinity), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(tickTime(20000), 20.0);
}

}  // namespace
}  // namespace mci::sim
