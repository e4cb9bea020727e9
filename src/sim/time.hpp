#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

namespace mci::sim {

/// Simulated time in seconds. The paper's model is specified in seconds
/// (broadcast period L = 20 s, think time 100 s, ...); double gives us
/// sub-microsecond resolution over the 1e5 s horizon used in the paper.
using SimTime = double;

/// Sentinel for "never" / "no deadline".
inline constexpr SimTime kTimeInfinity = std::numeric_limits<SimTime>::infinity();

/// Time before the simulation starts; used as the epoch for "updated never"
/// and for Tlb values of clients that have not yet heard a report.
inline constexpr SimTime kTimeEpoch = 0.0;

/// The one model-time grid: one tick is one model millisecond. Report
/// timestamps travel in ticks (ReportCodec), and every live timestamp —
/// broadcast, update and read times — is tickTime(k) for some tick k, so a
/// toTick/tickTime round trip is lossless and the live daemons make
/// bit-for-bit the staleness decisions the simulator makes
/// (docs/protocols.md, "Wire format").
inline constexpr SimTime kTickSeconds = 1e-3;

/// The tick nearest to `t`: 0 for t <= 0 (or NaN), saturating at the top
/// of the range. Round, not floor: a time already on the grid may sit just
/// below its tick in floating point, and flooring it would make it one tick
/// early, which can hide an invalidation.
[[nodiscard]] inline std::uint64_t toTick(SimTime t) {
  if (!(t > 0)) return 0;
  const double ticks = std::round(t / kTickSeconds);
  constexpr double kRange = 18446744073709551616.0;  // 2^64
  return ticks >= kRange ? std::numeric_limits<std::uint64_t>::max()
                         : static_cast<std::uint64_t>(ticks);
}

/// The model time of grid tick `tick`.
[[nodiscard]] constexpr SimTime tickTime(std::uint64_t tick) {
  return static_cast<SimTime>(tick) * kTickSeconds;
}

}  // namespace mci::sim
