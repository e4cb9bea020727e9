#pragma once

#include "sim/random.hpp"

namespace mci::workload {

/// When a client decides to doze. The paper's §4 text admits two readings
/// (see DESIGN.md substitution #4); both are implemented and selectable.
enum class DisconnectModel {
  /// "each client may enter into a disconnection mode with a probability p
  /// in each broadcast interval": while idle (thinking), flip a coin at
  /// every broadcast boundary. Matches the figures' x-axis label
  /// "Probability of Disconnection in an Interval" literally, but leaves
  /// the downlink under-utilized at long doze times.
  kIntervalCoin,
  /// "the arrival of a new query is separated from the completion of the
  /// previous query by either an exponentially distributed think time or an
  /// exponentially distributed disconnection time" (Jing et al.'s model,
  /// which §4 says it follows): flip once per completed query. This is the
  /// default — it is the reading that saturates the channel and reproduces
  /// the paper's throughput magnitudes (see DESIGN.md substitution #4).
  kPostQuery,
};

[[nodiscard]] constexpr const char* disconnectModelName(DisconnectModel m) {
  return m == DisconnectModel::kIntervalCoin ? "interval-coin" : "post-query";
}

/// Per-client disconnection behaviour: the coin and the doze duration,
/// drawn coin first from the client's own "disc" stream.
class Disconnector {
 public:
  struct Params {
    DisconnectModel model = DisconnectModel::kIntervalCoin;
    double probability = 0.1;    ///< p, per interval or per query
    double meanDuration = 200.0; ///< mean doze seconds (Table 1: 200..8000)
  };

  Disconnector(Params params, sim::Rng rng) : params_(params), rng_(rng) {}

  /// One disconnection decision (at an interval boundary or query end,
  /// depending on the model), from a stream held anywhere: a
  /// Disconnector's own, or a swarm client's rngDisc column.
  static bool coin(const Params& p, sim::Rng& rng) {
    return rng.bernoulli(p.probability);
  }

  /// Draws the doze duration; always after the coin that started it.
  static double duration(const Params& p, sim::Rng& rng) {
    return rng.exponential(p.meanDuration);
  }

  [[nodiscard]] const Params& params() const { return params_; }
  sim::Rng& rng() { return rng_; }

 private:
  Params params_;
  sim::Rng rng_;
};

}  // namespace mci::workload
