#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cache/lru_cache.hpp"
#include "report/sizing.hpp"
#include "schemes/factory.hpp"
#include "workload/disconnect.hpp"
#include "workload/pattern.hpp"
#include "workload/query_generator.hpp"

namespace mci::core {

/// Which Table-2 workload drives the client queries.
enum class WorkloadKind {
  kUniform,  ///< queries uniform over the whole database
  kHotCold,  ///< 80% of queries to items [0,100), rest to the remainder
};

[[nodiscard]] constexpr const char* workloadName(WorkloadKind w) {
  return w == WorkloadKind::kUniform ? "UNIFORM" : "HOTCOLD";
}

/// Full configuration of one simulation run. Defaults are Table 1 of the
/// paper; every figure's bench overrides the swept parameter(s) only.
struct SimConfig {
  // --- Table 1 ---
  double simTime = 100000.0;            ///< seconds
  std::size_t numClients = 100;
  std::size_t dbSize = 10000;           ///< paper sweeps 1000..80000
  std::uint64_t dataItemBytes = 8192;
  double clientBufferFrac = 0.02;       ///< 1% or 2% of database size
  cache::ReplacementPolicy replacement = cache::ReplacementPolicy::kLru;
  double broadcastPeriod = 20.0;        ///< L, seconds
  double downlinkBps = 10000.0;
  double uplinkBps = 10000.0;           ///< 1%..100% of downlink
  std::uint64_t controlMessageBytes = 512;
  double meanThinkTime = 100.0;
  double meanItemsPerQuery = 1.0;       ///< DESIGN.md substitution #2
  double meanItemsPerUpdate = 5.0;
  double meanUpdateInterarrival = 100.0;
  double meanDisconnectTime = 200.0;    ///< paper sweeps 200..8000
  double disconnectProb = 0.1;          ///< p, paper sweeps 0.1..0.8
  int windowIntervals = 10;             ///< w, broadcast invalidation window

  /// Client heterogeneity: per-client think time and disconnection
  /// probability are scaled by a factor drawn uniformly from
  /// [1-h, 1+h]. 0 (default) = the paper's identical-clients population;
  /// larger values make some hosts chatty and others sleepy, which the
  /// per-client fairness statistics expose.
  double clientHeterogeneity = 0.0;

  // --- model choices ---
  schemes::SchemeKind scheme = schemes::SchemeKind::kAaw;
  WorkloadKind workload = WorkloadKind::kUniform;
  workload::HotColdSpec hotQuery{0, 100, 0.8};    ///< Table 2 HOTCOLD column
  bool hotColdUpdates = false;                    ///< Table 2: updates all-DB
  workload::HotColdSpec hotUpdate{0, 100, 0.8};
  /// kPostQuery reproduces the paper's figures: it is the only reading of
  /// §4 under which the downlink saturates as the paper's "bandwidth is
  /// always fully utilized" assumption requires (DESIGN.md substitution #4).
  workload::DisconnectModel disconnectModel =
      workload::DisconnectModel::kPostQuery;

  /// Multi-channel extension (paper §6 future work): bandwidths of
  /// dedicated point-to-point data channels. Empty = the paper's single
  /// shared downlink.
  std::vector<double> dataChannelBps;

  // --- DTS scheme parameters (ablations only) ---
  int dtsMinWindow = 2;
  int dtsMaxWindow = 200;
  double dtsAlpha = 2.0;  ///< target expected updates per per-item window

  // --- GCORE scheme parameter (ablations only) ---
  std::size_t gcoreGroupSize = 64;

  // --- SIG scheme parameters (ablations only) ---
  std::size_t sigSubsets = 512;
  int sigPerItem = 4;
  int sigVotes = 0;  ///< <=0: all memberships (the stale-safe setting)

  // --- bookkeeping ---
  std::uint64_t seed = 42;
  int timestampBits = 32;
  /// Abort (via assert in the collector) on any stale cache answer. Keep on
  /// everywhere; it is the reproduction's core correctness invariant.
  bool auditStaleReads = true;
  /// Keep the latest N model events in Simulation::trace() (0 = off).
  std::size_t traceCapacity = 0;
  /// Measurement starts after this many simulated seconds: the collector is
  /// reset so the cold-cache transient does not pollute steady-state
  /// numbers. 0 = measure from the start (the paper's methodology).
  double warmupTime = 0;

  /// Client buffer capacity in items (at least 1).
  [[nodiscard]] std::size_t cacheCapacity() const;

  /// The bit-size model implied by this configuration.
  [[nodiscard]] report::SizeModel sizeModel() const;

  /// The client workload every face draws by: the query pattern, think
  /// and query-size means, and the disconnection law.
  [[nodiscard]] workload::AccessPattern queryPattern() const;
  [[nodiscard]] workload::QueryGenerator::Params queryParams() const;
  [[nodiscard]] workload::Disconnector::Params disconnectParams() const;

  /// Throws std::invalid_argument on inconsistent settings.
  void validate() const;

  /// One-line summary for bench/example output.
  [[nodiscard]] std::string describe() const;
};

}  // namespace mci::core
