#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "db/database.hpp"
#include "net/network.hpp"
#include "schemes/scheme.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"

namespace mci::metrics {

/// Everything a finished run reports. The two figure metrics of the paper
/// are throughput() (queries answered in the simulation time) and
/// uplinkCheckBitsPerQuery() (Figures 6/8/10/12/14's y axis).
struct SimResult {
  double simTime = 0;

  // query side
  std::uint64_t queriesCompleted = 0;
  std::uint64_t itemsReferenced = 0;
  std::uint64_t cacheHits = 0;
  std::uint64_t cacheMisses = 0;
  std::uint64_t staleReads = 0;  ///< must be 0 for every scheme
  double avgQueryLatency = 0;
  double maxQueryLatency = 0;
  double p50QueryLatency = 0;  ///< histogram-estimated median
  double p95QueryLatency = 0;  ///< histogram-estimated tail

  // cache side
  std::uint64_t invalidations = 0;
  std::uint64_t falseInvalidations = 0;  ///< victim was actually current
  std::uint64_t cacheDropEvents = 0;
  std::uint64_t entriesDropped = 0;
  std::uint64_t entriesSalvaged = 0;

  // protocol side
  std::uint64_t checksSent = 0;       ///< uplink Tlb / checking requests
  std::uint64_t validityReplies = 0;  ///< downlink validity reports
  std::uint64_t reportsTs = 0;
  std::uint64_t reportsExtended = 0;
  std::uint64_t reportsBs = 0;
  std::uint64_t reportsSig = 0;

  // disconnection side
  std::uint64_t disconnects = 0;
  double dozeSeconds = 0;

  /// Per-client population summary: the aggregates hide how unevenly the
  /// schemes treat individual hosts (a client that dozed through a BS
  /// coverage horizon loses everything; its neighbours lose nothing).
  struct ClientSpread {
    double minQueries = 0;
    double meanQueries = 0;
    double maxQueries = 0;
    /// Jain's fairness index over per-client answered queries:
    /// (sum x)^2 / (n * sum x^2); 1.0 = perfectly even.
    double fairness = 1.0;
    double minHitRatio = 0;
    double meanHitRatio = 0;
    double maxHitRatio = 0;
  };
  ClientSpread clients;

  // client radio activity (paper §1's power-efficiency criterion):
  // bits the mobile hosts transmitted (checks + query requests) and
  // received (reports heard, data items, validity replies).
  double clientTxBits = 0;
  double clientRxBits = 0;

  // channel usage (delivered bits / busy seconds per class)
  net::ChannelUsage downlink;
  net::ChannelUsage uplink;
  /// Aggregate over dedicated data channels (multi-channel extension);
  /// all-zero in the paper's single-downlink configuration.
  net::ChannelUsage dataChannels;

  /// Paper throughput: "number of queries answered" over the run.
  [[nodiscard]] double throughput() const {
    return static_cast<double>(queriesCompleted);
  }

  /// Paper uplink metric: validity-checking uplink bits per answered query.
  [[nodiscard]] double uplinkCheckBitsPerQuery() const {
    return queriesCompleted == 0
               ? 0.0
               : uplink.controlBits / static_cast<double>(queriesCompleted);
  }

  /// All uplink traffic (checks + query requests) per answered query.
  [[nodiscard]] double uplinkTotalBitsPerQuery() const {
    return queriesCompleted == 0
               ? 0.0
               : uplink.totalBits() / static_cast<double>(queriesCompleted);
  }

  [[nodiscard]] double hitRatio() const {
    const std::uint64_t total = cacheHits + cacheMisses;
    return total == 0 ? 0.0
                      : static_cast<double>(cacheHits) / static_cast<double>(total);
  }

  /// Client radio energy under a linear bits model. Transmission is far
  /// more expensive than reception on a mobile host (the paper cites power
  /// growing with the fourth power of distance); the default 10:1 ratio is
  /// a conventional nominal figure — both constants are parameters.
  [[nodiscard]] double radioEnergyJoules(double txJoulesPerBit = 1e-5,
                                         double rxJoulesPerBit = 1e-6) const {
    return clientTxBits * txJoulesPerBit + clientRxBits * rxJoulesPerBit;
  }

  [[nodiscard]] double energyPerQueryJoules(double txJoulesPerBit = 1e-5,
                                            double rxJoulesPerBit = 1e-6) const {
    return queriesCompleted == 0
               ? 0.0
               : radioEnergyJoules(txJoulesPerBit, rxJoulesPerBit) /
                     static_cast<double>(queriesCompleted);
  }

  [[nodiscard]] double downlinkIrFraction() const {
    const double total = downlink.totalSeconds();
    return total <= 0 ? 0.0 : downlink.irSeconds / total;
  }
};

/// Gathers per-run statistics. Implements the cache-event sink that
/// ClientContext notifies, and is the home of the stale-read auditor: every
/// cache answer is cross-checked against the database's version history.
class Collector final : public schemes::CacheEventSink {
 public:
  /// `database` is the ground truth for the staleness audit and the
  /// false-invalidation classification; nullptr means there is none (a
  /// remote client pool). `auditStaleReads`: abort on the first stale
  /// answer (tests and benches keep this on; it is the correctness
  /// invariant of the paper's schemes).
  Collector(const db::Database* database, bool auditStaleReads);

  /// Sharded ground truth: when set, staleness audits consult
  /// resolver(item) instead of the construction-time database — in a
  /// cluster each item's authoritative versions live on its owner shard
  /// only. A resolver returning nullptr skips the audit for that item.
  /// Resolved databases must outlive the collector.
  void setDatabaseResolver(
      std::function<const db::Database*(db::ItemId)> resolver) {
    resolver_ = std::move(resolver);
  }

  // CacheEventSink
  void onInvalidate(schemes::ClientId client, db::ItemId item,
                    db::Version version) override;
  void onCacheDrop(schemes::ClientId client, std::size_t entries) override;
  void onSalvage(schemes::ClientId client, std::size_t entries) override;

  // client state machine hooks
  /// Sizes the per-client accounting; call once before the run starts.
  void setClientCount(std::size_t numClients);

  /// A query item answered from cache; `validAsOf` is the client's last
  /// heard report time (the consistency point the schemes promise).
  void onCacheAnswer(schemes::ClientId client, db::ItemId item,
                     db::Version version, sim::SimTime validAsOf);
  void onCacheMiss(schemes::ClientId client);
  void onQueryCompleted(schemes::ClientId client, double latencySeconds);
  void onDisconnect();
  void onReconnect(double dozeSeconds);
  void onCheckSent();
  /// Radio accounting: bits a client put on the air / pulled off the air.
  void onClientTx(double bits);
  void onClientRx(double bits);

  // server hooks
  void onReportBuilt(report::ReportKind kind);
  void onValidityReplySent();

  /// Restarts measurement at the current instant: zeroes every counter.
  /// Call after the warm-up horizon (SimConfig::warmupTime) so steady-state
  /// figures are not polluted by the cold-cache transient.
  void resetForMeasurement();

  /// Routes a human-readable line per model event into `trace` (which must
  /// already be enabled), timestamped via `simulator`. Both pointers must
  /// outlive the collector. Pass nullptrs to detach.
  void attachTrace(const sim::Simulator* simulator, sim::Trace* trace);

  /// Snapshot of the totals. The channel-usage fields stay zero: the owner
  /// of the network, if there is one, fills them in (core::Simulation).
  [[nodiscard]] SimResult finalize(double simTime) const;

  [[nodiscard]] std::uint64_t staleReads() const { return result_.staleReads; }

 private:
  /// Records the line `format()` returns when a trace is attached. The
  /// text is built only then: an untraced run formats nothing.
  template <class Format>
  void trace(sim::TraceCategory category, std::int64_t actor,
             const Format& format) {
    if (trace_ != nullptr && traceSim_ != nullptr) {
      record(category, actor, format());
    }
  }
  void record(sim::TraceCategory category, std::int64_t actor,
              std::string message);

  [[nodiscard]] const db::Database* dbFor(db::ItemId item) const {
    return resolver_ ? resolver_(item) : db_;
  }

  const db::Database* db_;
  std::function<const db::Database*(db::ItemId)> resolver_;
  bool audit_;
  SimResult result_;
  sim::Welford latency_;
  const sim::Simulator* traceSim_ = nullptr;
  sim::Trace* trace_ = nullptr;
  sim::Histogram latencyHist_{0.0, 5000.0, 500};

  struct PerClient {
    std::uint64_t queries = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  std::vector<PerClient> perClient_;
};

/// Combines per-shard results into one cluster-wide view: counters and bit
/// totals sum, latency means are weighted by completed queries, maxes take
/// the max, and simTime takes the longest shard. Percentiles and the
/// client-spread block are queries-weighted means of the shard values — an
/// approximation (the underlying histograms are not mergeable after the
/// fact), good enough for the launcher's summary line.
[[nodiscard]] SimResult mergeResults(const std::vector<SimResult>& parts);

}  // namespace mci::metrics
