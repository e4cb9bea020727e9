#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/annotations.hpp"
#include "core/config.hpp"
#include "db/database.hpp"
#include "live/clock.hpp"
#include "live/reactor.hpp"
#include "metrics/hist.hpp"
#include "report/codec.hpp"
#include "swarm/mux.hpp"
#include "swarm/state.hpp"
#include "workload/pattern.hpp"
#include "workload/zipf.hpp"

namespace mci::swarm {

struct SwarmOptions {
  /// Client-side knobs (seed, workload, disconnect model); scheme, database
  /// shape, period and time scale arrive in the server's Welcome, exactly
  /// as for live::ClientPool.
  core::SimConfig cfg;
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< seed shard TCP port
  std::uint32_t clients = 100000;
  std::uint32_t endpointsPerShard = 4;
  /// >= 0 replaces the configured UNIFORM/HOTCOLD item picker with a
  /// Zipf(theta) popularity law over the database (ranks = item ids).
  double zipfTheta = -1.0;
  /// AoI/latency histograms are kept per cohort (client % cohorts) and
  /// merged exactly at finalize() — per-population tails without a shared
  /// histogram cache line on the hot path.
  std::uint32_t cohorts = 8;
  /// In-process runs: audit every cache hit against the authoritative
  /// per-shard databases (indexed by shard). Empty = no audit.
  std::vector<const db::Database*> auditDbs;
  /// Elastic runs: resolves the authoritative database for a shard index
  /// under the *current* epoch (a reshard adds shards auditDbs cannot
  /// know). When set it replaces auditDbs entirely; nullptr = skip audit
  /// for that shard.
  std::function<const db::Database*(std::uint32_t)> auditDbResolver;
  /// Forwarded to UplinkMux::Options::allocProbe (hot-path alloc gate).
  std::uint64_t (*allocProbe)() = nullptr;
};

/// Aggregated model statistics of a swarm run.
struct SwarmStats {
  std::uint64_t queriesCompleted = 0;
  std::uint64_t cacheHits = 0;
  std::uint64_t cacheMisses = 0;
  std::uint64_t staleReads = 0;
  std::uint64_t dozes = 0;
  std::uint64_t wakes = 0;
  std::uint64_t reportsProcessed = 0;  ///< shared decodes (per shard tick)
  std::uint64_t bsReports = 0;
  std::uint64_t extendedReports = 0;
  std::uint64_t unsupportedReports = 0;
  /// Fetched copies discarded because a report was applied on the shard
  /// after the fetch went out (the copy would land behind the partition's
  /// consistency point; see SwarmEmulator::onDataItem).
  std::uint64_t lateFetchesDropped = 0;
  /// Awake-client report applications: the denominator of the
  /// allocations-per-client-tick gate and the clients/s throughput figure.
  std::uint64_t clientTicks = 0;

  [[nodiscard]] double hitRatio() const {
    const std::uint64_t total = cacheHits + cacheMisses;
    return total == 0
               ? 0.0
               : static_cast<double>(cacheHits) / static_cast<double>(total);
  }
};

/// Per-cohort histograms plus their exact merge (Hist::merge).
struct SwarmCohorts {
  std::vector<metrics::Hist> aoiMs;      ///< hit age-of-information, ms
  std::vector<metrics::Hist> latencyMs;  ///< query latency, model ms
};

/// The vectorized client emulator: drives the whole SwarmState population
/// from the per-shard report stream one UplinkMux delivers.
///
/// Where ClientPool runs one state machine (timers, sockets, scheme
/// objects) per agent, the emulator runs the same model as flat array
/// sweeps keyed off report arrivals ("lazy ticks"):
///
///   on a shard-s report at tick T:
///     (a) wake every dozer whose dozeEnd <= T (onWake gap handling on
///         every shard, then resume think or query-after-wake),
///     (b) promote every thinker whose thinkDeadline <= T to a query
///         (drawn from its own rngQuery stream by QueryGenerator's law),
///     (c) apply the report once-decoded across all awake clients through
///         the adaptive client rule of core/client_rule.hpp (the code
///         AdaptiveClientScheme::onReport runs), over a PartitionView,
///     (d) answer waiting queries on shard s (hit/miss/AoI/audit; misses
///         are staged on the mux and batch-flushed at tick end),
///     (e) flip the interval-coin for still-thinking clients (shard-0
///         reports only, kIntervalCoin model — matching the pool).
///
/// Timer-driven and report-driven execution are observationally equivalent
/// here because every client-visible event in this model — report
/// application, query answering, doze coins — happens at a report anyway;
/// think/doze deadlines only need to be resolved against the report's
/// model tick. All model time lives on the LiveClock millisecond grid, so
/// every scheme comparison is an exact integer compare and a run is a pure
/// function of (seed, report tick sequence) — independent, in particular,
/// of how many TCP endpoints the mux multiplexes the uplink over.
///
/// Only the adaptive schemes (AFW/AAW) are supported; configure() rejects
/// anything else.
class SwarmEmulator final : public SwarmSink {
 public:
  SwarmEmulator(live::Reactor& reactor, SwarmOptions opts);

  /// Dials the cluster (UplinkMux::connect).
  void start();
  void shutdown();

  [[nodiscard]] bool ready() const { return started_; }
  [[nodiscard]] bool configured() const { return configured_; }
  /// Latest model tick heard from any shard (ms).
  [[nodiscard]] Tick nowTick() const { return lastTick_; }
  [[nodiscard]] double modelNow() const {
    return live::LiveClock::tickToTime(lastTick_);
  }

  [[nodiscard]] const SwarmStats& stats() const { return stats_; }
  [[nodiscard]] const UplinkMux& mux() const { return *mux_; }
  [[nodiscard]] const SwarmState& state() const { return state_; }
  [[nodiscard]] std::size_t memoryBytes() const { return state_.memoryBytes(); }

  /// Merged cohort histograms (exact; see metrics::Hist::merge).
  [[nodiscard]] metrics::Hist aoiHistMs() const;
  [[nodiscard]] metrics::Hist latencyHistMs() const;

  // --- SwarmSink ---
  void onWelcome(const live::wire::Welcome& w) override;
  void onMuxReady() override;
  void onReportPayload(std::uint32_t shard, const std::uint8_t* data,
                       std::size_t len) override;
  void onDataItem(std::uint32_t shard, std::uint32_t client, db::ItemId item,
                  db::Version version, Tick fetchTick, Tick readTick) override;
  void onCheckAck(std::uint32_t shard, std::uint32_t client,
                  Tick asOfTick) override;
  void onConnectionLost(std::uint32_t shard) override;
  void onMapUpdate(const live::ShardMap& oldMap,
                   const live::ShardMap& newMap) override;

 private:
  [[nodiscard]] MCI_HOT db::ItemId pickItem(sim::Rng& rng) const;
  MCI_HOT void drawQuery(std::uint32_t c, double startModel);
  MCI_HOT void wake(std::uint32_t c);
  MCI_HOT void beginDoze(std::uint32_t c, double nowModel,
                         bool queryAfterWake);
  MCI_HOT void completeQuery(std::uint32_t c, Tick now);

  /// The shared sweep: phases (a)-(e) above for one report.
  MCI_HOT void tick(std::uint32_t shard, Tick now, bool isTs, Tick coverage,
                    const report::BsReport* bs);
  MCI_HOT void answerShard(std::uint32_t c, std::uint32_t s, Tick now);

  live::Reactor& reactor_;
  SwarmOptions opts_;
  std::unique_ptr<UplinkMux> mux_;

  bool configured_ = false;
  bool started_ = false;
  core::SimConfig cfg_;  ///< opts_.cfg overlaid with Welcome fields
  report::SizeModel sizes_;
  std::unique_ptr<report::ReportCodec> codec_;
  std::optional<workload::AccessPattern> pattern_;
  std::optional<workload::ZipfGenerator> zipf_;
  int tsBits_ = 32;
  int itemBits_ = 14;
  double tlbBits_ = 0;  ///< SizeModel::tlbMessageBits(), sent with checks

  SwarmState state_;
  std::vector<std::uint32_t> pendingFetch_;  ///< outstanding items, per client
  Tick lastTick_ = 0;
  std::uint32_t cacheCapacity_ = 0;  ///< from Welcome; reused at reshard

  // Shared decode scratch for the current TS report (capacity reused).
  std::vector<db::ItemId> entryItem_;
  std::vector<Tick> entryTick_;
  std::vector<db::ItemId> queryScratch_;  ///< nextQuery mirror buffer
  std::vector<std::uint8_t> bsFrame_;     ///< BS decode copy (rare path)

  SwarmStats stats_;
  SwarmCohorts cohorts_;
};

}  // namespace mci::swarm
