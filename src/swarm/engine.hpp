#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/annotations.hpp"
#include "core/config.hpp"
#include "db/database.hpp"
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

/// AoI/latency histograms kept per cohort (client % kCohorts) and merged
/// exactly at finalize() (Hist::merge) — per-population tails without a
/// shared histogram cache line on the hot path.
struct SwarmCohorts {
  static constexpr std::uint32_t kCohorts = 8;
  std::array<metrics::Hist, kCohorts> aoiMs;  ///< hit age-of-information, ms
  std::array<metrics::Hist, kCohorts> latencyMs;  ///< query latency, model ms
};

/// The vectorized client emulator: drives the whole SwarmState population
/// from the per-shard report stream one UplinkMux delivers. Every client
/// runs the shared lifecycle of core/client_lifecycle.hpp
/// (docs/protocols.md, "Client lifecycle") over its SwarmState row; this
/// class keeps the mechanics: the columns, the mux, cohort histograms, and
/// deadlines polled at report ticks instead of timers. On a shard-s report
/// at tick T, for every client:
///
///   (a) wake it if dozing and its dozeEnd <= T,
///   (b) promote it to a query if thinking and its thinkDeadline <= T,
///   (c) apply the once-decoded report through core/client_rule.hpp over a
///       PartitionView; its entries are applied as one pass over the
///       partition's slots against the report's listed-tick table,
///   (d)-(e) hand the report to the lifecycle: answer on shard s (misses
///       are staged on the mux and flushed at tick end), or flip the
///       interval coin on shard 0.
///
/// Every client-visible event happens at a report, so this is
/// observationally equivalent to timers. All model time lives on the
/// millisecond grid of sim/time.hpp: a run is a pure function of (seed,
/// report tick sequence), independent of how many endpoints the mux uses.
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
    return sim::tickTime(lastTick_);
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
  void onReportPayload(std::uint32_t shard,
                       std::span<const std::uint8_t> payload) override;
  void onDataItem(std::uint32_t shard, std::uint32_t client, db::ItemId item,
                  db::Version version, Tick fetchTick, Tick readTick) override;
  MCI_HOT void prefetchDataItem(std::uint32_t client,
                                db::ItemId item) const override;
  void onCheckAck(std::uint32_t shard, std::uint32_t client,
                  Tick asOfTick) override;
  void onConnectionLost(std::uint32_t shard) override;
  void onMapUpdate(const live::ShardMap& oldMap,
                   const live::ShardMap& newMap) override;

 private:
  /// One client row as the lifecycle's view (defined in engine.cpp).
  class Life;

  /// The shared sweep: phases (a)-(e) above for one report.
  MCI_HOT void tick(std::uint32_t shard, Tick now, bool isTs, Tick coverage,
                    const report::BsReport* bs);

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
  double tlbBits_ = 0;  ///< SizeModel::tlbMessageBits(), sent with checks
  workload::Disconnector::Params dozeParams_;

  SwarmState state_;
  std::vector<std::uint32_t> pendingFetch_;  ///< outstanding items, per client
  Tick lastTick_ = 0;
  std::uint32_t cacheCapacity_ = 0;  ///< from Welcome; reused at reshard

  // ReportCodec::readTs scratch for the current TS report (capacity reused).
  std::vector<report::TsRecord> entries_;
  /// The current TS report's entries_ as a per-item table: listed before
  /// the sweep, cleared after it.
  ListedTicks listedTick_;
  std::vector<db::ItemId> queryScratch_;  ///< drawQueryItems buffer

  SwarmStats stats_;
  SwarmCohorts cohorts_;
};

}  // namespace mci::swarm
