#pragma once

#include <netinet/in.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "db/database.hpp"
#include "live/clock.hpp"
#include "live/frame_stream.hpp"
#include "live/reactor.hpp"
#include "live/shard_map.hpp"
#include "live/udp_batch.hpp"
#include "live/wire.hpp"
#include "metrics/collector.hpp"
#include "metrics/hist.hpp"
#include "net/network.hpp"
#include "report/codec.hpp"
#include "report/sig_report.hpp"
#include "schemes/scheme.hpp"
#include "workload/disconnect.hpp"
#include "workload/pattern.hpp"
#include "workload/query_generator.hpp"

namespace mci::live {

struct AgentOptions {
  /// Client-side knobs: seed, think/query/disconnect workload, replacement
  /// policy. Scheme, database shape, period, time scale and the cluster
  /// shard map all arrive in the server's Welcome — the agent adapts to
  /// whatever daemon (or cluster) it joins.
  core::SimConfig cfg;
  /// Seed shard: any one member of the cluster. Its Welcome carries the
  /// shard map; the agent then connects to every other shard on its own.
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::size_t numAgents = 1;
  /// Echo every cache answer as a kAudit frame (routed to the item's owner
  /// shard) so the server audits it against the authoritative partition.
  bool sendAudit = true;
  /// In-process runs: audit locally against the real per-shard databases,
  /// indexed by shard. Empty (separate processes) means no local ground
  /// truth — local audits then never fire, which is why sendAudit exists.
  std::vector<const db::Database*> auditDbs;
};

struct PoolStats {
  std::uint64_t reportsHeard = 0;
  /// reportsHeard split by originating shard (sized at configuration).
  std::vector<std::uint64_t> reportsHeardPerShard;
  /// Undecodable frames, including uplink frames skipped for a failed
  /// checksum.
  std::uint64_t badFrames = 0;
  std::uint64_t connectionsLost = 0;  ///< TCP closed other than by shutdown()
  std::uint64_t mapUpdatesHeard = 0;  ///< kMapUpdate frames (TCP or IR)
  std::uint64_t staleMapUpdates = 0;  ///< announces at or below our epoch
  std::uint64_t epochSwitches = 0;    ///< shard-map flips actually applied
  /// Kernel entries spent draining UDP downlinks (one per recvmmsg batch
  /// or per fallback recv). bench_live divides by reports heard.
  std::uint64_t udpRecvSyscalls = 0;
  /// Wall-clock query latency (issue -> complete), microseconds. p50/p99/
  /// p999 via Hist::pct — the live latency SLO surface.
  metrics::Hist queryLatencyUs;
};

class ClientPool;

/// One mobile host speaking the live wire protocol: the state machine of
/// core::Client (think → query → answer-on-next-report → fetch misses →
/// doze coin) driven by reactor timers and real sockets instead of
/// simulator events. Dozing is modeled faithfully: the agent ignores its
/// UDP sockets while dozing (the radio is off) but keeps TCP up.
///
/// Against a cluster the agent holds one downlink + uplink pair per shard
/// (discovered from the seed shard's Welcome) and routes by item: queries,
/// checks and audits go to the owner shard, and each link runs its own
/// ClientScheme + ClientContext so AFW/AAW windows, Tlb and disconnection
/// gaps are tracked against that shard's report stream. A query fans out
/// to every involved shard and completes when each has answered on its own
/// next report and all fetches drained; cache capacity is split evenly
/// across the per-shard caches. The doze coin is flipped once per interval
/// (on shard 0's reports), matching the simulator's per-report flip.
class ClientAgent {
 public:
  ClientAgent(ClientPool& pool, std::size_t index);
  ~ClientAgent();

  ClientAgent(const ClientAgent&) = delete;
  ClientAgent& operator=(const ClientAgent&) = delete;

  /// Connects to the seed shard and sends Hello; the remaining shards are
  /// dialed when its Welcome reveals the map. Throws std::runtime_error on
  /// socket failure (including a refused multicast join).
  void connect();

  /// Sends Bye on every link and closes (clean shutdown).
  void shutdown();

  /// True once every shard link has been welcomed.
  [[nodiscard]] bool welcomed() const {
    return !links_.empty() && welcomedLinks_ == links_.size();
  }

  /// Flips this agent onto a newer cluster epoch (pool-driven, atomic per
  /// agent): surviving endpoints keep their connections, removed ones
  /// drain, joiners are dialed, and cached copies migrate to their new
  /// owner partitions as suspects — revalidated (or dropped) through the
  /// ordinary gap/salvage cycle, never served stale. No-op for announces
  /// at or below the epoch already applied.
  void applyShardMap(const ShardMap& map);
  [[nodiscard]] bool connectionAlive() const;
  /// The agent's identity: its client id on the seed shard (RNG streams
  /// and per-client metrics key off this, like a simulator client id).
  [[nodiscard]] std::uint32_t clientId() const { return agentId_; }
  [[nodiscard]] std::uint64_t queriesCompleted() const { return completed_; }

 private:
  static constexpr std::uint32_t kUnknownShard = 0xFFFFFFFFu;

  enum class State {
    kIdle,      ///< before all Welcomes
    kThinking,
    kQuerying,  ///< per-link needAnswer/fetch flags carry the progress
    kDozing,
  };

  /// One shard's connection pair plus the per-shard half of the client
  /// model: scheme instance, context (cache partition, Tlb, gap state).
  struct Link {
    std::uint32_t shard = kUnknownShard;
    std::uint32_t ipv4 = 0;       ///< endpoint identity: survives reshards
    std::uint16_t tcpPort = 0;    ///< (a shard's index may change; this not)
    bool draining = false;        ///< endpoint left the map; finish + close
    FrameStream tcp;  ///< the uplink
    int udpFd = -1;
    Reactor::FdHandle tcpReg;  ///< uplink registration (removeFd on close)
    Reactor::FdHandle udpReg;  ///< downlink registration
    std::uint32_t clientId = 0;  ///< this shard's id for us
    std::unique_ptr<schemes::ClientContext> ctx;
    std::unique_ptr<schemes::ClientScheme> scheme;
    bool needAnswer = false;          ///< query items await this shard's report
    std::vector<db::ItemId> items;    ///< current query's items on this shard
    std::vector<db::ItemId> fetch;    ///< outstanding fetches on this shard
  };

  /// Dials the shard's uplink and opens its downlink (group-joined when
  /// mcastIpv4 != 0). Throws std::runtime_error on socket failure.
  [[nodiscard]] std::unique_ptr<Link> makeLink(std::uint32_t shard,
                                               std::uint32_t ipv4,
                                               std::uint16_t tcpPort,
                                               std::uint32_t mcastIpv4,
                                               std::uint16_t mcastPort);
  /// Registers link.udpFd with the reactor.
  void watchDownlink(Link& link);
  /// Deregisters and closes both of the link's sockets.
  void closeLink(Link& link);
  void sendHello(Link& link);

  void onTcp(Link& link, std::uint32_t events);
  void onUdp(Link& link, std::uint32_t events);
  /// Decode + dispatch one downlink datagram. False when report handling
  /// dropped this agent (the caller must stop draining).
  bool handleUdpDatagram(Link& link, const std::uint8_t* data,
                         std::size_t len);
  void handleFrame(Link& link, const wire::FrameView& frame);
  void onWelcome(Link& link, const wire::Welcome& w);
  void onReportPayload(Link& link, const std::vector<std::uint8_t>& payload);
  void onDataItem(Link& link, const wire::DataItem& d);
  void onValidityReply(Link& link, const wire::ValidityReplyMsg& vr);

  void startThink(double modelSeconds);
  void issueQuery();
  void maybeAnswerLink(Link& link);
  void maybeCompleteQuery();
  void completeQuery();
  void beginDoze(bool queryAfterWake);
  void wake();
  void sendCheck(Link& link, const schemes::CheckMessage& msg);
  /// Sends one frame on the link's uplink. Returns false when the link is
  /// closed or the send hit a hard error and dropAgent() already ran (the
  /// Link object survives, closed, but the caller must stop this exchange).
  [[nodiscard]] bool sendFrame(Link& link, wire::FrameType type,
                               net::TrafficClass trafficClass,
                               const std::vector<std::uint8_t>& payload);
  void cancelTimer();
  void dropAgent();
  void closeDrainingLinks();

  ClientPool& pool_;
  std::size_t index_;
  /// Registration-owner generation for every addFd/addTimer this agent
  /// makes; retired at the end of ~ClientAgent (debug builds abort if any
  /// callback capturing `this` survives).
  Reactor::OwnerId owner_ = 0;
  /// Indexed by shard once the map is known; a lone unknown-shard entry
  /// while the seed Welcome is in flight. Heap-allocated so the reactor
  /// handlers' captured pointers survive the reindexing.
  std::vector<std::unique_ptr<Link>> links_;
  /// Links whose endpoint a reshard removed. Their fds close as soon as no
  /// query is in flight on them, but the Link objects live until agent
  /// destruction: a flip can run inside a frame handler that still holds a
  /// reference into the very link being drained.
  std::vector<std::unique_ptr<Link>> draining_;
  /// Copies bound for a joiner partition whose Welcome has not arrived
  /// yet; inserted (as suspects, as of pendingMigrateAsOf_) at Welcome.
  std::vector<cache::Entry> pendingMigrate_;
  sim::SimTime pendingMigrateAsOf_ = 0;
  std::uint32_t mapVersion_ = 0;  ///< epoch this agent's links reflect
  std::size_t welcomedLinks_ = 0;
  bool shuttingDown_ = false;

  std::uint32_t agentId_ = 0;
  std::optional<workload::QueryGenerator> queryGen_;
  std::optional<workload::Disconnector> disc_;

  State state_ = State::kIdle;
  bool radioOn_ = true;  ///< false while dozing: UDP frames are not heard
  Reactor::TimerHandle timer_;
  sim::SimTime thinkDeadline_ = 0;  ///< pool-clock model time
  sim::SimTime dozeStart_ = 0;
  sim::SimTime queryStart_ = 0;
  double queryStartWall_ = 0;  ///< reactor seconds; feeds queryLatencyUs
  bool queryAfterWake_ = false;
  std::vector<db::ItemId> queryItems_;
  std::uint64_t completed_ = 0;
};

/// N ClientAgents sharing one reactor, one metrics collector, and one
/// decoded-report codec: the live load generator. The pool configures
/// itself from the first Welcome (sizes, codec, scheme table, time scale,
/// shard map), so `mci_live_client --agents N` needs nothing but the seed
/// shard's host/port and a seed.
class ClientPool {
 public:
  ClientPool(Reactor& reactor, AgentOptions options);
  ~ClientPool();

  ClientPool(const ClientPool&) = delete;
  ClientPool& operator=(const ClientPool&) = delete;

  /// Connects all agents.
  void start();

  /// Clean shutdown: every agent sends Bye and closes.
  void shutdown();

  [[nodiscard]] std::size_t welcomedCount() const;
  [[nodiscard]] std::size_t aliveCount() const;
  [[nodiscard]] std::uint64_t queriesCompleted() const;
  [[nodiscard]] const PoolStats& stats() const { return stats_; }
  [[nodiscard]] std::uint64_t staleReads() const {
    return collector_ ? collector_->staleReads() : 0;
  }
  [[nodiscard]] const metrics::Collector* collector() const {
    return collector_.get();
  }
  /// The cluster layout learned from the seed Welcome; invalid before it.
  [[nodiscard]] const ShardMap& shardMap() const { return shardMap_; }

  /// Model seconds elapsed on the pool clock; 0 until the first Welcome
  /// (the clock's scale arrives with it).
  [[nodiscard]] double modelNow() const {
    return clock_ ? clock_->nowModel() : 0.0;
  }

  /// Snapshot of the pool's metrics in the simulator's result shape (the
  /// channel decomposition is empty: radio accounting is tracked, channel
  /// busy-seconds belong to real kernels now).
  [[nodiscard]] metrics::SimResult finalize() const;

 private:
  friend class ClientAgent;

  /// First-Welcome configuration: sizes, codec, patterns, clock, collector,
  /// shard map.
  void ensureConfigured(const wire::Welcome& w);

  /// A kMapUpdate landed on any agent's downlink or uplink: adopt the map
  /// if it advances the epoch and flip every agent atomically (no reactor
  /// iteration sees the pool's map and an agent's links disagree in size).
  void onMapUpdate(const ShardMap& map);

  Reactor& reactor_;
  AgentOptions opts_;
  std::optional<LiveClock> clock_;  ///< scale arrives in the Welcome
  std::unique_ptr<metrics::Collector> collector_;

  bool configured_ = false;
  core::SimConfig agentCfg_;  ///< opts_.cfg overlaid with Welcome fields
  report::SizeModel sizes_;
  std::unique_ptr<report::ReportCodec> codec_;
  std::optional<workload::AccessPattern> queryPattern_;
  std::unique_ptr<report::SignatureTable> sigTable_;
  std::vector<std::uint64_t> sigInitial_;
  ShardMap shardMap_;

  PoolStats stats_;
  /// Shared downlink drain buffer: one per pool, not per agent.
  UdpBatchReceiver udpReceiver_;
  std::vector<std::unique_ptr<ClientAgent>> agents_;
};

}  // namespace mci::live
