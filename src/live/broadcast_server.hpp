#pragma once

#include <netinet/in.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "db/database.hpp"
#include "db/update_history.hpp"
#include "live/clock.hpp"
#include "live/frame_stream.hpp"
#include "live/reactor.hpp"
#include "live/shard_map.hpp"
#include "live/udp_batch.hpp"
#include "live/wire.hpp"
#include "metrics/collector.hpp"
#include "report/codec.hpp"
#include "report/sig_report.hpp"
#include "schemes/scheme.hpp"
#include "sim/random.hpp"
#include "workload/pattern.hpp"

namespace mci::live {

struct ServerOptions {
  core::SimConfig cfg;  ///< scheme, db size, update workload, period, seed
  /// Model seconds per wall second (>= 1 compresses the broadcast period so
  /// tests run "minutes" of model time in real seconds).
  double timeScale = 1.0;
  std::uint16_t tcpPort = 0;  ///< 0 = ephemeral, read back via tcpPort()
  std::string bindAddress = "127.0.0.1";
  /// Per-connection TCP send-queue cap. A wedged client that stops reading
  /// gets whole frames dropped (counted) instead of wedging the daemon. An
  /// empty queue still takes one frame of any size (a large query's reply
  /// may alone pass a small cap), so a connection holds at most the cap
  /// plus one frame.
  std::size_t maxSendQueueBytes = 1 << 20;
  /// SO_SNDBUF for accepted connections; 0 keeps the kernel default. Bounds
  /// kernel memory per client (and lets the wedged-client test fill the
  /// user-space queue without pushing megabytes through loopback first).
  int sendBufferBytes = 0;
  /// This daemon's slot in the cluster: it owns exactly the items with
  /// ShardMap::shardOfItem(item, shardHashSeed, shardCount) == shardIndex,
  /// applies only their updates, reports only their invalidations, and
  /// refuses uplink traffic about anyone else's items. The default
  /// (0 of 1) is the unsharded single-server deployment, bit-for-bit.
  std::uint32_t shardIndex = 0;
  std::uint32_t shardCount = 1;
  std::uint64_t shardHashSeed = ShardMap::kDefaultHashSeed;
  /// Nonempty = multicast downlink: one kReport datagram to group:port
  /// serves every client of this shard instead of the per-client fan-out.
  /// The group also travels in the shard map so clients self-configure.
  std::string multicastGroup;
  std::uint16_t multicastPort = 0;
};

struct ServerStats {
  std::uint64_t reportsBroadcast = 0;
  std::uint64_t framesDropped = 0;    ///< TCP frames dropped on full queues
  std::uint64_t udpSendFailures = 0;  ///< IR datagrams the kernel refused
  /// Kernel entries the IR fan-out cost (one per sendto, one per sendmmsg
  /// batch). With sendmmsg, syscalls/tick is O(clients / batch), not
  /// O(clients) — bench_live gates the ratio.
  std::uint64_t udpSendSyscalls = 0;
  std::uint64_t udpDatagramsSent = 0;  ///< IR datagrams the kernel accepted
  /// Kernel entries the TCP replies cost (send calls of every
  /// connection and handoff stream). The replies of one readiness event
  /// leave as one batch, so a 200-item query costs one, not 200.
  std::uint64_t tcpSendSyscalls = 0;
  /// Client uplinks welcomed, and closes of welcomed uplinks. A reshard's
  /// backfill channels and refused Hellos never count.
  std::uint64_t connectionsAccepted = 0;
  std::uint64_t connectionsClosed = 0;
  std::uint64_t queryRequests = 0;
  /// kDataItem reply frames, and the items they carried: one frame per
  /// query, or per run of it when a misrouted item splits the query.
  std::uint64_t dataItemFrames = 0;
  std::uint64_t dataItemsSent = 0;
  std::uint64_t checksReceived = 0;
  std::uint64_t auditsReceived = 0;
  std::uint64_t updatesApplied = 0;
  std::uint64_t badFrames = 0;
  /// Update-transaction items skipped because another shard owns them (the
  /// whole cluster draws one shared update stream; each shard keeps 1/K).
  std::uint64_t updatesThinned = 0;
  /// Uplink items (query / check entry / audit) owned by another shard.
  /// A correctly routing client never produces these; they are refused,
  /// not served, because this shard's partition has no truth about them.
  std::uint64_t misroutedItems = 0;
  // --- resharding ---
  /// Update-transaction items skipped because their owner differs between
  /// the outgoing and incoming maps of an active reshard (freeze window:
  /// migrating items are immutable from beginReshard to finishReshard).
  std::uint64_t updatesFrozen = 0;
  std::uint64_t handoffItemsSent = 0;      ///< kHandoff frames streamed out
  std::uint64_t handoffItemsReceived = 0;  ///< kHandoff frames absorbed
  std::uint64_t handoffFailures = 0;       ///< backfill channels that died
  /// Uplink items served from the previous epoch's partition during the
  /// post-cutover grace window (clients mid-flip; frozen, so still true).
  std::uint64_t graceServed = 0;
  std::uint64_t mapUpdatesSent = 0;   ///< kMapUpdate announce frames
  std::uint64_t mapReannounces = 0;   ///< one-shot corrections on misroute
};

/// Prints the 14 client-facing counters of a daemon's exit line to stdout,
/// "reports=... stale=N" with no newline: the keys tools/live_load.py reads.
void printServerStats(const ServerStats& s, std::uint64_t staleReads);

/// The live counterpart of core::Server + db::UpdateGenerator: a daemon that
/// owns the authoritative database, runs the configured invalidation scheme,
/// broadcasts one bit-packed IR frame every L model seconds over per-client
/// UDP (loopback fan-out), and answers query/Tlb/checking uplinks on
/// per-client TCP connections.
///
/// Single-threaded: everything runs on the caller's Reactor. The IR timer
/// can never block on a slow client — IR goes out as non-blocking UDP
/// datagrams, and TCP replies ride bounded send queues with whole-frame
/// drops (ServerStats::framesDropped). Every reply one readiness event on
/// a connection produces is corked into one batch and leaves in as few
/// writes as the kernel allows.
///
/// All model timestamps are millisecond ticks of the reactor's LiveClock
/// (so every daemon on one reactor reads one epoch), with three ordering
/// rules that re-establish, on a wall clock, the same-instant guarantees the
/// discrete-event simulator gets for free (docs/protocols.md, "Wire
/// format"): updates land strictly after the last broadcast tick, broadcast
/// ticks are strictly increasing and never precede the last update, and
/// check absorption times never precede the last broadcast.
///
/// Sharded deployment: give every daemon the same SimConfig (seed included)
/// and a distinct (shardIndex, shardCount). All K shards then draw the
/// *same* update-transaction sequence and each applies only its owned
/// items, so the union of the K thinned streams is exactly the unsharded
/// stream — a K-shard cluster is behaviourally the single server, split.
/// Each shard runs its own L-period IR timer and its own adaptive scheme
/// instance, so AFW/AAW windows and per-client Tlb feedback are tracked
/// per shard. The launcher installs the full cluster map via setShardMap()
/// before clients connect; until then a multi-shard daemon refuses Hellos.
class BroadcastServer {
 public:
  BroadcastServer(Reactor& reactor, ServerOptions options);
  ~BroadcastServer();

  BroadcastServer(const BroadcastServer&) = delete;
  BroadcastServer& operator=(const BroadcastServer&) = delete;

  /// The TCP port actually bound (resolves an ephemeral request).
  [[nodiscard]] std::uint16_t tcpPort() const { return self_.tcpPort; }

  /// The endpoint this daemon would publish for itself in a cluster map
  /// (bind address + bound TCP port + multicast group when configured).
  [[nodiscard]] ShardEndpoint selfEndpoint() const { return self_; }

  /// Installs the cluster map this shard hands out in every Welcome. Some
  /// slot must name this daemon's endpoint (bind address + TCP port), and
  /// the version may never go backwards; throws std::invalid_argument
  /// otherwise. The daemon adopts the map's (index, count, hashSeed) as its
  /// ownership spec — this is how a reshard cutover re-parameterizes a
  /// running shard. Single-shard daemons synthesize their own map and need
  /// no call.
  void setShardMap(ShardMap map);

  // --- resharding (driven by live::ReshardCoordinator) ---
  /// Enters the freeze window of the oldMap -> newMap transition: update-
  /// transaction items whose owner differs between the maps are skipped
  /// (ServerStats::updatesFrozen) so every migrating item is immutable from
  /// the first handoff byte until finishReshard(). Called on EVERY member,
  /// joiners included (a joiner's shardMap_ is still invalid; it owns
  /// nothing under the old map and freezes everything it will own).
  void beginReshard(const ShardMap& oldMap, const ShardMap& newMap);
  /// Streams every item this shard owns under the OLD map whose new owner
  /// differs, as kHandoff frames over a loopback TCP channel per
  /// destination (snapshot + history tail for the Tlb-gap splice).
  /// `onDone` fires once every destination acked its stream — possibly
  /// synchronously, when nothing migrates from here.
  void startHandoff(std::function<void()> onDone);
  /// Point of no return for a surviving member: installs the new map,
  /// announces it as kMapUpdate on every welcomed uplink and once on the
  /// IR downlink, and opens the grace window — queries/checks/audits for
  /// items owned under the OLD map keep being served from the frozen
  /// partition until finishReshard(), so no client query is ever dropped
  /// mid-flip.
  void cutoverReshard();
  /// Cutover for a shard the new map removes: announce + grace, but the
  /// new map (which has no slot for this daemon) is never installed, and
  /// no further Hello is welcomed.
  void retireReshard();
  /// Closes the freeze + grace windows. From here, uplink traffic about
  /// items this shard does not own gets one kMapUpdate re-announce per
  /// connection (ServerStats::mapReannounces) instead of grace service.
  void finishReshard();
  [[nodiscard]] bool reshardActive() const { return freezeActive_; }
  [[nodiscard]] const ShardMap& shardMap() const { return shardMap_; }
  [[nodiscard]] std::uint32_t shardIndex() const { return opts_.shardIndex; }
  [[nodiscard]] std::uint32_t shardCount() const { return opts_.shardCount; }

  /// True iff this shard's partition contains `item`.
  [[nodiscard]] bool ownsItem(db::ItemId item) const {
    return ShardMap::shardOfItem(item, opts_.shardHashSeed,
                                 opts_.shardCount) == opts_.shardIndex;
  }

  [[nodiscard]] const ServerStats& stats() const { return stats_; }
  [[nodiscard]] const metrics::Collector& collector() const {
    return collector_;
  }
  [[nodiscard]] std::uint64_t staleReads() const {
    return collector_.staleReads();
  }
  [[nodiscard]] const db::Database& database() const { return db_; }
  /// Every update this shard applied (item, time), in order — the replay
  /// pin rebuilds an identical scheme stack from this and compares frames.
  [[nodiscard]] const db::UpdateHistory& history() const { return history_; }
  [[nodiscard]] const core::SimConfig& config() const { return opts_.cfg; }
  [[nodiscard]] const LiveClock& clock() const { return clock_; }
  [[nodiscard]] std::size_t connectionCount() const { return conns_.size(); }

  /// Unframed codec bytes of the most recent IR (test hook: the byte-
  /// identity test compares this against ReportCodec::encode directly).
  [[nodiscard]] const std::vector<std::uint8_t>& lastReportPayload() const {
    return lastReportPayload_;
  }

 private:
  struct Conn {
    FrameStream stream;
    bool welcomed = false;
    bool audit = false;
    std::uint32_t clientId = 0;
    std::uint32_t handoffReceived = 0;  ///< kHandoff frames on this conn
    bool mapReannounced = false;  ///< one-shot misroute correction spent
    sockaddr_in udpAddr{};  ///< IR target: the TCP peer, at its Hello's port
  };

  /// Outbound backfill stream of one reshard: all kHandoff frames for one
  /// destination shard, sent up front (queued unbounded on purpose — the
  /// stream IS the migration; the per-client send cap must not drop it)
  /// and drained by the reactor until the destination's kHandoffAck.
  struct HandoffChannel {
    FrameStream stream;
    std::uint32_t itemsQueued = 0;
    bool done = false;
  };

  void setupSockets();
  void onAcceptable();
  void onConnEvent(int fd, std::uint32_t events);
  void handleFrame(int fd, Conn& conn, const wire::FrameView& frame);
  void handleHello(int fd, Conn& conn, const wire::Hello& hello);
  MCI_HOT void handleQuery(int fd, Conn& conn, const wire::QueryRequest& q);
  void handleCheck(int fd, Conn& conn, const wire::Check& c);
  void handleAudit(Conn& conn, const wire::Audit& a);
  void handleHandoff(int fd, Conn& conn, const wire::Handoff& h);
  void closeConn(int fd);

  /// True iff `item`'s owner differs between the active reshard's maps.
  [[nodiscard]] bool migrates(db::ItemId item) const {
    return reshardOld_.shardOf(item) != reshardNew_.shardOf(item);
  }
  /// True iff this shard owned `item` under the outgoing map and the grace
  /// window is open: the frozen partition may still serve it.
  [[nodiscard]] bool graceOwns(db::ItemId item) const {
    return graceActive_ && oldSelfIndex_ != kNoShard &&
           reshardOld_.shardOf(item) == oldSelfIndex_;
  }
  /// Post-grace misroute correction: one kMapUpdate on this connection.
  /// Returns false when the send closed the connection.
  [[nodiscard]] bool reannounceMap(int fd, Conn& conn);
  /// kMapUpdate to every welcomed uplink and on the IR downlink.
  void announceMapUpdate(const ShardMap& map);
  void onHandoffChannel(HandoffChannel& ch, std::uint32_t events);
  void closeHandoffChannel(HandoffChannel& ch, bool failed);
  void finishHandoffIfDone();
  /// Sends one whole frame (a finished FrameArena's bytes) on the
  /// connection's stream, or drops it whole (and counts it) when the bytes
  /// the kernel refused would pass maxSendQueueBytes. Returns false when
  /// the send hit a hard error and closed the connection — `conn` is then
  /// dangling and the caller must stop touching it (tools/analyze
  /// checked-return).
  [[nodiscard]] MCI_HOT bool sendFrame(int fd, Conn& conn,
                                       std::span<const std::uint8_t> frame);

  void broadcastTick();
  /// Sends the finished arena frame on the IR downlink: one datagram to
  /// the multicast group, or one per welcomed per-client downlink, through
  /// the batched sender. Returns the datagrams attempted.
  std::size_t fanOutReport(const wire::FrameArena& frame);
  void runUpdateTransaction();
  void scheduleNextUpdate();
  /// Appends the codec bytes of `r` to `w` (an arena writer on the tick
  /// path). Byte-identical to ReportCodec::encode of the same report.
  MCI_HOT void encodeReportInto(const report::Report& r, report::BitWriter& w);

  Reactor& reactor_;
  /// This daemon's registration-owner generation: every addFd/addTimer is
  /// tagged with it and the destructor retires it last, so a reshard that
  /// destroys a retired daemon gets a debug-build abort if any callback
  /// capturing `this` survives teardown.
  Reactor::OwnerId owner_ = 0;
  ServerOptions opts_;
  LiveClock clock_;
  report::SizeModel sizes_;
  db::Database db_;
  db::UpdateHistory history_;
  metrics::Collector collector_;
  report::ReportCodec codec_;
  std::unique_ptr<report::SignatureTable> sigTable_;
  std::uint64_t sigSeed_ = 0;
  std::unique_ptr<schemes::ServerScheme> scheme_;
  workload::AccessPattern updatePattern_;
  sim::Rng updateRng_;

  Socket listener_;  ///< registered for EPOLLIN: accepts the uplinks
  Socket irSocket_;  ///< sends every IR datagram; never read
  ShardEndpoint self_;  ///< bind address, bound TCP port, multicast group
  ShardMap shardMap_;        ///< invalid until set (multi-shard) or synthesized
  sockaddr_in mcastAddr_{};  ///< where one-datagram IR fan-out goes
  std::map<int, Conn> conns_;
  std::vector<std::uint32_t> freeIds_;  ///< released client ids, reused LIFO
  std::uint32_t nextId_ = 0;

  // --- resharding state ---
  static constexpr std::uint32_t kNoShard = 0xFFFFFFFFu;
  ShardMap reshardOld_;  ///< outgoing map of the active reshard
  ShardMap reshardNew_;  ///< incoming map of the active reshard
  bool freezeActive_ = false;  ///< beginReshard .. finishReshard
  bool graceActive_ = false;   ///< cutover/retire .. finishReshard
  bool retired_ = false;       ///< the new map removed this shard
  std::uint32_t oldSelfIndex_ = kNoShard;  ///< our index in reshardOld_
  std::vector<std::unique_ptr<HandoffChannel>> handoffChannels_;
  std::function<void()> handoffDone_;
  /// Control replies, handoff frames and map announces: each is built
  /// here and sent before the next one is.
  wire::FrameArena controlArena_;

  Reactor::TimerHandle broadcastTimer_;
  Reactor::TimerHandle updateTimer_;
  std::uint64_t lastUpdateTick_ = 0;
  std::uint64_t lastBroadcastTick_ = 0;
  ServerStats stats_;
  /// The tick's IR frame, encoded once and shared by every destination;
  /// buffer capacity is reused across ticks.
  wire::FrameArena reportArena_;
  wire::FrameArena replyArena_;  ///< kDataItem replies, reused per query
  report::BsWire bsScratch_;  ///< BS wire levels, reused across ticks
  UdpBatchSender batchSender_;
  std::vector<const sockaddr_in*> batchAddrs_;  ///< reused per tick
  std::vector<std::uint8_t> lastReportPayload_;
};

}  // namespace mci::live
