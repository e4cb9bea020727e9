#pragma once

#include <netinet/in.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/annotations.hpp"
#include "core/check.hpp"
#include "db/item.hpp"
#include "live/frame_stream.hpp"
#include "live/reactor.hpp"
#include "live/shard_map.hpp"
#include "live/udp_batch.hpp"
#include "live/wire.hpp"
#include "report/codec.hpp"
#include "swarm/state.hpp"

namespace mci::swarm {

/// What the mux reports upward to the tick engine. All payload pointers are
/// views into mux-owned buffers, valid only for the duration of the call.
class SwarmSink {
 public:
  virtual ~SwarmSink() = default;
  /// First Welcome of the run: configure sizes/codec/state from it.
  virtual void onWelcome(const live::wire::Welcome& w) = 0;
  /// Every connection of every shard has been welcomed: start the clients.
  virtual void onMuxReady() = 0;
  /// One IR frame arrived on `shard`'s downlink (the shared decode point).
  virtual void onReportPayload(std::uint32_t shard, const std::uint8_t* data,
                               std::size_t len) = 0;
  /// A fetched item came back, already correlated to its requesting client
  /// and the tick the fetch was issued at. `readTick` is the server's read
  /// stamp (wire readTime on the ms grid): the copy reflects every update
  /// up to that tick.
  virtual void onDataItem(std::uint32_t shard, std::uint32_t client,
                          db::ItemId item, db::Version version, Tick fetchTick,
                          Tick readTick) = 0;
  /// The server absorbed `client`'s Tlb check as of `asOfTick`.
  virtual void onCheckAck(std::uint32_t shard, std::uint32_t client,
                          Tick asOfTick) = 0;
  /// A TCP endpoint died (other than by shutdown()).
  virtual void onConnectionLost(std::uint32_t shard) = 0;
  /// The cluster advanced to a newer shard-map epoch and the mux has
  /// already re-keyed its links (survivors kept, removed drained, joiners
  /// dialed). The engine must now migrate its per-(client, shard) state to
  /// the new partition law. Default: ignore (single-epoch sinks).
  virtual void onMapUpdate(const live::ShardMap& oldMap,
                           const live::ShardMap& newMap) {
    (void)oldMap;
    (void)newMap;
  }
};

struct MuxStats {
  std::uint64_t reportsHeard = 0;
  /// Undecodable frames, including uplink frames skipped for a failed
  /// checksum (each of those also drops its conn).
  std::uint64_t badFrames = 0;
  std::uint64_t ignoredFrames = 0;  ///< types the swarm has no use for
  std::uint64_t udpRecvSyscalls = 0;
  std::uint64_t queryFramesSent = 0;  ///< batched kQueryRequest frames
  std::uint64_t fetchesSent = 0;      ///< items inside those frames
  std::uint64_t dataItems = 0;
  std::uint64_t checksSent = 0;
  std::uint64_t connectionsLost = 0;
  std::uint64_t mapUpdatesHeard = 0;  ///< kMapUpdate frames (any conn/downlink)
  std::uint64_t staleMapUpdates = 0;  ///< announces at or below our epoch
  std::uint64_t epochSwitches = 0;    ///< shard-map flips actually applied
  /// Allocations observed by Options::allocProbe inside the mux's reactor
  /// callbacks (the entire swarm hot path, engine included) — the gated
  /// figure. The in-process server shares the global heap counter, so the
  /// harness must sample around swarm code, not across wall time.
  std::uint64_t hotAllocs = 0;
};

/// Growable FIFO ring used for reply correlation. Pushes hit a fixed
/// power-of-two buffer; capacity doubles only until the run's high-water
/// outstanding-fetch mark, after which the steady state allocates nothing.
template <typename T>
class Ring {
 public:
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] std::size_t size() const { return count_; }

  MCI_HOT void push(const T& v) {
    if (count_ == buf_.size()) grow();
    buf_[(head_ + count_) & (buf_.size() - 1)] = v;
    ++count_;
  }

  [[nodiscard]] MCI_HOT const T& front() const {
    MCI_DCHECK(count_ > 0) << "Ring::front on empty ring";
    return buf_[head_];
  }

  MCI_HOT void pop() {
    MCI_DCHECK(count_ > 0) << "Ring::pop on empty ring";
    head_ = (head_ + 1) & (buf_.size() - 1);
    --count_;
  }

 private:
  void grow() {
    const std::size_t cap = buf_.empty() ? 64 : buf_.size() * 2;
    std::vector<T> next(cap);  // MCI-ANALYZE-ALLOW(hot-path-alloc): grows
    // to the outstanding high-water mark only, then never again
    for (std::size_t i = 0; i < count_; ++i) {
      next[i] = buf_[(head_ + i) & (buf_.size() - 1)];
    }
    buf_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

/// The swarm's entire network face: a fixed pool of shared endpoints
/// multiplexing the uplink/downlink traffic of 10^5..10^6 emulated clients.
///
/// Topology per shard: exactly ONE UDP downlink socket (so the server's
/// per-tick IR reaches the swarm as one datagram per shard — the "one
/// shared decode per shard per tick" is enforced by construction, not by
/// dedup) and `endpointsPerShard` TCP connections carrying the query/check
/// uplink. Only endpoint 0's Hello names the downlink port; the other
/// endpoints send udpPort = 0, which the server takes as an opt-out from
/// the unicast fan-out (BroadcastServer::fanOutReport). Multicast shards
/// join the group instead, and every Hello sends 0.
///
/// Correlation needs no wire changes: the server answers each TCP
/// connection strictly in request order, so a FIFO ring per connection
/// (fetches: {client, item, tick}; checks: {client}) maps every kDataItem
/// and kCheckAck back to its emulated client. Client c's uplink for a
/// shard always uses endpoint c % E, so the per-(client, shard) reply
/// order — the only order the model observes — is independent of E, which
/// is what makes 1-endpoint and N-endpoint runs produce identical model
/// state for the same seed.
///
/// Steady-state traffic (fetch batches, checks, received DataItems/acks/
/// reports) runs through preallocated arenas, rings and frame views:
/// zero allocations per client-tick once buffers reach their high-water
/// marks. Handshake traffic (Hello/Welcome/Bye) uses the plain allocating
/// codecs.
class UplinkMux {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;           ///< seed shard TCP port
    std::uint32_t endpointsPerShard = 4;
    /// Split fetch batches so one frame stays well under the 16-bit item
    /// count and the server's reply burst stays bounded.
    std::uint32_t maxItemsPerQueryFrame = 8192;
    /// Optional global-allocation-counter sampler (e.g. a counting
    /// operator new in the harness binary); when set, MuxStats::hotAllocs
    /// accumulates the counter's delta across every mux event callback.
    std::uint64_t (*allocProbe)() = nullptr;
  };

  UplinkMux(live::Reactor& reactor, SwarmSink& sink, Options opts);
  ~UplinkMux();

  UplinkMux(const UplinkMux&) = delete;
  UplinkMux& operator=(const UplinkMux&) = delete;

  /// Dials the seed shard and sends its Hello; the rest of the cluster is
  /// dialed when the seed Welcome reveals the map. Throws on socket error.
  void connect();

  /// Sends Bye on every live connection and closes everything.
  void shutdown();

  [[nodiscard]] bool ready() const { return ready_; }
  [[nodiscard]] std::uint32_t shards() const {
    return static_cast<std::uint32_t>(links_.size());
  }
  [[nodiscard]] std::uint32_t endpointsPerShard() const {
    return opts_.endpointsPerShard;
  }
  [[nodiscard]] const MuxStats& stats() const { return stats_; }
  [[nodiscard]] const live::ShardMap& shardMap() const { return map_; }
  [[nodiscard]] bool anyConnectionLost() const {
    return stats_.connectionsLost != 0;
  }

  // --- engine -> wire (tick path) ---

  /// Stages one cache-miss fetch; actually sent (batched per endpoint) by
  /// flushFetches() at the end of the tick.
  MCI_HOT void queueFetch(std::uint32_t shard, std::uint32_t client,
                          db::ItemId item, Tick tick);

  /// Encodes and sends every staged fetch as per-endpoint kQueryRequest
  /// batches (split at maxItemsPerQueryFrame).
  MCI_HOT void flushFetches();

  /// Sends one adaptive Tlb-feedback check (empty entry list) for
  /// `client` to `shard`, on the client's endpoint. False when the
  /// endpoint is dead or not yet welcomed (mid-flip joiner): nothing was
  /// sent or queued, so the caller should simply retry on a later report.
  [[nodiscard]] MCI_HOT bool sendCheck(std::uint32_t shard,
                                       std::uint32_t client,
                                       double tlbSeconds, double sizeBits);

 private:
  static constexpr std::uint32_t kUnknownShard = 0xFFFFFFFFu;

  struct PendingFetch {
    std::uint32_t client = 0;
    db::ItemId item = 0;
    Tick tick = 0;
  };

  /// One TCP endpoint of one shard.
  struct Conn {
    live::FrameStream tcp;
    std::uint32_t shard = kUnknownShard;
    std::uint32_t endpoint = 0;
    bool welcomed = false;
    /// Endpoint left the map in a reshard: closes once both correlation
    /// queues drain (in-flight replies are grace-served by the retiring
    /// daemon). Never counted as a lost connection.
    bool draining = false;
    live::Reactor::FdHandle reg;  ///< reactor registration of tcp's fd
    Ring<PendingFetch> fetchQueue;   ///< kDataItem correlation, FIFO
    Ring<std::uint32_t> ackQueue;    ///< kCheckAck correlation, FIFO
    std::vector<db::ItemId> staged;  ///< this tick's fetch items, in order
  };

  /// One shard's downlink plus its endpoint fan.
  struct Link {
    std::uint32_t shard = kUnknownShard;
    int udpFd = -1;
    live::Reactor::FdHandle udpReg;  ///< downlink registration
    std::vector<std::unique_ptr<Conn>> conns;
  };

  [[nodiscard]] std::unique_ptr<Conn> dialConn(std::uint32_t shard,
                                               std::uint32_t endpoint,
                                               std::uint32_t ipv4,
                                               std::uint16_t tcpPort);
  /// Opens and registers link.udpFd (group-joined when mcastIpv4 != 0).
  void openDownlink(Link& link, std::uint32_t ipv4, std::uint32_t mcastIpv4,
                    std::uint16_t mcastPort);
  void closeDownlink(Link& link);
  [[nodiscard]] static std::uint16_t boundPort(int fd);
  void sendHello(Conn& conn, std::uint16_t udpPort);
  void buildCluster(const live::wire::Welcome& w);
  /// Gives shard `s` of map_ a downlink if it has none and dials its
  /// missing endpoints, each with its Hello.
  void dialShard(std::uint32_t s);

  void onUdp(Link& link, std::uint32_t events);
  void onTcp(Conn& conn, std::uint32_t events);
  MCI_HOT void onUdpIo(Link& link, std::uint32_t events);
  MCI_HOT void onTcpIo(Conn& conn, std::uint32_t events);
  MCI_HOT void handleDatagram(Link& link, const std::uint8_t* data,
                              std::size_t len);
  MCI_HOT void handleFrameView(Conn& conn, const live::wire::FrameView& f);
  void handleWelcome(Conn& conn, const live::wire::Welcome& w);
  /// A kMapUpdate landed (TCP frame or IR datagram): if it advances the
  /// epoch, re-key links_ by endpoint identity, drain removed shards, dial
  /// joiners, then hand the engine the old/new pair via Sink::onMapUpdate.
  void applyMapUpdate(const live::ShardMap& map);
  /// Sends conn's staged fetch batch if the conn is welcomed; otherwise
  /// leaves it staged (handleWelcome flushes it when the handshake lands).
  MCI_HOT void flushConnStaged(Conn& conn);
  /// Closes a draining conn once both correlation queues are empty.
  void maybeCloseDrained(Conn& conn);

  /// Sends the arena's finished frame on `conn`. Returns false when the
  /// connection is (now) dead.
  [[nodiscard]] MCI_HOT bool sendArena(Conn& conn);
  void dropConn(Conn& conn);
  void closeAll();

  live::Reactor& reactor_;
  /// Registration-owner generation for every addFd this mux makes; retired
  /// at the end of ~UplinkMux (debug builds abort if any callback capturing
  /// `this` survives closeAll()).
  live::Reactor::OwnerId owner_ = 0;
  SwarmSink& sink_;
  Options opts_;

  std::vector<std::unique_ptr<Link>> links_;  ///< by shard once map known
  /// Links whose endpoint a reshard removed. Downlinks close immediately;
  /// uplink conns drain their reply queues first. Link objects live until
  /// mux destruction — a flip can run inside a handler still holding a
  /// reference into the very link being retired.
  std::vector<std::unique_ptr<Link>> drainingLinks_;
  live::ShardMap map_;
  std::size_t welcomedConns_ = 0;
  bool ready_ = false;
  bool shuttingDown_ = false;
  bool sawWelcome_ = false;

  live::UdpBatchReceiver udpReceiver_;
  live::wire::FrameArena arena_;  ///< uplink frames, capacity reused
  MuxStats stats_;
};

}  // namespace mci::swarm
