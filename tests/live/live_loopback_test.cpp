// The live subsystem end to end over real loopback sockets: one
// BroadcastServer (or a sharded Cluster) plus a ClientPool of 8 agents
// sharing a reactor, run for thousands of model seconds at a compressed
// time scale. The pool audits every cache answer against the owning
// shard's actual database, so the paper's zero-stale-reads invariant is
// enforced for real, and the hit ratio is compared against an equivalent
// discrete-event simulation run.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "core/scheme_factory.hpp"
#include "core/simulation.hpp"
#include "db/database.hpp"
#include "db/update_history.hpp"
#include "live/broadcast_server.hpp"
#include "live/client_agent.hpp"
#include "live/cluster.hpp"
#include "live/wire.hpp"
#include "report/bs_report.hpp"
#include "report/codec.hpp"
#include "report/ts_report.hpp"

namespace mci::live {
namespace {

/// Hot/cold workload over a small database with a cache that covers the hot
/// set: enough hits that the live-vs-sim hit ratio comparison has signal.
core::SimConfig baseConfig(schemes::SchemeKind scheme) {
  core::SimConfig cfg;
  cfg.scheme = scheme;
  cfg.numClients = 8;
  cfg.dbSize = 1000;
  cfg.clientBufferFrac = 0.1;
  cfg.workload = core::WorkloadKind::kHotCold;
  cfg.hotQuery = {0, 50, 0.9};
  cfg.meanThinkTime = 25.0;
  cfg.meanUpdateInterarrival = 50.0;
  cfg.simTime = 3000.0;
  cfg.seed = 1234;
  return cfg;
}

/// Runs one server + an 8-agent pool in process for cfg.simTime model
/// seconds and returns (pool result, server stats are asserted inline).
metrics::SimResult runLive(const core::SimConfig& cfg, double timeScale) {
  Reactor reactor;
  ServerOptions serverOpts;
  serverOpts.cfg = cfg;
  serverOpts.timeScale = timeScale;
  BroadcastServer server(reactor, serverOpts);

  AgentOptions agentOpts;
  agentOpts.cfg = cfg;  // client-side knobs: workload, think, disconnection
  agentOpts.port = server.tcpPort();
  agentOpts.numAgents = cfg.numClients;
  agentOpts.auditDbs = {&server.database()};  // audit the real database
  ClientPool pool(reactor, agentOpts);
  pool.start();

  const Reactor::TimerHandle tick = reactor.addTimer(0.02, 0.02, [&] {
    if (pool.modelNow() >= cfg.simTime) {
      pool.shutdown();
      reactor.stop();
    }
  });
  reactor.run();
  (void)reactor.cancelTimer(tick);

  EXPECT_EQ(pool.welcomedCount(), cfg.numClients);
  EXPECT_EQ(pool.staleReads(), 0u);
  EXPECT_EQ(pool.stats().connectionsLost, 0u);
  EXPECT_GT(pool.stats().reportsHeard, 0u);
  EXPECT_EQ(server.staleReads(), 0u);
  EXPECT_EQ(server.stats().framesDropped, 0u);
  EXPECT_EQ(server.stats().badFrames, 0u);
  // ~cfg.simTime / broadcastPeriod reports; allow slack for startup.
  EXPECT_GT(server.stats().reportsBroadcast,
            static_cast<std::uint64_t>(cfg.simTime / cfg.broadcastPeriod / 2));
  EXPECT_GT(server.stats().queryRequests, 0u);
  return pool.finalize();
}

void expectLiveMatchesSim(schemes::SchemeKind scheme) {
  const core::SimConfig cfg = baseConfig(scheme);
  const metrics::SimResult simR = core::Simulation(cfg).run();
  const metrics::SimResult liveR = runLive(cfg, 500.0);

  EXPECT_EQ(liveR.staleReads, 0u);
  EXPECT_GT(liveR.queriesCompleted, 100u);
  // Same workload laws, same seeds per role, but real-time scheduling noise
  // instead of event-queue determinism: the hit ratios agree statistically,
  // not exactly.
  EXPECT_GT(simR.hitRatio(), 0.15) << "config has no signal";
  EXPECT_NEAR(liveR.hitRatio(), simR.hitRatio(), 0.12)
      << "live=" << liveR.hitRatio() << " sim=" << simR.hitRatio();
}

TEST(LiveLoopback, AfwMatchesSimulation) {
  expectLiveMatchesSim(schemes::SchemeKind::kAfw);
}

TEST(LiveLoopback, AawMatchesSimulation) {
  expectLiveMatchesSim(schemes::SchemeKind::kAaw);
}

/// The broadcast payload on the wire is exactly what report::ReportCodec
/// emits: decoding the last payload and re-encoding it must reproduce the
/// bytes bit for bit, for each report family.
TEST(LiveLoopback, ReportFramesAreByteIdenticalToCodecOutput) {
  for (const auto scheme :
       {schemes::SchemeKind::kAaw, schemes::SchemeKind::kBs,
        schemes::SchemeKind::kSig}) {
    Reactor reactor;
    ServerOptions opts;
    opts.cfg = baseConfig(scheme);
    opts.cfg.broadcastPeriod = 0.5;
    opts.timeScale = 200.0;
    BroadcastServer server(reactor, opts);
    while (server.stats().reportsBroadcast < 3) reactor.runOnce(20);

    const std::vector<std::uint8_t>& payload = server.lastReportPayload();
    ASSERT_FALSE(payload.empty());
    const report::SizeModel sizes = opts.cfg.sizeModel();
    const report::ReportCodec codec(sizes);
    const report::ReportPtr decoded = codec.decodeAny(payload);
    ASSERT_NE(decoded, nullptr) << schemes::schemeName(scheme);

    std::vector<std::uint8_t> reEncoded;
    switch (decoded->kind) {
      case report::ReportKind::kTsWindow:
      case report::ReportKind::kTsExtended:
        reEncoded =
            codec.encode(static_cast<const report::TsReport&>(*decoded));
        break;
      case report::ReportKind::kBitSeq:
        reEncoded =
            codec.encode(static_cast<const report::BsReport&>(*decoded));
        break;
      case report::ReportKind::kSignature:
        reEncoded =
            codec.encode(static_cast<const report::SigReport&>(*decoded));
        break;
    }
    EXPECT_EQ(reEncoded, payload) << schemes::schemeName(scheme);
  }
}

/// A client that stops reading must never stall the broadcast: its TCP
/// queue caps out and whole frames are dropped (counted) while the IR timer
/// keeps firing.
TEST(LiveLoopback, WedgedClientNeverBlocksTheBroadcast) {
  Reactor reactor;
  ServerOptions opts;
  opts.cfg = baseConfig(schemes::SchemeKind::kAaw);
  opts.cfg.broadcastPeriod = 0.5;
  opts.timeScale = 100.0;              // 5 ms wall per period
  opts.maxSendQueueBytes = 1024;       // tiny user-space queue
  opts.sendBufferBytes = 1024;         // tiny kernel queue
  BroadcastServer server(reactor, opts);

  // Raw wedged client: shrink the receive window before connecting, say
  // Hello, then fire query requests and never read a byte of the replies.
  const int tcp = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(tcp, 0);
  int rcvbuf = 1024;
  ::setsockopt(tcp, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.tcpPort());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(tcp, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);

  // A UDP socket that is bound but never read, so kReport datagrams have a
  // destination (the kernel just discards them once its buffer fills).
  const int udp = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(udp, 0);
  sockaddr_in udpAddr{};
  udpAddr.sin_family = AF_INET;
  udpAddr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(udp, reinterpret_cast<sockaddr*>(&udpAddr), sizeof udpAddr),
            0);
  socklen_t len = sizeof udpAddr;
  ASSERT_EQ(::getsockname(udp, reinterpret_cast<sockaddr*>(&udpAddr), &len),
            0);

  const wire::Hello hello{.udpPort = ntohs(udpAddr.sin_port), .audit = false};
  wire::FrameArena arena;
  const std::span<const std::uint8_t> helloFrame =
      arena.build(wire::FrameType::kHello, net::TrafficClass::kControl, hello,
                  wire::encodeHelloInto);
  ASSERT_EQ(::send(tcp, helloFrame.data(), helloFrame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(helloFrame.size()));
  while (server.stats().connectionsAccepted == 0 ||
         server.connectionCount() == 0) {
    reactor.runOnce(10);
  }

  // Each query pulls a 200-item reply frame (~1.6 KB) toward a client that
  // will never drain it; a handful of queries overwhelms both tiny queues.
  wire::QueryRequest query;
  for (db::ItemId i = 0; i < 200; ++i) query.items.push_back(i);
  const std::span<const std::uint8_t> queryFrame = arena.build(
      wire::FrameType::kQueryRequest, net::TrafficClass::kControl,
      std::span<const db::ItemId>(query.items), wire::encodeQueryRequestInto);
  for (int q = 0; q < 10; ++q) {
    (void)::send(tcp, queryFrame.data(), queryFrame.size(), MSG_NOSIGNAL);
    reactor.runOnce(5);
  }

  // Drive the reactor across many broadcast periods with the client wedged.
  const std::uint64_t before = server.stats().reportsBroadcast;
  const double start = reactor.nowSeconds();
  while (reactor.nowSeconds() - start < 0.2) reactor.runOnce(10);

  EXPECT_GE(server.stats().reportsBroadcast, before + 20)
      << "IR timer stalled behind a wedged client";
  EXPECT_GT(server.stats().framesDropped, 0u)
      << "full send queue should drop whole frames";
  EXPECT_EQ(server.connectionCount(), 1u);  // wedged, not evicted

  ::close(tcp);
  ::close(udp);
}

/// A raw TCP uplink to a daemon on `reactor`. Its Hello names no IR
/// downlink (port 0), so every frame the server sends it after the Welcome
/// is a reply.
class RawUplink {
 public:
  RawUplink(Reactor& reactor, std::uint16_t port) : reactor_(reactor) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
    send(arena_.build(wire::FrameType::kHello, net::TrafficClass::kControl,
                      wire::Hello{.udpPort = 0, .audit = false},
                      wire::encodeHelloInto));
    std::size_t welcomeBytes = 0;
    readUntil([&] {
      welcomeBytes = wire::frameSize(in.data(), in.size());
      return welcomeBytes > 0 && in.size() >= welcomeBytes;
    });
    EXPECT_GT(welcomeBytes, 0u) << "no Welcome";
    in.erase(in.begin(),
             in.begin() + static_cast<std::ptrdiff_t>(
                              std::min(welcomeBytes, in.size())));
  }
  ~RawUplink() { ::close(fd_); }
  RawUplink(const RawUplink&) = delete;
  RawUplink& operator=(const RawUplink&) = delete;

  void send(std::span<const std::uint8_t> frame) {
    EXPECT_EQ(::send(fd_, frame.data(), frame.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(frame.size()));
  }

  void sendQuery(const std::vector<db::ItemId>& items) {
    send(arena_.build(wire::FrameType::kQueryRequest,
                      net::TrafficClass::kControl,
                      std::span<const db::ItemId>(items),
                      wire::encodeQueryRequestInto));
  }

  /// Drives the reactor and appends what arrives to `in` until done().
  template <typename Done>
  void readUntil(Done done) {
    std::uint8_t buf[4096];
    for (int round = 0; round < 10'000 && !done(); ++round) {
      reactor_.runOnce(1);
      for (ssize_t n; (n = ::recv(fd_, buf, sizeof buf, MSG_DONTWAIT)) > 0;) {
        in.insert(in.end(), buf, buf + n);
      }
    }
  }

  /// Reads until `count` whole frames are in, and returns them decoded.
  /// The views alias `in`, so they are valid until the next read.
  std::vector<wire::FrameView> readFrames(std::size_t count) {
    std::vector<wire::FrameView> frames;
    readUntil([&] {
      frames.clear();
      for (std::size_t off = 0; off < in.size();) {
        const std::size_t total =
            wire::frameSize(in.data() + off, in.size() - off);
        if (total == 0 || in.size() - off < total) break;
        const std::optional<wire::FrameView> f =
            wire::decodeFrame(in.data() + off, total);
        if (!f) break;
        frames.push_back(*f);
        off += total;
      }
      return frames.size() >= count;
    });
    return frames;
  }

  std::vector<std::uint8_t> in;  ///< bytes received after the Welcome

 private:
  Reactor& reactor_;
  wire::FrameArena arena_;
  int fd_ = -1;
};

/// What the server sent a raw uplink for one 200-item query.
struct QueryReplies {
  std::vector<std::uint8_t> got;       ///< reply bytes, Welcome excluded
  std::vector<std::uint8_t> expected;  ///< the one batched reply frame
  std::uint64_t tcpSendSyscalls = 0;   ///< server send calls for the query
  std::uint64_t replyFrames = 0;       ///< ServerStats::dataItemFrames
  std::uint64_t framesDropped = 0;
};

/// Sends one 200-item kQueryRequest on a raw uplink and reads the replies
/// as they arrive, driving the server's reactor in between. No updates
/// run, so every reply's version is the item's current one.
QueryReplies serveOneQuery(ServerOptions opts) {
  QueryReplies r;
  Reactor reactor;
  opts.cfg = baseConfig(schemes::SchemeKind::kAaw);
  opts.cfg.meanUpdateInterarrival = 1e12;
  opts.timeScale = 100.0;
  BroadcastServer server(reactor, opts);
  RawUplink uplink(reactor, server.tcpPort());
  const std::uint64_t sendsBefore = server.stats().tcpSendSyscalls;

  constexpr std::size_t kItems = 200;
  std::vector<db::ItemId> items;
  for (db::ItemId i = 0; i < kItems; ++i) items.push_back(i);
  uplink.sendQuery(items);
  const std::size_t replyBytes = wire::kHeaderBytes + wire::kDataItemBytes +
                                 (kItems - 1) * wire::kDataItemNextBytes;
  uplink.readUntil([&] { return uplink.in.size() >= replyBytes; });
  r.got = uplink.in;
  r.tcpSendSyscalls = server.stats().tcpSendSyscalls - sendsBefore;
  r.replyFrames = server.stats().dataItemFrames;
  r.framesDropped = server.stats().framesDropped;

  // Every record of the reply carries the first one's read time; take it
  // from the frame and rebuild the batched reply byte for byte.
  std::optional<wire::FrameView> first =
      wire::decodeFrame(r.got.data(), r.got.size());
  EXPECT_TRUE(first.has_value());
  std::optional<wire::DataItemReader> reply;
  if (first) reply = wire::DataItemReader::parse(first->payload);
  EXPECT_TRUE(reply.has_value());
  if (!reply) return r;
  wire::FrameArena arena;
  report::BitWriter w = arena.begin(wire::FrameType::kDataItem,
                                    wire::kNoScheme, net::TrafficClass::kBulk);
  wire::encodeDataItemInto({.item = 0,
                            .version = server.database().currentVersion(0),
                            .readTime = reply->readTime()},
                           w);
  for (db::ItemId i = 1; i < kItems; ++i) {
    wire::encodeDataItemNextInto(
        {.item = i, .version = server.database().currentVersion(i)}, w);
  }
  arena.finish(w);
  r.expected.assign(arena.frame().begin(), arena.frame().end());
  return r;
}

/// The replies to one query leave as one reply frame in one corked batch:
/// 200 items cost the server one frame and at most two TCP send calls.
TEST(LiveLoopback, OneQueryCostsAtMostTwoTcpSendCalls) {
  const QueryReplies r = serveOneQuery(ServerOptions{});
  EXPECT_EQ(r.got.size(), r.expected.size());
  EXPECT_EQ(r.replyFrames, 1u);
  EXPECT_GE(r.tcpSendSyscalls, 1u);
  EXPECT_LE(r.tcpSendSyscalls, 2u);
}

/// Batching must not cost a reading client frames: the send-queue cap
/// counts only bytes the kernel refused, and an empty queue takes any one
/// frame, so the ~1.6 KB reply passes a 1 KB cap whole, byte-identical to
/// the batched encode.
TEST(LiveLoopback, ReadingClientLosesNoFramesToATinySendCap) {
  ServerOptions opts;
  opts.maxSendQueueBytes = 1024;
  const QueryReplies r = serveOneQuery(opts);
  EXPECT_EQ(r.framesDropped, 0u);
  EXPECT_EQ(r.got, r.expected) << "reply bytes differ from the batched frame";
}

/// A misrouted item splits the query's reply: the items before it leave as
/// one frame, then the kMapUpdate re-announce, then the items after it, so
/// the announce keeps its place among the replies.
TEST(LiveLoopback, MisroutedItemSplitsTheReplyAroundTheReannounce) {
  Reactor reactor;
  ClusterOptions opts;
  opts.cfg = baseConfig(schemes::SchemeKind::kAaw);
  opts.cfg.meanUpdateInterarrival = 1e12;
  opts.timeScale = 100.0;
  opts.shardCount = 2;
  Cluster cluster(reactor, opts);
  const BroadcastServer& server = cluster.server(0);
  const ShardMap& map = server.shardMap();

  std::vector<db::ItemId> owned;
  std::optional<db::ItemId> foreign;
  for (db::ItemId i = 0; owned.size() < 4 || !foreign; ++i) {
    if (map.shardOf(i) == 0) {
      owned.push_back(i);
    } else if (!foreign) {
      foreign = i;
    }
  }
  RawUplink uplink(reactor, server.tcpPort());
  uplink.sendQuery({owned[0], owned[1], *foreign, owned[2], owned[3]});
  const std::vector<wire::FrameView> frames = uplink.readFrames(3);
  ASSERT_EQ(frames.size(), 3u);

  const auto records = [](const wire::FrameView& f) {
    std::vector<db::ItemId> items;
    auto reply = wire::DataItemReader::parse(f.payload);
    EXPECT_TRUE(reply.has_value());
    for (std::size_t n = reply ? reply->size() : 0; n > 0; --n) {
      items.push_back(reply->next().item);
    }
    return items;
  };
  EXPECT_EQ(frames[0].header.type, wire::FrameType::kDataItem);
  EXPECT_EQ(records(frames[0]), (std::vector<db::ItemId>{owned[0], owned[1]}));
  EXPECT_EQ(frames[1].header.type, wire::FrameType::kMapUpdate);
  EXPECT_EQ(frames[2].header.type, wire::FrameType::kDataItem);
  EXPECT_EQ(records(frames[2]), (std::vector<db::ItemId>{owned[2], owned[3]}));
  EXPECT_EQ(server.stats().misroutedItems, 1u);
  EXPECT_EQ(server.stats().dataItemFrames, 2u);
  EXPECT_EQ(server.stats().dataItemsSent, 4u);
}

/// The K=1 shard pin: a daemon carrying an explicit (0 of 1) shard spec —
/// bit-for-bit the default deployment — must emit exactly the frames the
/// unsharded scheme stack produces. Rebuilds a fresh scheme over the
/// daemon's recorded update history and re-derives the last report at its
/// own broadcast timestamp; the codec bytes must match exactly.
TEST(LiveLoopback, SingleShardReportsMatchUnshardedSchemeStack) {
  Reactor reactor;
  ServerOptions opts;
  opts.cfg = baseConfig(schemes::SchemeKind::kTs);  // stateless buildReport
  opts.cfg.broadcastPeriod = 0.5;
  opts.timeScale = 200.0;
  opts.shardIndex = 0;
  opts.shardCount = 1;
  BroadcastServer server(reactor, opts);
  while (server.stats().reportsBroadcast < 5 ||
         server.stats().updatesApplied < 20) {
    reactor.runOnce(20);
  }
  EXPECT_EQ(server.stats().updatesThinned, 0u) << "K=1 owns every item";

  // Capture a report with no updates landed after it (updates always tick
  // strictly past the last broadcast, so lastUpdateTime() <= broadcastTime
  // means the history still is exactly what the report was built from).
  const report::SizeModel sizes = opts.cfg.sizeModel();
  const report::ReportCodec codec(sizes);
  std::vector<std::uint8_t> payload;
  report::ReportPtr decoded;
  bool quiesced = false;
  for (int attempt = 0; attempt < 200 && !quiesced; ++attempt) {
    const std::uint64_t seen = server.stats().reportsBroadcast;
    while (server.stats().reportsBroadcast == seen) reactor.runOnce(20);
    payload = server.lastReportPayload();
    decoded = codec.decodeAny(payload);
    ASSERT_NE(decoded, nullptr);
    quiesced = server.history().lastUpdateTime() <= decoded->broadcastTime;
  }
  ASSERT_TRUE(quiesced) << "no update-free broadcast in 200 periods";
  ASSERT_FALSE(payload.empty());

  // Replay the daemon's applied updates (oldest first) into fresh state.
  db::Database freshDb(opts.cfg.dbSize);
  db::UpdateHistory freshHistory(opts.cfg.dbSize);
  const std::vector<db::UpdateRecord> applied =
      server.history().updatesAfter(sim::kTimeEpoch);
  for (auto it = applied.rbegin(); it != applied.rend(); ++it) {
    freshDb.applyUpdate(it->item, it->time);
    freshHistory.record(it->item, it->time);
  }
  const auto scheme =
      core::makeServerScheme(opts.cfg, freshHistory, freshDb, sizes, nullptr);
  const report::ReportPtr rebuilt = scheme->buildReport(decoded->broadcastTime);
  EXPECT_EQ(codec.encode(static_cast<const report::TsReport&>(*rebuilt)),
            payload);
}

/// Runs a K-shard Cluster plus an 8-agent pool seeded at shard 0 (routing
/// learned from the Welcome's shard map) and returns the pool result.
metrics::SimResult runClusterLive(const core::SimConfig& cfg, double timeScale,
                                  std::uint32_t shards) {
  Reactor reactor;
  ClusterOptions clusterOpts;
  clusterOpts.cfg = cfg;
  clusterOpts.timeScale = timeScale;
  clusterOpts.shardCount = shards;
  Cluster cluster(reactor, clusterOpts);

  AgentOptions agentOpts;
  agentOpts.cfg = cfg;
  agentOpts.port = cluster.seedPort();
  agentOpts.numAgents = cfg.numClients;
  agentOpts.auditDbs = cluster.auditDbs();  // audit each shard's partition
  ClientPool pool(reactor, agentOpts);
  pool.start();

  const Reactor::TimerHandle tick = reactor.addTimer(0.02, 0.02, [&] {
    if (pool.modelNow() >= cfg.simTime) {
      pool.shutdown();
      reactor.stop();
    }
  });
  reactor.run();
  (void)reactor.cancelTimer(tick);

  EXPECT_EQ(pool.welcomedCount(), cfg.numClients);
  EXPECT_EQ(pool.staleReads(), 0u);
  EXPECT_EQ(pool.stats().connectionsLost, 0u);
  EXPECT_EQ(pool.shardMap().shardCount(), shards);
  EXPECT_EQ(pool.stats().reportsHeardPerShard.size(), shards);
  for (std::uint32_t s = 0; s < shards; ++s) {
    EXPECT_GT(pool.stats().reportsHeardPerShard[s], 0u)
        << "shard " << s << " IR stream never heard";
  }

  const ServerStats total = cluster.totalStats();
  EXPECT_EQ(cluster.staleReads(), 0u);
  EXPECT_EQ(total.misroutedItems, 0u) << "pool routed an item to a wrong shard";
  EXPECT_EQ(total.badFrames, 0u);
  EXPECT_GT(total.queryRequests, 0u);
  if (shards > 1) {
    // Every shard draws the shared update stream and keeps ~1/K of it.
    EXPECT_GT(total.updatesThinned, 0u);
    for (std::uint32_t s = 0; s < shards; ++s) {
      EXPECT_GT(cluster.server(s).stats().updatesApplied, 0u);
      EXPECT_GT(cluster.server(s).stats().reportsBroadcast, 0u);
    }
  }
  return pool.finalize();
}

void expectClusterMatchesSim(schemes::SchemeKind scheme) {
  const core::SimConfig cfg = baseConfig(scheme);
  const metrics::SimResult simR = core::Simulation(cfg).run();
  const metrics::SimResult liveR = runClusterLive(cfg, 500.0, 4);

  EXPECT_EQ(liveR.staleReads, 0u);
  EXPECT_GT(liveR.queriesCompleted, 100u);
  // Sharding splits each client's cache across four per-shard slices and
  // each shard adapts its window against 1/4 of the update stream, but the
  // workload and invalidation laws are unchanged: the hit ratios agree
  // statistically with the unsharded simulation.
  EXPECT_GT(simR.hitRatio(), 0.15) << "config has no signal";
  EXPECT_NEAR(liveR.hitRatio(), simR.hitRatio(), 0.12)
      << "cluster=" << liveR.hitRatio() << " sim=" << simR.hitRatio();
}

TEST(LiveLoopback, FourShardClusterAfwMatchesSimulation) {
  expectClusterMatchesSim(schemes::SchemeKind::kAfw);
}

TEST(LiveLoopback, FourShardClusterAawMatchesSimulation) {
  expectClusterMatchesSim(schemes::SchemeKind::kAaw);
}

/// Open fds of this process, as /proc/self/fd lists them.
std::size_t openFdCount() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n;
}

// A daemon that fails to start throws and leaves neither an fd nor a
// reactor registration behind, whichever step refused it.
TEST(LiveLoopback, ServerThatFailsToStartLeavesNoFdOpen) {
  Reactor reactor;
  ServerOptions ok;
  ok.cfg = baseConfig(schemes::SchemeKind::kAaw);
  const BroadcastServer holder(reactor, ok);  // holds a TCP port

  ServerOptions badBind = ok;
  badBind.bindAddress = "not-an-address";
  ServerOptions badGroup = ok;
  badGroup.multicastGroup = "10.0.0.1";  // not in 224.0.0.0/4
  badGroup.multicastPort = 47862;
  ServerOptions portInUse = ok;
  portInUse.tcpPort = holder.tcpPort();

  for (const ServerOptions* opts : {&badBind, &badGroup, &portInUse}) {
    const std::size_t fdsBefore = openFdCount();
    const std::size_t regsBefore = reactor.fdCount();
    for (int attempt = 0; attempt < 3; ++attempt) {
      EXPECT_THROW((void)std::make_unique<BroadcastServer>(reactor, *opts),
                   std::runtime_error);
    }
    EXPECT_EQ(openFdCount(), fdsBefore) << "bind address "
                                        << opts->bindAddress << ", group '"
                                        << opts->multicastGroup << "', port "
                                        << opts->tcpPort;
    EXPECT_EQ(reactor.fdCount(), regsBefore);
  }
}

// The L-period broadcast timer's wall period is the model period over the
// time scale, so a scale that is not a positive finite number is refused
// before the daemon registers anything.
TEST(LiveLoopback, ServerRefusesANonFiniteOrNonPositiveTimeScale) {
  Reactor reactor;
  ServerOptions opts;
  opts.cfg = baseConfig(schemes::SchemeKind::kAaw);
  for (const double scale : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(), 0.0,
                             -60.0}) {
    opts.timeScale = scale;
    EXPECT_THROW((void)std::make_unique<BroadcastServer>(reactor, opts),
                 std::invalid_argument)
        << scale;
  }
  EXPECT_EQ(reactor.timerCount(), 0u);
  EXPECT_EQ(reactor.fdCount(), 0u);
}

/// A hand-rolled one-shard daemon: it welcomes one agent into a TS cluster
/// of itself, then speaks to the agent's downlink with whatever datagrams
/// a test forges. Raw sockets on purpose, so nothing it sends passes
/// through the server's encoders.
class ForgingDaemon {
 public:
  static constexpr std::uint32_t kLoopback = 0x7F000001u;

  ForgingDaemon() {
    listenFd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    EXPECT_GE(listenFd_, 0);
    sockaddr_in addr = loopback(0);
    EXPECT_EQ(
        ::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
    EXPECT_EQ(::listen(listenFd_, 1), 0);
    socklen_t len = sizeof addr;
    EXPECT_EQ(
        ::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    port_ = ntohs(addr.sin_port);
    udpFd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
    EXPECT_GE(udpFd_, 0);
  }
  ~ForgingDaemon() {
    if (connFd_ >= 0) ::close(connFd_);
    ::close(udpFd_);
    ::close(listenFd_);
  }
  ForgingDaemon(const ForgingDaemon&) = delete;
  ForgingDaemon& operator=(const ForgingDaemon&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Accepts the agent's dial, reads its Hello (sent at connect) and
  /// welcomes it with `w`, completed with this daemon's one-shard map.
  void welcome(wire::Welcome w) {
    ASSERT_NO_FATAL_FAILURE(acceptHello());
    w.shardMap = selfMap();
    const std::span<const std::uint8_t> frame = arena_.build(
        wire::FrameType::kWelcome, net::TrafficClass::kControl, w,
        wire::encodeWelcomeInto);
    ASSERT_EQ(::send(connFd_, frame.data(), frame.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(frame.size()));
  }

  /// As welcome(), but the kWelcome payload is cut to `keepBytes` bytes.
  void welcomeTruncated(wire::Welcome w, std::size_t keepBytes) {
    ASSERT_NO_FATAL_FAILURE(acceptHello());
    w.shardMap = selfMap();
    std::vector<std::uint8_t> payload;
    report::BitWriter bits(payload);
    wire::encodeWelcomeInto(w, bits);
    ASSERT_LT(keepBytes, payload.size());
    payload.resize(keepBytes);
    sendUplink(wire::FrameType::kWelcome, payload);
  }

  /// One frame of `type` carrying `payload` on the agent's uplink.
  void sendUplink(wire::FrameType type,
                  const std::vector<std::uint8_t>& payload) {
    report::BitWriter w =
        arena_.begin(type, wire::kNoScheme, net::TrafficClass::kControl);
    for (std::uint8_t b : payload) w.write(b, 8);
    arena_.finish(w);
    ASSERT_EQ(::send(connFd_, arena_.frame().data(), arena_.frame().size(),
                     MSG_NOSIGNAL),
              static_cast<ssize_t>(arena_.frame().size()));
  }

  /// One kReport datagram carrying `payload` to the agent's downlink.
  void sendReport(const std::vector<std::uint8_t>& payload) {
    report::BitWriter w = arena_.begin(wire::FrameType::kReport,
                                       wire::kNoScheme,
                                       net::TrafficClass::kInvalidationReport);
    for (std::uint8_t b : payload) w.write(b, 8);
    arena_.finish(w);
    const sockaddr_in to = loopback(downlinkPort_);
    EXPECT_EQ(::sendto(udpFd_, arena_.frame().data(), arena_.frame().size(),
                       0, reinterpret_cast<const sockaddr*>(&to), sizeof to),
              static_cast<ssize_t>(arena_.frame().size()));
  }

 private:
  [[nodiscard]] ShardMap selfMap() const {
    return ShardMap::single(
        ShardEndpoint{.ipv4 = kLoopback, .tcpPort = port_});
  }

  /// Accepts the agent's dial and reads the Hello it sends at connect.
  void acceptHello() {
    connFd_ = ::accept4(listenFd_, nullptr, nullptr, SOCK_CLOEXEC);
    ASSERT_GE(connFd_, 0);
    wire::FrameBuffer in;
    std::optional<wire::FrameView> hello;
    std::uint8_t buf[512];
    while (!(hello = in.next())) {
      const ssize_t n = ::recv(connFd_, buf, sizeof buf, 0);
      ASSERT_GT(n, 0) << "no Hello";
      in.append(buf, static_cast<std::size_t>(n));
    }
    ASSERT_EQ(hello->header.type, wire::FrameType::kHello);
    const std::optional<wire::Hello> h = wire::decodeHello(hello->payload);
    ASSERT_TRUE(h.has_value());
    downlinkPort_ = h->udpPort;
  }

  static sockaddr_in loopback(std::uint16_t port) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(kLoopback);
    addr.sin_port = htons(port);
    return addr;
  }

  int listenFd_ = -1;
  int connFd_ = -1;
  int udpFd_ = -1;
  std::uint16_t port_ = 0;
  std::uint16_t downlinkPort_ = 0;
  wire::FrameArena arena_;
};

/// One TS agent dialed into a ForgingDaemon, configured to issue no query
/// while a test runs: everything it hears is what the test forges.
struct ForgedPeer {
  ForgedPeer() : cfg(quietTsConfig()), pool(reactor, agentOptions()) {
    pool.start();
  }

  static core::SimConfig quietTsConfig() {
    core::SimConfig c = baseConfig(schemes::SchemeKind::kTs);
    c.meanThinkTime = 1e6;
    return c;
  }

  AgentOptions agentOptions() const {
    AgentOptions o;
    o.cfg = cfg;
    o.port = daemon.port();
    o.sendAudit = false;
    return o;
  }

  /// The Welcome of a one-client TS run of `cfg`, less the map the daemon
  /// fills in.
  wire::Welcome welcomeMessage() const {
    wire::Welcome w;
    w.scheme = static_cast<std::uint8_t>(schemes::SchemeKind::kTs);
    w.dbSize = static_cast<std::uint32_t>(cfg.dbSize);
    w.numClients = 1;
    w.cacheCapacity = 100;
    w.dataItemBytes = static_cast<std::uint32_t>(cfg.dataItemBytes);
    w.controlMessageBytes =
        static_cast<std::uint32_t>(cfg.controlMessageBytes);
    w.broadcastPeriod = cfg.broadcastPeriod;
    w.windowIntervals = static_cast<std::uint16_t>(cfg.windowIntervals);
    return w;
  }

  /// Runs the reactor until `done()` holds, or about one second.
  template <typename Pred>
  void runUntil(Pred done) {
    for (int round = 0; round < 1000 && !done(); ++round) reactor.runOnce(1);
  }

  Reactor reactor;
  ForgingDaemon daemon;
  core::SimConfig cfg;
  ClientPool pool;
};

// A Welcome that does not decode is a bad frame like any other: counted,
// and nobody is welcomed on the strength of it.
TEST(LiveLoopback, TruncatedWelcomeIsCountedAndWelcomesNobody) {
  ForgedPeer peer;
  peer.daemon.welcomeTruncated(peer.welcomeMessage(), 6);
  peer.runUntil([&] { return peer.pool.stats().badFrames > 0; });
  for (int round = 0; round < 20; ++round) peer.reactor.runOnce(1);
  EXPECT_EQ(peer.pool.stats().badFrames, 1u);
  EXPECT_EQ(peer.pool.welcomedCount(), 0u);
  EXPECT_EQ(peer.pool.stats().connectionsLost, 0u);
  peer.pool.shutdown();
}

// Undecodable acks and validity replies on a welcomed uplink are counted
// as bad frames and change nothing else.
TEST(LiveLoopback, TruncatedCheckAckAndValidityReplyAreCounted) {
  ForgedPeer peer;
  peer.daemon.welcome(peer.welcomeMessage());
  peer.runUntil([&] { return peer.pool.welcomedCount() > 0; });
  ASSERT_EQ(peer.pool.welcomedCount(), 1u);
  const std::uint64_t badBefore = peer.pool.stats().badFrames;

  peer.daemon.sendUplink(wire::FrameType::kCheckAck, {0x01});
  peer.daemon.sendUplink(wire::FrameType::kValidityReply, {0x01});
  peer.runUntil(
      [&] { return peer.pool.stats().badFrames >= badBefore + 2; });
  EXPECT_EQ(peer.pool.stats().badFrames, badBefore + 2);
  EXPECT_EQ(peer.pool.aliveCount(), 1u);
  EXPECT_EQ(peer.pool.stats().connectionsLost, 0u);
  peer.pool.shutdown();
}

// CRC-valid IR datagrams a live client must survive: a TS report whose
// coverage starts after its broadcast time, a well-formed report of a kind
// the agent's scheme cannot take (BS, sent to a TS agent), and a TS report
// listing an item id past the database. Each is counted as a bad frame and
// dropped; the agent stays connected.
TEST(LiveLoopback, ForgedReportDatagramsAreDroppedNotFatal) {
  ForgedPeer peer;
  const core::SimConfig& cfg = peer.cfg;
  const wire::Welcome w = peer.welcomeMessage();
  peer.daemon.welcome(w);
  peer.runUntil([&] { return peer.pool.welcomedCount() > 0; });
  ASSERT_EQ(peer.pool.welcomedCount(), 1u);

  const report::SizeModel sizes =
      wire::configFromWelcome(cfg, w).sizeModel();
  const report::ReportCodec codec(sizes);
  report::BitWriter forged;
  forged.write(0, 2);  // kind: TS, not extended
  forged.write(0, 1);
  forged.write(codec.quantize(1.0), sizes.timestampBits);  // broadcast
  forged.write(codec.quantize(5.0), sizes.timestampBits);  // coverage
  forged.write(0, 24);                                     // no records
  db::UpdateHistory history(cfg.dbSize);
  history.record(3, 0.5);
  // 1 000 items take 10 bits, so a frame can name ids up to 1 023.
  ASSERT_EQ(sizes.itemIdBits(), 10);
  const std::vector<std::uint8_t> forgedId =
      codec.encode(*report::TsReport::fromParts(
          report::ReportKind::kTsWindow, sizes, 1.0, 0.0,
          {{3, 0.5}, {1023, 0.75}}));
  const std::uint64_t badBefore = peer.pool.stats().badFrames;
  peer.daemon.sendReport(forged.finish());
  peer.daemon.sendReport(
      codec.encode(*report::BsReport::build(history, sizes, 1.0)));
  peer.daemon.sendReport(forgedId);

  peer.runUntil(
      [&] { return peer.pool.stats().badFrames >= badBefore + 3; });
  EXPECT_EQ(peer.pool.stats().badFrames, badBefore + 3);
  EXPECT_EQ(peer.pool.stats().reportsHeard, 0u);
  EXPECT_EQ(peer.pool.aliveCount(), 1u);
  EXPECT_EQ(peer.pool.stats().connectionsLost, 0u);
  peer.pool.shutdown();
}

/// Multicast downlink: one datagram per IR serves every agent that joined
/// the shard's group. Loopback multicast needs kernel support the sandbox
/// may withhold, so a failed group join skips rather than fails.
TEST(LiveLoopback, MulticastDownlinkDeliversReports) {
  core::SimConfig cfg = baseConfig(schemes::SchemeKind::kAaw);
  cfg.simTime = 600.0;

  Reactor reactor;
  ServerOptions serverOpts;
  serverOpts.cfg = cfg;
  serverOpts.timeScale = 500.0;
  serverOpts.multicastGroup = "239.255.77.61";
  serverOpts.multicastPort = 47861;
  std::unique_ptr<BroadcastServer> server;
  std::unique_ptr<ClientPool> pool;
  try {
    server = std::make_unique<BroadcastServer>(reactor, serverOpts);
    AgentOptions agentOpts;
    agentOpts.cfg = cfg;
    agentOpts.port = server->tcpPort();
    agentOpts.numAgents = cfg.numClients;
    agentOpts.auditDbs = {&server->database()};
    pool = std::make_unique<ClientPool>(reactor, agentOpts);
    pool->start();
  } catch (const std::runtime_error& e) {
    GTEST_SKIP() << "multicast unavailable here: " << e.what();
  }

  const Reactor::TimerHandle tick = reactor.addTimer(0.02, 0.02, [&] {
    if (pool->modelNow() >= cfg.simTime) {
      pool->shutdown();
      reactor.stop();
    }
  });
  try {
    reactor.run();  // agents join the group at Welcome time, mid-run
    (void)reactor.cancelTimer(tick);
  } catch (const std::runtime_error& e) {
    GTEST_SKIP() << "multicast unavailable here: " << e.what();
  }

  EXPECT_EQ(pool->welcomedCount(), cfg.numClients);
  EXPECT_GT(pool->stats().reportsHeard, 0u)
      << "no IR arrived over the multicast group";
  EXPECT_EQ(pool->staleReads(), 0u);
  EXPECT_EQ(server->staleReads(), 0u);
  const metrics::SimResult r = pool->finalize();
  EXPECT_GT(r.queriesCompleted, 0u);
}

}  // namespace
}  // namespace mci::live
