#include "live/broadcast_server.hpp"

#include <arpa/inet.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <stdexcept>
#include <utility>

#include "core/check.hpp"
#include "core/scheme_factory.hpp"
#include "report/bs_report.hpp"
#include "report/ts_report.hpp"

namespace mci::live {
namespace {

workload::AccessPattern makeUpdatePattern(const core::SimConfig& cfg) {
  return cfg.hotColdUpdates
             ? workload::AccessPattern::hotCold(cfg.dbSize, cfg.hotUpdate)
             : workload::AccessPattern::uniform(cfg.dbSize);
}

}  // namespace

BroadcastServer::BroadcastServer(Reactor& reactor, ServerOptions options)
    : reactor_(reactor),
      opts_(std::move(options)),
      clock_(opts_.clock ? *opts_.clock : LiveClock(opts_.timeScale)),
      sizes_(opts_.cfg.sizeModel()),
      db_(opts_.cfg.dbSize),
      history_(opts_.cfg.dbSize),
      collector_(&db_, opts_.cfg.auditStaleReads),
      codec_(sizes_),
      updatePattern_(makeUpdatePattern(opts_.cfg)),
      updateRng_(sim::Rng(opts_.cfg.seed).fork("updates")) {
  opts_.cfg.validate();
  if (opts_.timeScale <= 0) {
    throw std::invalid_argument("timeScale must be positive");
  }
  if (opts_.shardCount < 1 || opts_.shardCount > ShardMap::kMaxShards) {
    throw std::invalid_argument("shardCount must be in [1, kMaxShards]");
  }
  if (opts_.shardIndex >= opts_.shardCount) {
    throw std::invalid_argument("shardIndex must be < shardCount");
  }
  collector_.setClientCount(opts_.cfg.numClients);

  // Same derivation as core::Simulation, so a live SIG run and a sim SIG
  // run with the same seed use the same subset table.
  sigSeed_ = sim::Rng(opts_.cfg.seed).fork("sig-seed").bits();
  if (opts_.cfg.scheme == schemes::SchemeKind::kSig) {
    sigTable_ = std::make_unique<report::SignatureTable>(
        opts_.cfg.dbSize, opts_.cfg.sigSubsets, opts_.cfg.sigPerItem,
        sigSeed_);
  }
  scheme_ = core::makeServerScheme(opts_.cfg, history_, db_, sizes_,
                                   sigTable_.get());

  owner_ = reactor_.makeOwner();
  setupSockets();

  // A single-shard daemon is its own cluster; a multi-shard one waits for
  // the launcher to install the full map before it will welcome anyone.
  if (opts_.shardCount == 1) {
    shardMap_ = ShardMap(1, opts_.shardHashSeed, {self_});
  }

  const double wallPeriod = clock_.wallDelay(opts_.cfg.broadcastPeriod);
  broadcastTimer_ = reactor_.addTimer(wallPeriod, wallPeriod,
                                      [this] { broadcastTick(); }, owner_);
  scheduleNextUpdate();
}

BroadcastServer::~BroadcastServer() {
  // Both timers are live here by construction: the broadcast timer is
  // periodic and the update timer always re-arms itself before returning.
  MCI_CHECK(reactor_.cancelTimer(broadcastTimer_))
      << "broadcast timer vanished before shutdown";
  MCI_CHECK(reactor_.cancelTimer(updateTimer_))
      << "update timer vanished before shutdown";
  for (auto& [fd, conn] : conns_) reactor_.removeFd(conn.reg);
  conns_.clear();  // each stream closes its fd
  for (auto& ch : handoffChannels_) {
    if (ch->stream.isOpen()) reactor_.removeFd(ch->reg);
  }
  handoffChannels_.clear();
  if (listenFd_ >= 0) {
    reactor_.removeFd(listenReg_);
    ::close(listenFd_);
  }
  if (udpFd_ >= 0) ::close(udpFd_);
  // Last: every registration tagged with owner_ is gone; a debug build
  // aborts here if the teardown above ever regresses.
  reactor_.retireOwner(owner_);
}

void BroadcastServer::setupSockets() {
  listenFd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  udpFd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listenFd_ < 0 || udpFd_ < 0) {
    throw std::runtime_error("live: socket() failed");
  }
  const int one = 1;
  ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opts_.tcpPort);
  if (::inet_pton(AF_INET, opts_.bindAddress.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("live: bad bind address " + opts_.bindAddress);
  }
  if (::bind(listenFd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listenFd_, 128) != 0) {
    throw std::runtime_error("live: bind/listen failed on " +
                             opts_.bindAddress);
  }
  socklen_t len = sizeof addr;
  ::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&addr), &len);
  tcpPort_ = ntohs(addr.sin_port);

  self_.ipv4 = ntohl(addr.sin_addr.s_addr);
  self_.tcpPort = tcpPort_;

  if (!opts_.multicastGroup.empty()) {
    in_addr group{};
    if (::inet_pton(AF_INET, opts_.multicastGroup.c_str(), &group) != 1 ||
        (ntohl(group.s_addr) >> 28) != 0xE || opts_.multicastPort == 0) {
      throw std::runtime_error("live: bad multicast group " +
                               opts_.multicastGroup);
    }
    mcastAddr_.sin_family = AF_INET;
    mcastAddr_.sin_addr = group;
    mcastAddr_.sin_port = htons(opts_.multicastPort);
    // Source datagrams from the bind interface and loop them back so a
    // same-host cluster (tests, demos) hears its own group traffic.
    in_addr iface{};
    iface.s_addr = addr.sin_addr.s_addr;
    ::setsockopt(udpFd_, IPPROTO_IP, IP_MULTICAST_IF, &iface, sizeof iface);
    const std::uint8_t loop = 1;
    const std::uint8_t ttl = 1;
    ::setsockopt(udpFd_, IPPROTO_IP, IP_MULTICAST_LOOP, &loop, sizeof loop);
    ::setsockopt(udpFd_, IPPROTO_IP, IP_MULTICAST_TTL, &ttl, sizeof ttl);
    // Join the group too: local membership guarantees loopback delivery on
    // stacks that drop groups nobody on the host has joined yet. udpFd_ is
    // never read, so keep the kernel's copy queue minimal.
    ip_mreq mreq{};
    mreq.imr_multiaddr = group;
    mreq.imr_interface = iface;
    if (::setsockopt(udpFd_, IPPROTO_IP, IP_ADD_MEMBERSHIP, &mreq,
                     sizeof mreq) != 0) {
      throw std::runtime_error("live: IP_ADD_MEMBERSHIP failed for " +
                               opts_.multicastGroup);
    }
    const int tinyBuf = 1;
    ::setsockopt(udpFd_, SOL_SOCKET, SO_RCVBUF, &tinyBuf, sizeof tinyBuf);
    multicast_ = true;
    self_.multicastIpv4 = ntohl(group.s_addr);
    self_.multicastPort = opts_.multicastPort;
  }

  listenReg_ = reactor_.addFd(
      listenFd_, EPOLLIN, [this](std::uint32_t) { onAcceptable(); }, owner_);
}

void BroadcastServer::setShardMap(ShardMap map) {
  if (!map.valid()) {
    throw std::invalid_argument("live: refusing an invalid shard map");
  }
  if (shardMap_.valid() && map.version() < shardMap_.version()) {
    throw std::invalid_argument("live: shard map version went backwards");
  }
  // Find our slot by endpoint identity, not by the constructed index: a
  // reshard cutover may hand a daemon a map with a different count, seed,
  // or slot for it. Adopting the slot re-parameterizes ownsItem() so the
  // spec-based hash law and the installed map can never disagree.
  const std::optional<std::uint32_t> selfIndex =
      map.indexOf(self_.ipv4, tcpPort_);
  if (!selfIndex) {
    throw std::invalid_argument("live: no shard map slot is this daemon");
  }
  opts_.shardIndex = *selfIndex;
  opts_.shardCount = map.shardCount();
  opts_.shardHashSeed = map.hashSeed();
  shardMap_ = std::move(map);
}

void BroadcastServer::onAcceptable() {
  for (;;) {
    sockaddr_in peer{};
    socklen_t len = sizeof peer;
    const int fd = ::accept4(listenFd_, reinterpret_cast<sockaddr*>(&peer),
                             &len, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient error: wait for next event
    if (opts_.sendBufferBytes > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &opts_.sendBufferBytes,
                   sizeof opts_.sendBufferBytes);
    }
    // DataItem fills and check acks must beat the next broadcast; Nagle
    // would park these small frames behind the client's delayed ACK.
    const int nodelay = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof nodelay);
    ++stats_.connectionsAccepted;
    Conn& conn = conns_.try_emplace(fd).first->second;
    conn.peer = peer;
    conn.stream.adopt(reactor_, fd);
    conn.reg = reactor_.addFd(
        fd, EPOLLIN, [this, fd](std::uint32_t ev) { onConnEvent(fd, ev); },
        owner_);
  }
}

void BroadcastServer::onConnEvent(int fd, std::uint32_t events) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  if ((events & (EPOLLHUP | EPOLLERR)) != 0 ||
      ((events & EPOLLOUT) != 0 && !it->second.stream.flush())) {
    closeConn(fd);
    return;
  }
  if ((events & EPOLLIN) == 0) return;
  while (std::optional<wire::FrameView> frame = it->second.stream.next()) {
    handleFrame(fd, it->second, *frame);
    it = conns_.find(fd);
    if (it == conns_.end()) return;  // handler closed the connection
  }
  FrameStream& stream = it->second.stream;
  stats_.badFrames += stream.takeSkippedFrames();
  if (stream.failed()) {
    if (stream.corrupt()) ++stats_.badFrames;
    closeConn(fd);  // orderly EOF, hard error or lost framing
  }
}

void BroadcastServer::handleFrame(int fd, Conn& conn,
                                  const wire::FrameView& frame) {
  // The control decoders read an owned payload.
  const std::vector<std::uint8_t> payload(frame.payload.begin(),
                                          frame.payload.end());
  switch (frame.header.type) {
    case wire::FrameType::kHello:
      if (auto m = wire::decodeHello(payload)) handleHello(fd, conn, *m);
      return;
    case wire::FrameType::kQueryRequest:
      if (!conn.welcomed) return;
      if (auto m = wire::decodeQueryRequest(payload)) {
        handleQuery(fd, conn, *m);
      }
      return;
    case wire::FrameType::kCheck:
      if (!conn.welcomed) return;
      if (auto m = wire::decodeCheck(payload)) handleCheck(fd, conn, *m);
      return;
    case wire::FrameType::kAudit:
      if (auto m = wire::decodeAudit(payload)) handleAudit(conn, *m);
      return;
    case wire::FrameType::kHandoff:
      // Peer-to-peer, not client traffic: the backfill stream arrives on a
      // plain accepted connection that never Hellos.
      if (auto m = wire::decodeHandoff(payload)) {
        handleHandoff(fd, conn, *m);
      } else {
        ++stats_.badFrames;
      }
      return;
    case wire::FrameType::kBye:
      closeConn(fd);
      return;
    default:
      ++stats_.badFrames;  // a type the server never receives
      return;
  }
}

void BroadcastServer::handleHello(int fd, Conn& conn,
                                  const wire::Hello& hello) {
  if (conn.welcomed) return;
  if (!shardMap_.valid() || retired_) {
    // Multi-shard daemon not yet given its cluster map, or a shard the
    // incoming epoch removes: either way, nothing to welcome anyone into.
    closeConn(fd);
    return;
  }
  std::uint32_t id = 0;
  if (!freeIds_.empty()) {
    id = freeIds_.back();
    freeIds_.pop_back();
  } else if (nextId_ < opts_.cfg.numClients) {
    id = nextId_++;
  } else {
    closeConn(fd);  // population full: refuse (the client sees EOF)
    return;
  }
  conn.clientId = id;
  conn.welcomed = true;
  conn.audit = hello.audit;
  conn.udpAddr = conn.peer;
  conn.udpAddr.sin_port = htons(hello.udpPort);

  const core::SimConfig& cfg = opts_.cfg;
  wire::Welcome w;
  w.clientId = id;
  w.scheme = static_cast<std::uint8_t>(cfg.scheme);
  w.dbSize = static_cast<std::uint32_t>(cfg.dbSize);
  w.numClients = static_cast<std::uint32_t>(cfg.numClients);
  w.cacheCapacity = static_cast<std::uint32_t>(cfg.cacheCapacity());
  w.timestampBits = static_cast<std::uint8_t>(sizes_.timestampBits);
  w.signatureBits = static_cast<std::uint8_t>(sizes_.signatureBits);
  w.dataItemBytes = static_cast<std::uint32_t>(cfg.dataItemBytes);
  w.controlMessageBytes = static_cast<std::uint32_t>(cfg.controlMessageBytes);
  w.broadcastPeriod = cfg.broadcastPeriod;
  w.timeScale = opts_.timeScale;
  w.windowIntervals = static_cast<std::uint16_t>(cfg.windowIntervals);
  w.sigSeed = sigSeed_;
  w.sigSubsets = static_cast<std::uint32_t>(cfg.sigSubsets);
  w.sigPerItem = static_cast<std::uint8_t>(cfg.sigPerItem);
  w.sigVotes = cfg.sigVotes;
  w.gcoreGroupSize = static_cast<std::uint32_t>(cfg.gcoreGroupSize);
  w.shardIndex = static_cast<std::uint16_t>(opts_.shardIndex);
  w.shardMap = shardMap_;
  if (!sendFrame(fd, conn, wire::FrameType::kWelcome,
                 net::TrafficClass::kControl, wire::encodeWelcome(w))) {
    return;  // flush failed; the connection (and conn) are already gone
  }
}

void BroadcastServer::handleQuery(int fd, Conn& conn,
                                  const wire::QueryRequest& q) {
  ++stats_.queryRequests;
  // The copy is read "now", but stamped one tick earlier: an update landing
  // later within this same millisecond tick gets a strictly newer
  // timestamp, so the next report invalidates the copy (at worst a false
  // invalidation, never a hidden stale entry).
  const std::uint64_t rtick = clock_.nowTick();
  const sim::SimTime readTime =
      LiveClock::tickToTime(std::max<std::uint64_t>(rtick, 1) - 1);
  for (db::ItemId item : q.items) {
    if (!ownsItem(item)) {
      if (graceOwns(item)) {
        // Mid-reshard grace: the client has not flipped yet, and the item
        // is frozen for the whole window — the previous owner's partition
        // is still the truth. Serve it rather than drop the query.
        ++stats_.graceServed;
      } else {
        // This partition has no truth about the item; serving it would
        // hand out a frozen version. Refuse, and tell the straggler which
        // epoch it missed (the count flags a genuine routing bug).
        ++stats_.misroutedItems;
        if (!reannounceMap(fd, conn)) return;  // send error closed the conn
        continue;
      }
    }
    wire::DataItem d;
    d.item = item;
    d.version = db_.currentVersion(item);
    d.readTime = readTime;
    if (!sendFrame(fd, conn, wire::FrameType::kDataItem,
                   net::TrafficClass::kBulk, wire::encodeDataItem(d))) {
      return;  // send error closed the connection
    }
  }
}

void BroadcastServer::handleCheck(int fd, Conn& conn, const wire::Check& c) {
  ++stats_.checksReceived;
  schemes::CheckMessage msg;
  msg.client = conn.clientId;
  msg.tlb = c.tlb;
  msg.entries.reserve(c.entries.size());
  for (const db::UpdateRecord& e : c.entries) {
    // Entries about another shard's items would be judged against a
    // partition that never updates them (always "valid") — drop them.
    // Grace-owned entries are frozen, so the old partition's verdict holds.
    if (ownsItem(e.item) || graceOwns(e.item)) {
      msg.entries.push_back(e);
    } else {
      ++stats_.misroutedItems;
    }
  }
  msg.sizeBits = c.sizeBits;
  msg.epoch = c.epoch;

  const std::uint64_t ctick = clock_.nowTick();
  // Evaluate against the previous tick: an update that lands later within
  // this same tick then carries a strictly newer timestamp than anything
  // this check salvages.
  const sim::SimTime schemeNow =
      LiveClock::tickToTime(std::max<std::uint64_t>(ctick, 1) - 1);
  std::optional<schemes::ValidityReply> reply =
      scheme_->onCheckMessage(msg, schemeNow);

  // The ack's absorption time backs the client's "a report broadcast
  // strictly later saw my check" rule, so it must never precede the last
  // broadcast tick: a report already sent can carry a broadcast tick ahead
  // of the wall clock (tick-bump rules), and an ack stamped before it would
  // wrongly claim that report reflected this check.
  wire::CheckAck ack;
  ack.epoch = c.epoch;
  ack.asOf = LiveClock::tickToTime(std::max(ctick, lastBroadcastTick_));
  MCI_CHECK(ack.asOf >= LiveClock::tickToTime(lastBroadcastTick_))
      << "check ack stamped " << ack.asOf << " before last broadcast tick "
      << lastBroadcastTick_;
  if (!sendFrame(fd, conn, wire::FrameType::kCheckAck,
                 net::TrafficClass::kControl, wire::encodeCheckAck(ack))) {
    return;  // send error closed the connection
  }

  if (reply.has_value()) {
    collector_.onValidityReplySent();
    wire::ValidityReplyMsg vr;
    vr.asOf = reply->asOf;
    vr.epoch = msg.epoch;
    vr.sizeBits = reply->sizeBits;
    vr.invalid = std::move(reply->invalid);
    if (!sendFrame(fd, conn, wire::FrameType::kValidityReply,
                   net::TrafficClass::kControl,
                   wire::encodeValidityReply(vr))) {
      return;  // flush failed; the connection is already gone
    }
  }
}

void BroadcastServer::handleAudit(Conn& conn, const wire::Audit& a) {
  ++stats_.auditsReceived;
  if (!conn.welcomed || conn.clientId >= opts_.cfg.numClients) return;
  if (!ownsItem(a.item) && !graceOwns(a.item)) {
    ++stats_.misroutedItems;  // our partition cannot audit a foreign item
    return;
  }
  // Authoritative stale-read audit: the collector cross-checks the echoed
  // answer against the real database (out-of-process clients only have a
  // version-less stub and cannot audit themselves).
  collector_.onCacheAnswer(conn.clientId, a.item, a.version, a.validAsOf);
}

void BroadcastServer::closeConn(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  stats_.badFrames += it->second.stream.takeSkippedFrames();
  if (it->second.welcomed) freeIds_.push_back(it->second.clientId);
  reactor_.removeFd(it->second.reg);
  conns_.erase(it);  // the stream closes the fd
  ++stats_.connectionsClosed;
}

bool BroadcastServer::sendFrame(int fd, Conn& conn, wire::FrameType type,
                                net::TrafficClass trafficClass,
                                const std::vector<std::uint8_t>& payload) {
  const std::array<std::uint8_t, wire::kHeaderBytes> hdr =
      wire::encodeFrameHeader(type, wire::kNoScheme, trafficClass, payload);
  if (conn.stream.queuedBytes() + hdr.size() + payload.size() >
      opts_.maxSendQueueBytes) {
    // Whole-frame drop: a wedged client loses replies (and will resync via
    // future reports) but can never wedge the daemon. The connection
    // itself is still healthy.
    ++stats_.framesDropped;
    return true;
  }
  if (conn.stream.send(hdr, payload)) return true;
  closeConn(fd);
  return false;
}

void BroadcastServer::encodeReportInto(const report::Report& r,
                                       report::BitWriter& w) {
  switch (r.kind) {
    case report::ReportKind::kTsWindow:
    case report::ReportKind::kTsExtended:
      codec_.encodeInto(static_cast<const report::TsReport&>(r), w);
      return;
    case report::ReportKind::kBitSeq:
      codec_.encodeInto(static_cast<const report::BsReport&>(r), bsScratch_,
                        w);
      return;
    case report::ReportKind::kSignature:
      codec_.encodeInto(static_cast<const report::SigReport&>(r), w);
      return;
  }
}

void BroadcastServer::broadcastTick() {
  // Strictly increasing broadcast ticks, never before the last update: the
  // simulator's "updates happen-before the broadcast at the same instant"
  // ordering, re-established on a wall clock.
  const std::uint64_t btick =
      std::max({clock_.nowTick(), lastBroadcastTick_ + 1, lastUpdateTick_});
  const sim::SimTime t = LiveClock::tickToTime(btick);
  const report::ReportPtr r = scheme_->buildReport(t);
  collector_.onReportBuilt(r->kind);
  // Encode once into the arena; every destination below shares its bytes.
  report::BitWriter w = reportArena_.begin(
      wire::FrameType::kReport, static_cast<std::uint8_t>(opts_.cfg.scheme),
      net::TrafficClass::kInvalidationReport);
  encodeReportInto(*r, w);
  reportArena_.finish(w);
  const std::span<const std::uint8_t> payload = reportArena_.payload();
  // Test hook (byte-identity pins); capacity reused across ticks.
  lastReportPayload_.assign(payload.begin(), payload.end());
  fanOutReport(reportArena_);
  lastBroadcastTick_ = btick;
  ++stats_.reportsBroadcast;
}

std::size_t BroadcastServer::fanOutReport(const wire::FrameArena& frame) {
  batchAddrs_.clear();
  if (multicast_) {
    // One datagram serves every listener of this shard's group.
    batchAddrs_.push_back(&mcastAddr_);
  } else {
    for (auto& [fd, conn] : conns_) {
      // Port 0 is the Hello's opt-out: a multiplexing endpoint (swarm) or
      // multicast client that has no per-connection downlink of its own.
      if (!conn.welcomed || conn.udpAddr.sin_port == 0) continue;
      // Grows to the connection count's high-water mark only; cleared
      // (capacity kept) every tick.
      // MCI-ANALYZE-ALLOW(hot-path-alloc): scratch high-water capacity
      batchAddrs_.push_back(&conn.udpAddr);
    }
  }
  if (Reactor::supportsBatchedUdp()) {
    const UdpBatchSender::Result res = batchSender_.sendToMany(
        udpFd_, frame.data(), frame.size(), batchAddrs_);
    stats_.udpSendSyscalls += res.syscalls;
    stats_.udpDatagramsSent += res.sent;
    stats_.udpSendFailures += res.failed;
    if (!res.fellBack) return batchAddrs_.size();
    // The kernel refused the batched call outright (ENOSYS under seccomp
    // or an emulation layer): fall through to the per-socket loop so this
    // frame still goes out.
  }
  for (const sockaddr_in* to : batchAddrs_) {
    ++stats_.udpSendSyscalls;
    const ssize_t n =
        ::sendto(udpFd_, frame.data(), frame.size(), MSG_DONTWAIT,
                 reinterpret_cast<const sockaddr*>(to), sizeof *to);
    if (n < 0) {
      ++stats_.udpSendFailures;
    } else {
      ++stats_.udpDatagramsSent;
    }
  }
  return batchAddrs_.size();
}

void BroadcastServer::scheduleNextUpdate() {
  const double gap = updateRng_.exponential(opts_.cfg.meanUpdateInterarrival);
  updateTimer_ = reactor_.addTimer(
      clock_.wallDelay(gap), 0,
      [this] {
        runUpdateTransaction();
        scheduleNextUpdate();
      },
      owner_);
}

void BroadcastServer::runUpdateTransaction() {
  const int count =
      1 + updateRng_.poisson(opts_.cfg.meanItemsPerUpdate - 1.0);
  // Updates land strictly after the last broadcast tick, so a report's
  // coverage cutoff can never equal an update it did not include.
  const std::uint64_t utick =
      std::max({clock_.nowTick(), lastUpdateTick_, lastBroadcastTick_ + 1});
  const sim::SimTime now = LiveClock::tickToTime(utick);
  for (int i = 0; i < count; ++i) {
    // Every shard draws the full transaction (same seed, same RNG stream)
    // and keeps only its own items: the union of the K thinned streams is
    // exactly the unsharded update stream.
    const db::ItemId item = updatePattern_.pick(updateRng_);
    // Freeze window: a migrating item is immutable on EVERY shard between
    // beginReshard and finishReshard, which is what makes the handed-off
    // snapshot authoritative and grace service correct. The whole cluster
    // skips the same draws, so the shared update stream stays aligned.
    if (freezeActive_ && migrates(item)) {
      ++stats_.updatesFrozen;
      continue;
    }
    if (!ownsItem(item)) {
      ++stats_.updatesThinned;
      continue;
    }
    db_.applyUpdate(item, now);
    history_.record(item, now);
    if (sigTable_) {
      const db::Version v = db_.currentVersion(item);
      sigTable_->applyUpdate(item, v - 1, v);
    }
    ++stats_.updatesApplied;
  }
  lastUpdateTick_ = utick;
}

// --- resharding ------------------------------------------------------------

void BroadcastServer::beginReshard(const ShardMap& oldMap,
                                   const ShardMap& newMap) {
  MCI_CHECK(!freezeActive_) << "beginReshard with a reshard already active";
  MCI_CHECK(oldMap.valid() && newMap.valid()) << "beginReshard needs two maps";
  MCI_CHECK(newMap.version() > oldMap.version())
      << "reshard must advance the epoch (" << oldMap.version() << " -> "
      << newMap.version() << ")";
  reshardOld_ = oldMap;
  reshardNew_ = newMap;
  // A joiner has no installed map yet: it owned nothing under the old epoch
  // and never grace-serves. Everyone else freezes from its old-map slot.
  oldSelfIndex_ = shardMap_.valid() ? opts_.shardIndex : kNoShard;
  freezeActive_ = true;
}

void BroadcastServer::startHandoff(std::function<void()> onDone) {
  MCI_CHECK(freezeActive_) << "startHandoff outside a reshard";
  MCI_CHECK(!handoffDone_) << "startHandoff called twice";
  handoffDone_ = std::move(onDone);

  // Which new-map slot is us (kNoShard when the new map removes us)? We
  // never stream to ourselves — items we keep need no handoff.
  const std::uint32_t newSelfIndex =
      reshardNew_.indexOf(self_.ipv4, tcpPort_).value_or(kNoShard);

  // Bucket every item we own under the OLD map whose owner changes by its
  // new owner. Never-updated items still get a (count=0) frame: the stream
  // must carry a deterministic last=1 marker per destination.
  std::vector<std::vector<db::ItemId>> byDst(reshardNew_.shardCount());
  if (oldSelfIndex_ != kNoShard) {
    for (db::ItemId item = 0; item < db_.size(); ++item) {
      if (reshardOld_.shardOf(item) != oldSelfIndex_) continue;
      const std::uint32_t dst = reshardNew_.shardOf(item);
      if (!migrates(item) || dst == newSelfIndex) continue;
      byDst[dst].push_back(item);
    }
  }

  for (std::uint32_t dst = 0; dst < byDst.size(); ++dst) {
    if (byDst[dst].empty()) continue;
    HandoffChannel& ch =
        *handoffChannels_.emplace_back(std::make_unique<HandoffChannel>());
    const ShardEndpoint& e = reshardNew_.endpoint(dst);
    const int fd = dialTcp(e.ipv4, e.tcpPort);
    if (fd < 0) {
      closeHandoffChannel(ch, true);
      continue;
    }
    ch.stream.adopt(reactor_, fd);
    HandoffChannel* cp = &ch;
    ch.reg = reactor_.addFd(
        fd, EPOLLIN,
        [this, cp](std::uint32_t ev) { onHandoffChannel(*cp, ev); }, owner_);

    // Send the whole stream now; the socket takes what it can and the
    // reactor drains the unbounded tail (see HandoffChannel).
    for (std::size_t i = 0; i < byDst[dst].size(); ++i) {
      const db::ItemId item = byDst[dst][i];
      wire::Handoff h;
      h.mapVersion = reshardNew_.version();
      h.sourceShard = static_cast<std::uint16_t>(oldSelfIndex_);
      h.last = i + 1 == byDst[dst].size() ? 1 : 0;
      h.item = item;
      h.updateTimes = db_.updateTimes(item);
      report::BitWriter w =
          controlArena_.begin(wire::FrameType::kHandoff, wire::kNoScheme,
                              net::TrafficClass::kBulk);
      wire::encodeHandoffInto(h, w);
      controlArena_.finish(w);
      if (!ch.stream.send(controlArena_.frame())) {
        closeHandoffChannel(ch, true);
        break;
      }
      ++ch.itemsQueued;
      ++stats_.handoffItemsSent;
    }
  }

  finishHandoffIfDone();  // fires onDone synchronously when nothing migrates
}

void BroadcastServer::onHandoffChannel(HandoffChannel& ch,
                                       std::uint32_t events) {
  if (ch.done) return;
  if ((events & (EPOLLHUP | EPOLLERR)) != 0 ||
      ((events & EPOLLOUT) != 0 && !ch.stream.flush())) {
    closeHandoffChannel(ch, true);
  } else if ((events & EPOLLIN) != 0) {
    while (std::optional<wire::FrameView> frame = ch.stream.next()) {
      if (frame->header.type != wire::FrameType::kHandoffAck) continue;
      const std::vector<std::uint8_t> payload(frame->payload.begin(),
                                              frame->payload.end());
      std::optional<wire::HandoffAck> ack = wire::decodeHandoffAck(payload);
      const bool ok = ack && ack->mapVersion == reshardNew_.version() &&
                      ack->itemsReceived >= ch.itemsQueued;
      closeHandoffChannel(ch, !ok);
      break;
    }
    // EOF before the ack: the stream is lost.
    if (ch.stream.failed()) closeHandoffChannel(ch, true);
  }
  if (ch.done) finishHandoffIfDone();
}

void BroadcastServer::closeHandoffChannel(HandoffChannel& ch, bool failed) {
  if (ch.stream.isOpen()) {
    reactor_.removeFd(ch.reg);
    ch.stream.close();
  }
  ch.done = true;
  if (failed) ++stats_.handoffFailures;
}

void BroadcastServer::finishHandoffIfDone() {
  if (!handoffDone_) return;
  for (const auto& ch : handoffChannels_) {
    if (!ch->done) return;
  }
  // The callback typically advances the coordinator, which may start new
  // phases; clear first so re-entry can never double-fire.
  std::function<void()> cb = std::move(handoffDone_);
  handoffDone_ = nullptr;
  cb();
}

void BroadcastServer::handleHandoff(int fd, Conn& conn,
                                    const wire::Handoff& h) {
  if (!freezeActive_ || h.mapVersion != reshardNew_.version()) {
    // A stream from an epoch this daemon is not migrating toward — count
    // and drop; the source's ack timeout-by-failure path flags it.
    ++stats_.badFrames;
    return;
  }
  const db::Version before = db_.currentVersion(h.item);
  db_.installSnapshot(h.item, h.updateTimes);
  const db::Version after = db_.currentVersion(h.item);
  if (after > before) {
    // Splice the item's last update time into the history ring so helping
    // reports can answer the migrated item's Tlb gap, and bump the update
    // tick so this shard's next broadcast orders after the spliced past.
    const sim::SimTime last = h.updateTimes.back();
    history_.spliceRecord(h.item, last);
    lastUpdateTick_ = std::max<std::uint64_t>(
        lastUpdateTick_,
        static_cast<std::uint64_t>(std::llround(last * 1000.0)));
    if (sigTable_) {
      for (db::Version v = before + 1; v <= after; ++v) {
        sigTable_->applyUpdate(h.item, v - 1, v);
      }
    }
  }
  ++conn.handoffReceived;
  ++stats_.handoffItemsReceived;
  if (h.last != 0) {
    wire::HandoffAck ack;
    ack.mapVersion = h.mapVersion;
    ack.itemsReceived = conn.handoffReceived;
    if (!sendFrame(fd, conn, wire::FrameType::kHandoffAck,
                   net::TrafficClass::kControl,
                   wire::encodeHandoffAck(ack))) {
      return;  // send error closed the connection
    }
  }
}

void BroadcastServer::cutoverReshard() {
  MCI_CHECK(freezeActive_) << "cutoverReshard outside a reshard";
  setShardMap(reshardNew_);
  graceActive_ = true;
  announceMapUpdate(shardMap_);
}

void BroadcastServer::retireReshard() {
  MCI_CHECK(freezeActive_) << "retireReshard outside a reshard";
  retired_ = true;
  graceActive_ = true;
  announceMapUpdate(reshardNew_);
}

void BroadcastServer::finishReshard() {
  freezeActive_ = false;
  graceActive_ = false;
  oldSelfIndex_ = kNoShard;
  handoffChannels_.clear();  // all done (or failed) by now
}

void BroadcastServer::announceMapUpdate(const ShardMap& map) {
  wire::MapUpdate mu;
  mu.shardMap = map;
  const std::vector<std::uint8_t> payload = wire::encodeMapUpdate(mu);

  // TCP: one frame per welcomed uplink. Collect the fds first — a send
  // error closes its connection, which would invalidate a live iterator.
  std::vector<int> fds;
  fds.reserve(conns_.size());
  for (auto& [fd, conn] : conns_) {
    conn.mapReannounced = false;  // new epoch: re-arm one-shot corrections
    if (conn.welcomed) fds.push_back(fd);
  }
  for (int fd : fds) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) continue;
    ++stats_.mapUpdatesSent;
    if (!sendFrame(fd, it->second, wire::FrameType::kMapUpdate,
                   net::TrafficClass::kControl, payload)) {
      continue;  // that connection is gone; keep announcing to the rest
    }
  }

  // IR downlink: one datagram per listener so dozing clients (radio on,
  // uplink closed) hear the flip the moment they wake into the broadcast
  // stream.
  report::BitWriter w = controlArena_.begin(
      wire::FrameType::kMapUpdate, wire::kNoScheme,
      net::TrafficClass::kControl);
  wire::encodeMapUpdateInto(mu, w);
  controlArena_.finish(w);
  stats_.mapUpdatesSent += fanOutReport(controlArena_);
}

bool BroadcastServer::reannounceMap(int fd, Conn& conn) {
  if (conn.mapReannounced || !shardMap_.valid()) return true;
  conn.mapReannounced = true;
  ++stats_.mapReannounces;
  wire::MapUpdate mu;
  mu.shardMap = shardMap_;
  return sendFrame(fd, conn, wire::FrameType::kMapUpdate,
                   net::TrafficClass::kControl, wire::encodeMapUpdate(mu));
}

}  // namespace mci::live
