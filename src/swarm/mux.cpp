#include "swarm/mux.hpp"

#include <arpa/inet.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "net/message.hpp"

namespace mci::swarm {

UplinkMux::UplinkMux(live::Reactor& reactor, SwarmSink& sink, Options opts)
    : reactor_(reactor),
      owner_(reactor.makeOwner()),
      sink_(sink),
      opts_(std::move(opts)) {
  MCI_CHECK(opts_.endpointsPerShard >= 1);
  MCI_CHECK(opts_.maxItemsPerQueryFrame >= 1 &&
            opts_.maxItemsPerQueryFrame <= 0xFFFF);
}

UplinkMux::~UplinkMux() {
  closeAll();
  reactor_.retireOwner(owner_);
}

std::uint16_t UplinkMux::boundPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return 0;
  }
  return ntohs(addr.sin_port);
}

void UplinkMux::openDownlink(Link& link, std::uint32_t ipv4,
                             std::uint32_t mcastIpv4, std::uint16_t mcastPort) {
  link.udpFd = live::openDownlinkUdp(ipv4, mcastIpv4, mcastPort);
  // The whole swarm's IR stream funnels through one socket per shard;
  // give the kernel room for a tick burst that the engine is still
  // chewing on (best effort — the cap may clamp it).
  const int rcvbuf = 1 << 21;
  ::setsockopt(link.udpFd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
  Link* lp = &link;
  link.udpReg = reactor_.addFd(
      link.udpFd, EPOLLIN, [this, lp](std::uint32_t ev) { onUdp(*lp, ev); },
      owner_);
}

void UplinkMux::closeDownlink(Link& link) {
  if (link.udpFd < 0) return;
  reactor_.removeFd(link.udpReg);
  ::close(link.udpFd);
  link.udpFd = -1;
}

std::unique_ptr<UplinkMux::Conn> UplinkMux::dialConn(std::uint32_t shard,
                                                     std::uint32_t endpoint,
                                                     std::uint32_t ipv4,
                                                     std::uint16_t tcpPort) {
  const int fd = live::dialTcp(ipv4, tcpPort);
  if (fd < 0) throw std::runtime_error("swarm mux: connect failed");
  auto conn = std::make_unique<Conn>();
  conn->shard = shard;
  conn->endpoint = endpoint;
  conn->tcp.adopt(reactor_, fd);
  Conn* cp = conn.get();
  conn->reg = reactor_.addFd(
      fd, EPOLLIN, [this, cp](std::uint32_t ev) { onTcp(*cp, ev); }, owner_);
  return conn;
}

void UplinkMux::sendHello(Conn& conn, std::uint16_t udpPort) {
  live::wire::Hello h;
  h.udpPort = udpPort;
  h.audit = false;  // the swarm audits locally against the real databases
  const std::vector<std::uint8_t> frame = live::wire::encodeFrame(
      live::wire::FrameType::kHello, live::wire::kNoScheme,
      net::TrafficClass::kControl, live::wire::encodeHello(h));
  if (!conn.tcp.send(frame)) dropConn(conn);
}

void UplinkMux::connect() {
  in_addr seed{};
  if (::inet_pton(AF_INET, opts_.host.c_str(), &seed) != 1) {
    throw std::runtime_error("swarm mux: bad host " + opts_.host);
  }
  // Seed link at slot 0 until the Welcome names its shard; its downlink is
  // unicast-bound now and swapped if the shard turns out to be multicast.
  // Stored before anything is registered, so closeAll() reaches every fd
  // even if a dial throws.
  Link& link = *links_.emplace_back(std::make_unique<Link>());
  openDownlink(link, ntohl(seed.s_addr), 0, 0);
  link.conns.push_back(
      dialConn(kUnknownShard, 0, ntohl(seed.s_addr), opts_.port));
  sendHello(*link.conns.front(), boundPort(link.udpFd));
}

void UplinkMux::dialShard(std::uint32_t s) {
  const live::ShardEndpoint& ep = map_.endpoint(s);
  if (links_[s] == nullptr) {
    links_[s] = std::make_unique<Link>();
    links_[s]->shard = s;
    openDownlink(*links_[s], ep.ipv4, ep.multicastIpv4, ep.multicastPort);
  }
  Link& link = *links_[s];
  // Endpoint 0 owns the shard's one downlink; every other endpoint opts
  // out of the unicast fan-out with port 0 (see wire::Hello), and so does
  // every endpoint of a multicast shard.
  const std::uint16_t downlinkPort =
      ep.multicastIpv4 != 0 ? 0 : boundPort(link.udpFd);
  for (auto e = static_cast<std::uint32_t>(link.conns.size());
       e < opts_.endpointsPerShard; ++e) {
    link.conns.push_back(dialConn(s, e, ep.ipv4, ep.tcpPort));
    sendHello(*link.conns.back(), e == 0 ? downlinkPort : 0);
  }
}

void UplinkMux::buildCluster(const live::wire::Welcome& w) {
  map_ = w.shardMap;
  const std::uint32_t shards = map_.shardCount();
  MCI_CHECK(shards >= 1);

  std::unique_ptr<Link> seedLink = std::move(links_.front());
  links_.clear();
  links_.resize(shards);
  seedLink->shard = w.shardIndex;
  seedLink->conns.front()->shard = w.shardIndex;

  const live::ShardEndpoint& seedEp = map_.endpoint(w.shardIndex);
  if (seedEp.multicastIpv4 != 0) {
    // The seed downlink was dialed unicast before the map was known, but
    // this shard only broadcasts to its group: swap in a joined socket.
    closeDownlink(*seedLink);
    openDownlink(*seedLink, seedEp.ipv4, seedEp.multicastIpv4,
                 seedEp.multicastPort);
  }
  links_[w.shardIndex] = std::move(seedLink);
  for (std::uint32_t s = 0; s < shards; ++s) dialShard(s);
}

void UplinkMux::handleWelcome(Conn& conn, const live::wire::Welcome& w) {
  if (conn.welcomed) return;
  conn.welcomed = true;
  ++welcomedConns_;
  if (!sawWelcome_) {
    sawWelcome_ = true;
    sink_.onWelcome(w);   // configure the engine before any report lands
    buildCluster(w);      // seed conn counted above; dials the rest
  }
  const std::size_t want = static_cast<std::size_t>(map_.shardCount()) *
                           opts_.endpointsPerShard;
  if (!ready_ && map_.valid() && welcomedConns_ == want) {
    ready_ = true;
    sink_.onMuxReady();
  }
  // A joiner conn may have accumulated staged fetches while its handshake
  // was in flight (the server drops queries from un-welcomed conns).
  flushConnStaged(conn);
}

void UplinkMux::onUdp(Link& link, std::uint32_t events) {
  if (opts_.allocProbe == nullptr) {
    onUdpIo(link, events);
    return;
  }
  const std::uint64_t before = opts_.allocProbe();
  onUdpIo(link, events);
  stats_.hotAllocs += opts_.allocProbe() - before;
}

void UplinkMux::onTcp(Conn& conn, std::uint32_t events) {
  if (opts_.allocProbe == nullptr) {
    onTcpIo(conn, events);
    return;
  }
  const std::uint64_t before = opts_.allocProbe();
  onTcpIo(conn, events);
  stats_.hotAllocs += opts_.allocProbe() - before;
}

void UplinkMux::onUdpIo(Link& link, std::uint32_t events) {
  if ((events & EPOLLIN) == 0) return;
  stats_.udpRecvSyscalls += udpReceiver_.drain(
      link.udpFd, [&](const std::uint8_t* data, std::size_t len) {
        handleDatagram(link, data, len);
        // A kMapUpdate may have retired the link (reshard shrink): its
        // downlink is already closed, drop the rest.
        return link.udpFd >= 0;
      });
}

void UplinkMux::handleDatagram(Link& link, const std::uint8_t* data,
                               std::size_t len) {
  const std::optional<live::wire::FrameView> f =
      live::wire::decodeFrameView(data, len);
  if (!f) {
    ++stats_.badFrames;
    return;
  }
  if (f->header.type == live::wire::FrameType::kMapUpdate) {
    // Epoch announce piggybacked on the IR downlink. Control path: the
    // allocating decoder is fine here.
    const std::vector<std::uint8_t> payload(f->payload.begin(),
                                            f->payload.end());
    if (auto m = live::wire::decodeMapUpdate(payload)) {
      applyMapUpdate(m->shardMap);
    } else {
      ++stats_.badFrames;
    }
    return;
  }
  if (f->header.type != live::wire::FrameType::kReport) {
    ++stats_.badFrames;
    return;
  }
  if (link.shard == kUnknownShard) {
    // A report raced the seed Welcome; without the map there is no engine
    // configuration to apply it to. The next tick repeats the news.
    ++stats_.ignoredFrames;
    return;
  }
  ++stats_.reportsHeard;
  sink_.onReportPayload(link.shard, f->payload.data(), f->payload.size());
}

void UplinkMux::onTcpIo(Conn& conn, std::uint32_t events) {
  if (!conn.tcp.isOpen()) return;
  if ((events & EPOLLOUT) != 0 && !conn.tcp.flush()) {
    dropConn(conn);
    return;
  }
  if ((events & EPOLLIN) == 0) return;
  // Replies correlate FIFO, so one skipped (checksum-failed) frame would
  // pair every later reply with the wrong request: drop the conn before
  // the next frame is matched, as on lost framing.
  std::uint64_t skipped = 0;
  while (std::optional<live::wire::FrameView> f = conn.tcp.next()) {
    skipped = conn.tcp.takeSkippedFrames();
    if (skipped != 0) break;
    handleFrameView(conn, *f);
    if (!conn.tcp.isOpen()) return;
  }
  skipped += conn.tcp.takeSkippedFrames();
  stats_.badFrames += skipped;
  if (skipped != 0 || conn.tcp.failed()) dropConn(conn);
}

void UplinkMux::handleFrameView(Conn& conn, const live::wire::FrameView& f) {
  using live::wire::FrameType;
  switch (f.header.type) {
    case FrameType::kWelcome: {
      // Handshake path: the allocating decoder is fine here.
      const std::vector<std::uint8_t> payload(f.payload.begin(),
                                              f.payload.end());
      if (auto w = live::wire::decodeWelcome(payload)) {
        handleWelcome(conn, *w);
      } else {
        ++stats_.badFrames;
      }
      return;
    }
    case FrameType::kDataItem: {
      // [item:32][version:32][readTime:64 raw double] — parsed in place.
      report::BitReader r(f.payload.data(), f.payload.size());
      const auto item = static_cast<db::ItemId>(r.read(32));
      const auto version = static_cast<db::Version>(r.read(32));
      const double readTime = std::bit_cast<double>(r.read(64));
      if (!r.ok()) {
        ++stats_.badFrames;
        return;
      }
      if (conn.fetchQueue.empty()) {
        ++stats_.badFrames;  // reply with no outstanding request
        return;
      }
      const PendingFetch pf = conn.fetchQueue.front();
      conn.fetchQueue.pop();
      MCI_CHECK(pf.item == item)
          << "swarm mux: fetch reply out of order (sent " << pf.item
          << ", got " << item << ") on shard " << conn.shard << " endpoint "
          << conn.endpoint;
      ++stats_.dataItems;
      sink_.onDataItem(conn.shard, pf.client, item, version, pf.tick,
                       static_cast<Tick>(readTime * 1000.0 + 0.5));
      maybeCloseDrained(conn);
      return;
    }
    case FrameType::kCheckAck: {
      // [epoch:64][asOf:64 raw double]
      report::BitReader r(f.payload.data(), f.payload.size());
      r.skip(64);  // epoch: adaptive feedback does not use it
      const double asOf = std::bit_cast<double>(r.read(64));
      if (!r.ok()) {
        ++stats_.badFrames;
        return;
      }
      if (conn.ackQueue.empty()) {
        ++stats_.badFrames;
        return;
      }
      const std::uint32_t client = conn.ackQueue.front();
      conn.ackQueue.pop();
      sink_.onCheckAck(conn.shard, client,
                       static_cast<Tick>(asOf * 1000.0 + 0.5));
      maybeCloseDrained(conn);
      return;
    }
    case FrameType::kMapUpdate: {
      // Per-conn announce (cutover push or misroute re-announce).
      const std::vector<std::uint8_t> payload(f.payload.begin(),
                                              f.payload.end());
      if (auto m = live::wire::decodeMapUpdate(payload)) {
        applyMapUpdate(m->shardMap);
      } else {
        ++stats_.badFrames;
      }
      return;
    }
    default:
      // kValidityReply (checking schemes only) and anything else the
      // adaptive swarm has no use for.
      ++stats_.ignoredFrames;
      return;
  }
}

void UplinkMux::queueFetch(std::uint32_t shard, std::uint32_t client,
                           db::ItemId item, Tick tick) {
  Link& link = *links_[shard];
  Conn& conn = *link.conns[client % opts_.endpointsPerShard];
  if (!conn.tcp.isOpen()) return;  // endpoint died; the run is already unsound
  // staged grows to the per-tick miss high-water mark only; cleared
  // (capacity kept) every flush
  // MCI-ANALYZE-ALLOW(hot-path-alloc): scratch high-water capacity
  conn.staged.push_back(item);
  conn.fetchQueue.push({client, item, tick});
}

void UplinkMux::flushFetches() {
  for (auto& link : links_) {
    for (auto& connPtr : link->conns) flushConnStaged(*connPtr);
  }
}

void UplinkMux::flushConnStaged(Conn& conn) {
  if (conn.staged.empty()) return;
  if (!conn.welcomed) return;  // server drops queries pre-Welcome; hold the
                               // batch, handleWelcome re-invokes us
  std::size_t off = 0;
  while (off < conn.staged.size() && conn.tcp.isOpen()) {
    const std::size_t n = std::min<std::size_t>(
        conn.staged.size() - off, opts_.maxItemsPerQueryFrame);
    report::BitWriter w =
        arena_.begin(live::wire::FrameType::kQueryRequest,
                     live::wire::kNoScheme, net::TrafficClass::kBulk);
    live::wire::encodeQueryRequestInto(
        std::span<const db::ItemId>(conn.staged.data() + off, n), w);
    arena_.finish(w);
    ++stats_.queryFramesSent;
    stats_.fetchesSent += n;
    if (!sendArena(conn)) break;
    off += n;
  }
  conn.staged.clear();
}

bool UplinkMux::sendCheck(std::uint32_t shard, std::uint32_t client,
                          double tlbSeconds, double sizeBits) {
  Link& link = *links_[shard];
  Conn& conn = *link.conns[client % opts_.endpointsPerShard];
  if (!conn.tcp.isOpen() || !conn.welcomed) return false;
  live::wire::Check c;
  c.tlb = tlbSeconds;
  c.epoch = 0;  // FIFO correlation; the adaptive check carries no epoch
  c.sizeBits = sizeBits;
  report::BitWriter w =
      arena_.begin(live::wire::FrameType::kCheck, live::wire::kNoScheme,
                   net::TrafficClass::kControl);
  live::wire::encodeCheckInto(c, w);
  arena_.finish(w);
  conn.ackQueue.push(client);
  ++stats_.checksSent;
  (void)sendArena(conn);
  return true;
}

void UplinkMux::applyMapUpdate(const live::ShardMap& map) {
  ++stats_.mapUpdatesHeard;
  if (!sawWelcome_ || !map_.valid()) return;  // seed Welcome carries the map
  if (!map.valid() || map.version() <= map_.version()) {
    ++stats_.staleMapUpdates;
    return;
  }
  const live::ShardMap old = map_;
  map_ = map;
  ++stats_.epochSwitches;

  const std::uint32_t newCount = map_.shardCount();
  // Re-key surviving links by endpoint identity; every cluster transition
  // keeps survivor indices stable, but matching on (ipv4, tcpPort) stays
  // correct even if that law ever changes.
  std::vector<std::unique_ptr<Link>> byShard(newCount);
  for (std::size_t oldS = 0; oldS < links_.size(); ++oldS) {
    std::unique_ptr<Link>& l = links_[oldS];
    if (l == nullptr) continue;
    const live::ShardEndpoint& oldEp =
        old.endpoint(static_cast<std::uint32_t>(oldS));
    const std::optional<std::uint32_t> s =
        map_.indexOf(oldEp.ipv4, oldEp.tcpPort);
    if (s && byShard[*s] == nullptr) {
      l->shard = *s;
      for (auto& c : l->conns) c->shard = *s;
      byShard[*s] = std::move(l);
      continue;
    }
    // Endpoint retired: the IR downlink dies now, uplink conns drain
    // their in-flight replies (grace-served by the retiring daemon).
    l->shard = kUnknownShard;
    closeDownlink(*l);
    for (auto& c : l->conns) {
      c->draining = true;
      maybeCloseDrained(*c);
    }
    drainingLinks_.push_back(std::move(l));
  }
  links_ = std::move(byShard);

  // Dial joiners. In-process loopback: dialConn's failure throw aborts the
  // run, same contract as the initial connect().
  for (std::uint32_t s = 0; s < newCount; ++s) dialShard(s);

  // Drained conns no longer count toward readiness; joiners re-welcome.
  welcomedConns_ = 0;
  for (const auto& link : links_) {
    for (const auto& c : link->conns) {
      if (c->welcomed) ++welcomedConns_;
    }
  }

  sink_.onMapUpdate(old, map_);
}

void UplinkMux::maybeCloseDrained(Conn& conn) {
  if (!conn.draining || !conn.tcp.isOpen()) return;
  if (!conn.fetchQueue.empty() || !conn.ackQueue.empty()) return;
  // Quiet close, no Bye: the retiring daemon may already be gone.
  reactor_.removeFd(conn.reg);
  conn.tcp.close();
}

bool UplinkMux::sendArena(Conn& conn) {
  if (!conn.tcp.isOpen()) return false;
  if (conn.tcp.send(arena_.frame())) return true;
  dropConn(conn);
  return false;
}

void UplinkMux::dropConn(Conn& conn) {
  if (!conn.tcp.isOpen()) return;
  reactor_.removeFd(conn.reg);
  conn.tcp.close();
  // A draining conn's EOF is the retiring daemon going away on schedule,
  // not a failure.
  if (!shuttingDown_ && !conn.draining) {
    ++stats_.connectionsLost;
    sink_.onConnectionLost(conn.shard);
  }
}

void UplinkMux::shutdown() {
  shuttingDown_ = true;
  const auto bye = live::wire::encodeFrame(live::wire::FrameType::kBye,
                                           live::wire::kNoScheme,
                                           net::TrafficClass::kControl, {});
  for (auto& link : links_) {
    for (auto& connPtr : link->conns) {
      // Best-effort Bye; the close right after is the real goodbye.
      if (connPtr->tcp.isOpen()) (void)connPtr->tcp.send(bye);
    }
  }
  closeAll();
}

void UplinkMux::closeAll() {
  for (auto* linkSet : {&links_, &drainingLinks_}) {
    for (auto& link : *linkSet) {
      if (link == nullptr) continue;
      for (auto& connPtr : link->conns) {
        if (connPtr->tcp.isOpen()) {
          reactor_.removeFd(connPtr->reg);
          connPtr->tcp.close();
        }
      }
      closeDownlink(*link);
    }
  }
}

}  // namespace mci::swarm
