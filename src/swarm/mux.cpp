#include "swarm/mux.hpp"

#include <sys/epoll.h>

#include <algorithm>
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
}

UplinkMux::~UplinkMux() {
  closeAll();
  reactor_.retireOwner(owner_);
}

void UplinkMux::openDownlink(Link& link, const live::ShardEndpoint& ep) {
  // The whole swarm's IR stream funnels through one socket per shard;
  // give the kernel room for a tick burst that the engine is still
  // chewing on (best effort — the cap may clamp it).
  constexpr int kReceiveBufferBytes = 1 << 21;
  link.downlink = live::openDownlinkUdp(ep.ipv4, ep.multicastIpv4,
                                        ep.multicastPort, kReceiveBufferBytes);
  Link* lp = &link;
  link.downlink.watch(
      reactor_, reactor_.addFd(
                    link.downlink.fd(), EPOLLIN,
                    [this, lp](std::uint32_t ev) { onUdp(*lp, ev); }, owner_));
}

void UplinkMux::sendHello(Conn& conn, std::uint16_t udpPort) {
  live::wire::Hello h;
  h.udpPort = udpPort;
  h.audit = false;  // the swarm audits locally against the real databases
  if (!conn.tcp.send(arena_.build(live::wire::FrameType::kHello,
                                  net::TrafficClass::kControl, h,
                                  live::wire::encodeHelloInto))) {
    dropConn(conn);
  }
}

std::unique_ptr<UplinkMux::Link> UplinkMux::dialShard(
    const live::ShardEndpoint& ep) {
  auto link = std::make_unique<Link>();
  link->endpoint = ep;
  openDownlink(*link, ep);
  // Endpoint 0 owns the shard's one downlink; every other endpoint opts
  // out of the unicast fan-out with port 0 (see wire::Hello), and so does
  // every endpoint of a multicast shard.
  const std::uint16_t downlinkPort =
      ep.multicastIpv4 != 0 ? 0 : link->downlink.boundPort();
  for (std::uint32_t e = 0; e < opts_.endpointsPerShard; ++e) {
    auto conn = std::make_unique<Conn>();
    conn->link = link.get();
    conn->endpoint = e;
    conn->tcp.adopt(reactor_, live::dialTcp(ep.ipv4, ep.tcpPort));
    if (!conn->tcp.isOpen()) {
      throw std::runtime_error("swarm mux: connect failed");
    }
    Conn* cp = conn.get();
    conn->tcp.watch(reactor_.addFd(
        conn->tcp.fd(), EPOLLIN,
        [this, cp](std::uint32_t ev) { onTcp(*cp, ev); }, owner_));
    link->conns.push_back(std::move(conn));
    sendHello(*cp, e == 0 ? downlinkPort : 0);
  }
  return link;
}

void UplinkMux::connect() {
  const std::optional<std::uint32_t> seed = live::parseIpv4(opts_.host);
  if (!seed) throw std::runtime_error("swarm mux: bad host " + opts_.host);
  // Dialed like any shard, with a unicast downlink that following the map
  // swaps if the shard turns out to be multicast.
  live::ShardEndpoint ep;
  ep.ipv4 = *seed;
  ep.tcpPort = opts_.port;
  links_.seed(dialShard(ep));
}

void UplinkMux::followMap(const live::ShardMap& map, std::uint32_t seedSlot) {
  links_.follow(
      map, seedSlot,
      [this](std::uint32_t, const live::ShardEndpoint& ep) {
        return dialShard(ep);
      },
      [this](Link& link) {
        // The IR downlink dies now; uplink conns drain their in-flight
        // replies (grace-served by the retiring daemon).
        link.downlink.close();
        for (auto& c : link.conns) {
          c->draining = true;
          maybeCloseDrained(*c);
        }
      },
      [this](Link& link, const live::ShardEndpoint& ep) {
        openDownlink(link, ep);
      });
}

void UplinkMux::handleWelcome(Conn& conn, const live::wire::Welcome& w) {
  if (conn.welcomed) return;
  conn.welcomed = true;
  ++welcomedConns_;
  if (!links_.map().valid()) {
    sink_.onWelcome(w);  // configure the engine before any report lands
    followMap(w.shardMap, w.shardIndex);
  }
  const std::size_t want = static_cast<std::size_t>(shards()) *
                           opts_.endpointsPerShard;
  if (!ready_ && welcomedConns_ == want) {
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
      link.downlink.fd(), [&](const std::uint8_t* data, std::size_t len) {
        handleDatagram(link, data, len);
        // A kMapUpdate may have retired the link (reshard shrink): its
        // downlink is already closed, drop the rest.
        return link.downlink.isOpen();
      });
}

void UplinkMux::handleDatagram(Link& link, const std::uint8_t* data,
                               std::size_t len) {
  const std::optional<live::wire::FrameView> f =
      live::wire::decodeFrame(data, len);
  if (!f) {
    ++stats_.badFrames;
    return;
  }
  if (f->header.type == live::wire::FrameType::kMapUpdate) {
    applyMapUpdate(f->payload);  // epoch announce on the IR downlink
    return;
  }
  if (f->header.type != live::wire::FrameType::kReport) {
    ++stats_.badFrames;
    return;
  }
  if (link.shard == live::ShardLinks<Link>::kUnplaced) {
    // A report raced the seed Welcome; without the map there is no engine
    // configuration to apply it to. The next tick repeats the news.
    ++stats_.ignoredFrames;
    return;
  }
  MCI_DCHECK(link.shard < SwarmState::kMaxShards) << "slot " << link.shard;
  ++stats_.reportsHeard;
  ++stats_.reportsHeardPerShard[link.shard];
  sink_.onReportPayload(link.shard, f->payload);
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
    case FrameType::kWelcome:
      if (auto w = live::wire::decodeWelcome(f.payload)) {
        handleWelcome(conn, *w);
      } else {
        ++stats_.badFrames;
      }
      return;
    case FrameType::kDataItem: {
      // One frame answers a run of outstanding fetches, parsed in place.
      // Replies correlate FIFO, so a frame whose records cannot be read, or
      // that answers more fetches than are outstanding, would pair later
      // replies with the wrong requests: drop the conn, applying nothing.
      std::optional<live::wire::DataItemReader> reply =
          live::wire::DataItemReader::parse(f.payload);
      if (!reply || reply->size() > conn.fetchQueue.size()) {
        ++stats_.badFrames;
        dropConn(conn);
        return;
      }
      ++stats_.dataItemFrames;
      const auto readTick = static_cast<Tick>(sim::toTick(reply->readTime()));
      for (std::size_t n = reply->size(); n > 0; --n) {
        const live::wire::DataItem d = reply->next();
        const PendingFetch pf = conn.fetchQueue.front();
        if (conn.fetchQueue.size() > kPrefetchDistance) {
          const PendingFetch& ahead = conn.fetchQueue.at(kPrefetchDistance);
          sink_.prefetchDataItem(ahead.client, ahead.item);
        }
        conn.fetchQueue.pop();
        MCI_CHECK(pf.item == d.item)
            << "swarm mux: fetch reply out of order (sent " << pf.item
            << ", got " << d.item << ") on shard " << conn.link->shard
            << " endpoint " << conn.endpoint;
        ++stats_.dataItems;
        sink_.onDataItem(conn.link->shard, pf.client, d.item, d.version,
                         pf.tick, readTick);
        if (!conn.tcp.isOpen()) return;  // the sink's uplink send failed
      }
      maybeCloseDrained(conn);
      return;
    }
    case FrameType::kCheckAck: {
      // The epoch is unused: adaptive feedback correlates acks FIFO.
      const std::optional<live::wire::CheckAck> ack =
          live::wire::decodeCheckAck(f.payload);
      if (!ack) {
        ++stats_.badFrames;
        return;
      }
      if (conn.ackQueue.empty()) {
        ++stats_.badFrames;
        return;
      }
      const std::uint32_t client = conn.ackQueue.front();
      conn.ackQueue.pop();
      sink_.onCheckAck(conn.link->shard, client,
                       static_cast<Tick>(sim::toTick(ack->asOf)));
      maybeCloseDrained(conn);
      return;
    }
    case FrameType::kMapUpdate:
      // Per-conn announce (cutover push or misroute re-announce).
      applyMapUpdate(f.payload);
      return;
    default:
      // kValidityReply (checking schemes only) and anything else the
      // adaptive swarm has no use for.
      ++stats_.ignoredFrames;
      return;
  }
}

void UplinkMux::queueFetch(std::uint32_t shard, std::uint32_t client,
                           db::ItemId item, Tick tick) {
  Conn& conn = *links_.at(shard).conns[client % opts_.endpointsPerShard];
  if (!conn.tcp.isOpen()) return;  // endpoint died; the run is already unsound
  // staged grows to the per-tick miss high-water mark only; cleared
  // (capacity kept) every flush
  // MCI-ANALYZE-ALLOW(hot-path-alloc): scratch high-water capacity
  conn.staged.push_back(item);
  conn.fetchQueue.push({client, item, tick});
}

void UplinkMux::flushFetches() {
  for (const auto& link : links_.slots()) {
    for (auto& connPtr : link->conns) flushConnStaged(*connPtr);
  }
}

void UplinkMux::flushConnStaged(Conn& conn) {
  if (conn.staged.empty()) return;
  if (!conn.welcomed) return;  // server drops queries pre-Welcome; hold the
                               // batch, handleWelcome re-invokes us
  std::size_t off = 0;
  while (off < conn.staged.size() && conn.tcp.isOpen()) {
    const std::size_t n =
        std::min(conn.staged.size() - off, kMaxItemsPerQueryFrame);
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
  Conn& conn = *links_.at(shard).conns[client % opts_.endpointsPerShard];
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

void UplinkMux::applyMapUpdate(std::span<const std::uint8_t> payload) {
  const std::optional<live::wire::MapUpdate> announce =
      live::wire::decodeMapUpdate(payload);
  if (!announce) {
    ++stats_.badFrames;
    return;
  }
  const live::ShardMap& map = announce->shardMap;
  ++stats_.mapUpdatesHeard;
  if (!links_.map().valid()) return;  // the seed Welcome carries the map
  if (!live::advancesEpoch(links_.map(), map)) {
    ++stats_.staleMapUpdates;
    return;
  }
  const live::ShardMap old = links_.map();
  ++stats_.epochSwitches;
  // In-process loopback: a joiner dial that throws aborts the run, same
  // contract as the initial connect().
  followMap(map, live::ShardLinks<Link>::kUnplaced);

  // Drained conns no longer count toward readiness; joiners re-welcome.
  welcomedConns_ = 0;
  for (const auto& link : links_.slots()) {
    for (const auto& c : link->conns) {
      if (c->welcomed) ++welcomedConns_;
    }
  }

  sink_.onMapUpdate(old, links_.map());
}

void UplinkMux::maybeCloseDrained(Conn& conn) {
  if (!conn.draining || !conn.tcp.isOpen()) return;
  if (!conn.fetchQueue.empty() || !conn.ackQueue.empty()) return;
  conn.tcp.close();  // quiet, no Bye: the retiring daemon may be gone
}

bool UplinkMux::sendArena(Conn& conn) {
  if (!conn.tcp.isOpen()) return false;
  if (conn.tcp.send(arena_.frame())) return true;
  dropConn(conn);
  return false;
}

void UplinkMux::dropConn(Conn& conn) {
  if (!conn.tcp.isOpen()) return;
  conn.tcp.close();
  // A draining conn's EOF is the retiring daemon going away on schedule,
  // not a failure.
  if (!shuttingDown_ && !conn.draining) {
    ++stats_.connectionsLost;
    sink_.onConnectionLost(conn.link->shard);
  }
}

void UplinkMux::shutdown() {
  shuttingDown_ = true;
  report::BitWriter w = arena_.begin(live::wire::FrameType::kBye,
                                     live::wire::kNoScheme,
                                     net::TrafficClass::kControl);
  arena_.finish(w);
  for (const auto& link : links_.slots()) {
    for (auto& connPtr : link->conns) {
      // Best-effort Bye; the close right after is the real goodbye.
      if (connPtr->tcp.isOpen()) (void)connPtr->tcp.send(arena_.frame());
    }
  }
  closeAll();
}

void UplinkMux::closeAll() {
  links_.forEach([](Link& link) {
    for (auto& connPtr : link.conns) connPtr->tcp.close();
    link.downlink.close();
  });
}

}  // namespace mci::swarm
