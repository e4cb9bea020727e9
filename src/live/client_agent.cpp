#include "live/client_agent.hpp"

#include <sys/epoll.h>

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

#include "core/check.hpp"
#include "core/client_rule.hpp"
#include "core/scheme_factory.hpp"

namespace mci::live {

// --- ClientAgent -------------------------------------------------------

/// The agent as the lifecycle's view: one partition per shard link,
/// deadlines as reactor timers on the pool clock.
class ClientAgent::Life : public core::lifecycle::HostView {
 public:
  explicit Life(ClientAgent& a)
      : HostView(a.life_, *a.queryGen_, *a.disc_, a.pool_.collector_.get(),
                 a.agentId_),
        a_(a) {}

  template <class F>
  void forEachPartition(F&& f) {
    // Every shard link slept through its own stretch of reports.
    for (const auto& link : a_.links_.slots()) {
      if (link->scheme != nullptr) f(*link->ctx);
    }
  }
  /// One coin per broadcast interval: shard 0's reports, the simulator's
  /// cadence regardless of cluster size.
  static bool isCoinPartition(const Link* link) { return link->shard == 0; }
  /// A flip moves every owed leg to the new owners (lifecycle::onEpochFlip),
  /// so only placed links owe; a drained link can still hold fetches.
  [[nodiscard]] bool anyOwed() const {
    return std::ranges::any_of(a_.links_.slots(),
                               [](const auto& l) { return l->owed; });
  }
  [[nodiscard]] bool anyFetchOutstanding() const {
    bool any = false;
    a_.links_.forEach([&](const Link& l) { any = any || !l.fetch.empty(); });
    return any;
  }

  void drawQuery(double now) {
    a_.queryGen_->nextQuery(a_.queryItems_);
    life_.queryStart = now;
    a_.queryStartWall_ = a_.pool_.reactor_.nowSeconds();
    oweQueryItems();
  }
  template <class Owed>
  void keepQueryItems(Owed&& owed) {
    std::vector<db::ItemId>& items = a_.queryItems_;
    items.clear();
    a_.links_.forEach([&](Link& l) {
      if (owed(&l)) items.insert(items.end(), l.items.begin(), l.items.end());
    });
  }
  /// Fans the query out by owner shard; each involved link answers on its
  /// own shard's next report (per-shard consistency point), a joiner not
  /// yet welcomed on its first.
  void oweQueryItems() {
    a_.links_.forEach([](Link& l) {
      l.owed = false;
      l.items.clear();
    });
    for (db::ItemId item : a_.queryItems_) {
      Link& link = a_.links_.at(a_.links_.map().shardOf(item));
      link.items.push_back(item);
      link.owed = true;
    }
  }
  /// A partition not yet welcomed takes no fetched copy.
  static sim::SimTime lastHeard(const Link* l) {
    return l->ctx != nullptr ? l->ctx->lastHeard() : sim::kTimeInfinity;
  }
  /// A fetch retires on whichever link it went out on.
  void retireFetch(const Link*, db::ItemId item) {
    a_.links_.forEach([&](Link& l) { HostView::retireFetch(&l, item); });
  }
  void armThink(double duration) {
    a_.armTimer(duration, [](ClientAgent& a) {
      Life v(a);
      core::lifecycle::issueQuery(v, a.pool_.clock_->nowModel());
    });
  }
  void cancelThink() { a_.cancelTimer(); }
  void armWake(double now, double duration) {
    noteDoze(now);
    a_.armTimer(duration, [](ClientAgent& a) {
      Life v(a);
      core::lifecycle::wake(v, a.pool_.clock_->nowModel());
    });
  }
  bool hit(Link* link, db::ItemId item, const cache::Entry* e) {
    HostView::hit(link, item, e);
    if (!a_.pool_.opts_.sendAudit) return true;
    wire::Audit audit;
    audit.item = item;
    audit.version = e->version;
    audit.validAsOf = link->ctx->lastHeard();
    return a_.sendFrame(
        *link, a_.pool_.arena_.build(wire::FrameType::kAudit,
                                     net::TrafficClass::kControl, audit,
                                     wire::encodeAuditInto));
  }
  void settleOwed(Link* link) {
    HostView::settleOwed(link);
    requested_ = link->fetch.size();
  }
  /// Sends this answer's misses; a fetch from before a flip is already out.
  void requestFetches(Link* link) {
    if (link->fetch.size() == requested_) return;
    a_.pool_.collector_->onClientTx(a_.pool_.sizes_.queryRequestBits());
    // A failed send already ran dropAgent(); the leg stays outstanding.
    (void)a_.sendFrame(
        *link, a_.pool_.arena_.build(
                   wire::FrameType::kQueryRequest, net::TrafficClass::kBulk,
                   std::span<const db::ItemId>(link->fetch).subspan(requested_),
                   wire::encodeQueryRequestInto));
  }
  void recordCompletion(double now) {
    HostView::recordCompletion(now);
    const double wallSec =
        a_.pool_.reactor_.nowSeconds() - a_.queryStartWall_;
    a_.pool_.stats_.queryLatencyUs.record(
        wallSec > 0 ? static_cast<std::uint64_t>(wallSec * 1e6) : 0);
    a_.queryItems_.clear();
  }

 private:
  ClientAgent& a_;
  std::size_t requested_ = 0;  ///< fetches already out when the answer began
};

ClientAgent::ClientAgent(ClientPool& pool, std::size_t index)
    : pool_(pool), index_(index), owner_(pool.reactor_.makeOwner()) {}

ClientAgent::~ClientAgent() {
  cancelTimer();
  links_.forEach([this](Link& link) { closeLink(link); });
  pool_.reactor_.retireOwner(owner_);
}

std::unique_ptr<ClientAgent::Link> ClientAgent::makeLink(
    const ShardEndpoint& ep) {
  auto link = std::make_unique<Link>();
  link->endpoint = ep;
  link->tcp.adopt(pool_.reactor_, dialTcp(ep.ipv4, ep.tcpPort));
  if (!link->tcp.isOpen()) {
    throw std::runtime_error("live agent: connect failed");
  }
  Link* lp = link.get();
  link->tcp.watch(pool_.reactor_.addFd(
      link->tcp.fd(), EPOLLIN,
      [this, lp](std::uint32_t ev) { onTcp(*lp, ev); }, owner_));
  // If the downlink throws, the link closes the uplink.
  openDownlink(*link, ep);
  return link;
}

void ClientAgent::openDownlink(Link& link, const ShardEndpoint& ep) {
  link.downlink = openDownlinkUdp(ep.ipv4, ep.multicastIpv4, ep.multicastPort);
  Link* lp = &link;
  link.downlink.watch(
      pool_.reactor_,
      pool_.reactor_.addFd(
          link.downlink.fd(), EPOLLIN,
          [this, lp](std::uint32_t ev) { onUdp(*lp, ev); }, owner_));
}

void ClientAgent::closeLink(Link& link) {
  link.tcp.close();
  link.downlink.close();
}

void ClientAgent::sendHello(Link& link) {
  wire::Hello hello;
  hello.udpPort = link.downlink.boundPort();
  hello.audit = pool_.opts_.sendAudit;
  if (!sendFrame(link, pool_.arena_.build(wire::FrameType::kHello,
                                          net::TrafficClass::kControl, hello,
                                          wire::encodeHelloInto))) {
    return;  // connection died mid-hello; dropAgent() already ran
  }
}

void ClientAgent::connect() {
  const std::optional<std::uint32_t> seed = parseIpv4(pool_.opts_.host);
  if (!seed) {
    throw std::runtime_error("live agent: bad host " + pool_.opts_.host);
  }
  ShardEndpoint ep;
  ep.ipv4 = *seed;
  ep.tcpPort = pool_.opts_.port;
  sendHello(links_.seed(makeLink(ep)));
}

void ClientAgent::followMap(const ShardMap& map, std::uint32_t seedSlot) {
  std::vector<Link*> dialed;
  links_.follow(
      map, seedSlot,
      [&](std::uint32_t, const ShardEndpoint& ep) {
        std::unique_ptr<Link> link = makeLink(ep);
        dialed.push_back(link.get());
        return link;
      },
      // A drained link keeps only its uplink, for the fetches still out.
      [](Link& link) {
        link.draining = true;
        link.downlink.close();
      },
      // No re-Hello: a multicast shard never uses the Hello's UDP port.
      [this](Link& link, const ShardEndpoint& ep) { openDownlink(link, ep); });
  for (Link* link : dialed) sendHello(*link);
}

void ClientAgent::shutdown() {
  shuttingDown_ = true;
  wire::FrameArena& arena = pool_.arena_;
  report::BitWriter w = arena.begin(wire::FrameType::kBye, wire::kNoScheme,
                                    net::TrafficClass::kControl);
  arena.finish(w);
  for (const auto& link : links_.slots()) {
    if (link && link->tcp.isOpen()) {
      // Best-effort goodbye: teardown continues whether or not it lands.
      (void)sendFrame(*link, arena.frame());
    }
  }
  dropAgent();
}

bool ClientAgent::connectionAlive() const {
  if (links_.slots().empty()) return false;
  for (const auto& link : links_.slots()) {
    if (!link || !link->tcp.isOpen()) return false;
  }
  return true;
}

void ClientAgent::armTimer(double modelSeconds, void (*fire)(ClientAgent&)) {
  timer_ = pool_.reactor_.addTimer(
      pool_.clock_->wallDelay(modelSeconds), 0,
      [this, fire] {
        timer_ = {};
        fire(*this);
      },
      owner_);
}

void ClientAgent::cancelTimer() {
  if (timer_.valid()) {
    // One-shot handlers zero timer_ before anything else, so a valid
    // timer_ always names a pending timer.
    MCI_CHECK(pool_.reactor_.cancelTimer(timer_))
        << "agent timer " << timer_.id << " already gone";
    timer_ = {};
  }
}

void ClientAgent::dropAgent() {
  cancelTimer();
  bool hadLive = false;
  links_.forEach([&](Link& link) {
    if (link.tcp.isOpen() && !link.draining) hadLive = true;
    closeLink(link);
  });
  // One agent = one host: losing a placed link retires the whole agent
  // (a real client would re-dial; the load generator just counts it).
  if (hadLive && !shuttingDown_) ++pool_.stats_.connectionsLost;
  running_ = false;
}

void ClientAgent::onLinkFailed(Link& link) {
  if (!link.draining) return dropAgent();
  // The retiring daemon went away on schedule: only this link closes, and
  // a fetch it never answered is given up.
  closeLink(link);
  link.fetch.clear();
  if (!running_) return;
  Life v(*this);
  if (v.phase() == core::lifecycle::Phase::kQuerying &&
      core::lifecycle::queryDone(v)) {
    core::lifecycle::completeQuery(v, pool_.clock_->nowModel());
  }
}

void ClientAgent::onTcp(Link& link, std::uint32_t events) {
  if ((events & (EPOLLHUP | EPOLLERR)) != 0 ||
      ((events & EPOLLOUT) != 0 && !link.tcp.flush())) {
    onLinkFailed(link);
    return;
  }
  if ((events & EPOLLIN) == 0) return;
  while (std::optional<wire::FrameView> frame = link.tcp.next()) {
    handleFrame(link, *frame);
    if (!link.tcp.isOpen()) break;  // a handler closed the link
  }
  pool_.stats_.badFrames += link.tcp.takeSkippedFrames();
  if (!link.tcp.failed()) return;
  if (link.tcp.corrupt()) ++pool_.stats_.badFrames;
  onLinkFailed(link);  // orderly EOF, hard error or lost framing
}

void ClientAgent::onUdp(Link& link, std::uint32_t events) {
  if ((events & EPOLLIN) == 0) return;
  // The pool's shared buffers take a tick-burst of reports in O(batches)
  // kernel entries.
  pool_.stats_.udpRecvSyscalls += pool_.udpReceiver_.drain(
      link.downlink.fd(), [&](const std::uint8_t* data, std::size_t len) {
        return handleUdpDatagram(link, data, len);
      });
}

bool ClientAgent::handleUdpDatagram(Link& link, const std::uint8_t* data,
                                    std::size_t len) {
  // A dozing host's radio is off: the datagram is consumed from the
  // kernel but never heard by the model.
  if (!radioOn() || link.scheme == nullptr) return true;
  const std::optional<wire::FrameView> frame = wire::decodeFrame(data, len);
  if (!frame) {
    ++pool_.stats_.badFrames;
    return true;
  }
  if (frame->header.type == wire::FrameType::kMapUpdate) {
    // The IR downlink's epoch announce: awake clients flip immediately;
    // dozing ones (returned above) flip via TCP or on the misroute
    // re-announce after waking.
    onMapUpdatePayload(frame->payload);
    return link.downlink.isOpen();  // the flip may have drained this link
  }
  if (frame->header.type != wire::FrameType::kReport) {
    ++pool_.stats_.badFrames;
    return true;
  }
  onReportPayload(link, frame->payload);
  return link.downlink.isOpen();  // report handling may have dropped us
}

void ClientAgent::handleFrame(Link& link, const wire::FrameView& frame) {
  switch (frame.header.type) {
    case wire::FrameType::kWelcome:
      if (auto m = wire::decodeWelcome(frame.payload)) {
        onWelcome(link, *m);
      } else {
        ++pool_.stats_.badFrames;
      }
      return;
    case wire::FrameType::kDataItem:
      if (std::optional<wire::DataItemReader> reply =
              wire::DataItemReader::parse(frame.payload)) {
        for (std::size_t n = reply->size(); n > 0 && link.tcp.isOpen(); --n) {
          onDataItem(link, reply->next());
        }
      } else {
        ++pool_.stats_.badFrames;
      }
      return;
    case wire::FrameType::kCheckAck:
      if (auto m = wire::decodeCheckAck(frame.payload)) {
        if (link.scheme != nullptr) {
          link.scheme->onCheckDelivered(*link.ctx, m->asOf);
        }
      } else {
        ++pool_.stats_.badFrames;
      }
      return;
    case wire::FrameType::kValidityReply:
      if (auto m = wire::decodeValidityReply(frame.payload)) {
        onValidityReply(link, *m);
      } else {
        ++pool_.stats_.badFrames;
      }
      return;
    case wire::FrameType::kMapUpdate:
      // Epoch announce on the uplink: processed even while dozing (the
      // radio gates UDP only), so a host that sleeps through a reshard
      // wakes already pointed at the new cluster.
      onMapUpdatePayload(frame.payload);
      return;
    default:
      ++pool_.stats_.badFrames;
      return;
  }
}

void ClientAgent::onMapUpdatePayload(std::span<const std::uint8_t> payload) {
  if (auto m = wire::decodeMapUpdate(payload)) {
    pool_.onMapUpdate(m->shardMap);
  } else {
    ++pool_.stats_.badFrames;
  }
}

void ClientAgent::onWelcome(Link& link, const wire::Welcome& w) {
  // A Welcome racing the flip that drained its link: the daemon is no
  // longer part of this agent's epoch, so its slot claim means nothing.
  if (link.draining) return;
  if (link.scheme != nullptr) return;
  pool_.ensureConfigured(w);
  const ShardMap& map = pool_.shardMap();

  if (!links_.map().valid()) {
    if (w.shardIndex >= map.shardCount()) {
      // The seed's slot is gone: a reshard retired it between our connect
      // and its Welcome. Too early to flip gracefully — retire the agent.
      dropAgent();
      return;
    }
    // The seed Welcome: adopt the sender's slot, take its client id as the
    // agent's identity, and dial the rest of the cluster.
    agentId_ = w.clientId;
    followMap(map, w.shardIndex);

    // Same per-client streams as core::Simulation (root.fork("query", id)):
    // an agent whose seed identity is k draws the exact query/doze schedule
    // the simulator's client k draws.
    const sim::Rng root(pool_.opts_.cfg.seed);
    queryGen_.emplace(*pool_.queryPattern_, pool_.agentCfg_.queryParams(),
                      root.fork("query", agentId_));
    disc_.emplace(pool_.agentCfg_.disconnectParams(),
                  root.fork("disc", agentId_));
  } else if (link.shard != w.shardIndex) {
    dropAgent();  // the map pointed us at a daemon claiming another slot
    return;
  }

  link.clientId = w.clientId;
  link.ownCtx = std::make_unique<schemes::ClientContext>(
      link.clientId,
      ShardMap::cacheShare(pool_.cacheCapacity_, map.shardCount(), link.shard),
      pool_.sizes_, pool_.collector_.get(), pool_.agentCfg_.replacement);
  link.ctx = link.ownCtx.get();
  link.scheme = core::makeClientScheme(pool_.agentCfg_, pool_.sigTable_.get(),
                                       pool_.sigInitial_);

  // Copies a flip parked before this link was welcomed: the partition adopts
  // the ones it owns and takes the epoch-flip rule every other partition
  // took at that flip (before any flip the point is the epoch, and the rule
  // changes nothing).
  std::size_t keep = 0;
  for (const cache::Entry& e : pendingMigrate_) {
    if (map.shardOf(e.item) == link.shard) {
      link.ctx->cache().insert(e);
    } else {
      pendingMigrate_[keep++] = e;
    }
  }
  pendingMigrate_.resize(keep);
  core::rule::onEpochFlip(*link.ctx, pendingMigrateAsOf_);

  ++welcomedLinks_;
  if (welcomed() && !running_) {
    running_ = true;
    Life v(*this);
    core::lifecycle::startThink(v, pool_.clock_->nowModel(), v.drawThink());
  }
}

void ClientAgent::onReportPayload(Link& link,
                                  std::span<const std::uint8_t> payload) {
  const report::ReportPtr r = pool_.codec_->decodeAny(payload);
  if (r == nullptr ||
      !schemes::clientTakesReport(pool_.agentCfg_.scheme, r->kind)) {
    ++pool_.stats_.badFrames;  // undecodable, or a kind the scheme refuses
    return;
  }
  ++pool_.stats_.reportsHeard;
  if (link.shard < pool_.stats_.reportsHeardPerShard.size()) {
    ++pool_.stats_.reportsHeardPerShard[link.shard];
  }
  pool_.collector_->onClientRx(r->sizeBits);
  const schemes::ClientOutcome outcome = link.scheme->onReport(*r, *link.ctx);
  if (outcome.sendCheck) {
    sendCheck(link, outcome.check);
    if (!link.tcp.isOpen()) return;
  }

  if (!running_) return;
  Life v(*this);
  core::lifecycle::onReportHeard(v, &link, pool_.clock_->nowModel());
}

void ClientAgent::onDataItem(Link& link, const wire::DataItem& d) {
  if (link.scheme == nullptr || !running_) return;
  pool_.collector_->onClientRx(pool_.sizes_.dataItemBits());
  // The copy goes to the item's owner now, as in the swarm: a flip may
  // have drained the link or moved the item since the miss went out. A
  // copy read before the owner's lastHeard falls to the late-copy rule and
  // the next query simply misses again.
  Link& owner = links_.at(links_.map().shardOf(d.item));
  Life v(*this);
  (void)core::lifecycle::onFetchedCopy(
      v, &owner, pool_.clock_->nowModel(), d.item, d.readTime, [&] {
        cache::Entry entry;
        entry.item = d.item;
        entry.version = d.version;
        entry.refTime = d.readTime;
        entry.suspect = false;
        owner.ctx->cache().insert(entry);
      });
  if (link.draining && link.fetch.empty()) closeLink(link);
}

void ClientAgent::onValidityReply(Link& link, const wire::ValidityReplyMsg& vr) {
  if (link.scheme == nullptr || !radioOn()) return;
  pool_.collector_->onClientRx(vr.sizeBits);
  schemes::ValidityReply reply;
  reply.client = link.clientId;
  reply.asOf = vr.asOf;
  reply.invalid = vr.invalid;
  reply.sizeBits = vr.sizeBits;
  reply.epoch = vr.epoch;
  link.scheme->onValidityReply(reply, *link.ctx);
  if (!running_) return;
  Life v(*this);
  core::lifecycle::tryAnswer(v, &link, pool_.clock_->nowModel());
}

void ClientAgent::sendCheck(Link& link, const schemes::CheckMessage& msg) {
  pool_.collector_->onCheckSent();
  pool_.collector_->onClientTx(msg.sizeBits);
  wire::Check c;
  c.tlb = msg.tlb;
  c.epoch = msg.epoch;
  c.sizeBits = msg.sizeBits;
  c.entries = msg.entries;
  if (!sendFrame(link, pool_.arena_.build(wire::FrameType::kCheck,
                                          net::TrafficClass::kControl, c,
                                          wire::encodeCheckInto))) {
    return;  // connection died mid-check; dropAgent() already ran
  }
}

bool ClientAgent::sendFrame(Link& link, std::span<const std::uint8_t> frame) {
  if (!link.tcp.isOpen()) return false;
  if (link.tcp.send(frame)) return true;
  onLinkFailed(link);
  return false;
}

void ClientAgent::applyShardMap(const ShardMap& map) {
  // Before the seed Welcome there is nothing to flip: ensureConfigured has
  // not run and the seed's Welcome will carry the post-reshard map anyway.
  if (!links_.map().valid() || !advancesEpoch(links_.map(), map)) return;

  // The flip is a doze of the whole cache that began at the pre-flip point
  // (core::rule::onEpochFlip): every copy leaves its partition, parked ones
  // included, and re-enters at its new owner's. Parked copies are suspect
  // as of an earlier flip's point, so that point bounds this one too.
  core::rule::PreFlipPoint<sim::SimTime> preFlip;
  std::vector<cache::Entry> copies = std::exchange(pendingMigrate_, {});
  const sim::SimTime parkedAsOf =
      copies.empty() ? sim::kTimeInfinity : pendingMigrateAsOf_;
  for (const auto& l : links_.slots()) {
    if (!l || !l->ctx) continue;
    preFlip.add(*l->ctx);
    l->ctx->cache().forEach(
        [&](const cache::Entry& e) { copies.push_back(e); });
    l->ctx->cache().clear();
  }
  pendingMigrateAsOf_ = std::min(preFlip.value(), parkedAsOf);

  // Any socket failure on a joiner retires the agent, same as a broken
  // link (a real client would re-dial; the harness counts it).
  try {
    followMap(map, ShardLinks<Link>::kUnplaced);
  } catch (const std::runtime_error&) {
    dropAgent();
    return;
  }
  if (!connectionAlive()) return;  // a Hello failed; dropAgent() ran

  // Each welcomed partition restarts at its new share; a joiner gets its
  // share at its Welcome. Copies go in least recently used first, so each
  // source partition's recency order survives and the policy evicts any
  // overflow.
  welcomedLinks_ = 0;
  for (const auto& l : links_.slots()) {
    if (!l->ctx) continue;
    ++welcomedLinks_;
    l->ctx->cache() = cache::LruCache(
        ShardMap::cacheShare(pool_.cacheCapacity_, map.shardCount(), l->shard),
        pool_.agentCfg_.replacement);
  }
  for (auto e = copies.rbegin(); e != copies.rend(); ++e) {
    Link& owner = links_.at(map.shardOf(e->item));
    if (owner.ctx) {
      owner.ctx->cache().insert(*e);
    } else {
      pendingMigrate_.push_back(*e);  // joiner: adopted at its Welcome
    }
  }
  for (const auto& l : links_.slots()) {
    if (l->ctx) core::rule::onEpochFlip(*l->ctx, pendingMigrateAsOf_);
  }

  // The owed legs follow their items to the new owners. A drained link
  // closes once its fetches are answered, with no Bye: its daemon may be
  // gone. The Link objects stay allocated (reactor handlers up the stack
  // may still hold references); only the fds close.
  if (running_) {
    Life v(*this);
    core::lifecycle::onEpochFlip(v, pool_.clock_->nowModel());
  }
  for (const auto& link : links_.retired()) {
    if (link->fetch.empty()) closeLink(*link);
  }
}

// --- ClientPool --------------------------------------------------------

ClientPool::ClientPool(Reactor& reactor, AgentOptions options)
    : reactor_(reactor), opts_(std::move(options)), agentCfg_(opts_.cfg) {}

ClientPool::~ClientPool() = default;

void ClientPool::start() {
  agents_.reserve(opts_.numAgents);
  for (std::size_t i = 0; i < opts_.numAgents; ++i) {
    agents_.push_back(std::make_unique<ClientAgent>(*this, i));
    agents_.back()->connect();
  }
}

void ClientPool::shutdown() {
  for (auto& a : agents_) a->shutdown();
}

std::size_t ClientPool::welcomedCount() const {
  std::size_t n = 0;
  for (const auto& a : agents_) n += a->welcomed() ? 1 : 0;
  return n;
}

std::size_t ClientPool::aliveCount() const {
  std::size_t n = 0;
  for (const auto& a : agents_) n += a->connectionAlive() ? 1 : 0;
  return n;
}

std::uint64_t ClientPool::queriesCompleted() const {
  std::uint64_t n = 0;
  for (const auto& a : agents_) n += a->queriesCompleted();
  return n;
}

std::vector<std::size_t> ClientPool::cacheCapacities() const {
  std::vector<std::size_t> out;
  for (const auto& a : agents_) {
    out.push_back(0);
    for (const auto& l : a->links_.slots()) {
      if (l && l->ctx) out.back() += l->ctx->cache().capacity();
    }
  }
  return out;
}

metrics::SimResult ClientPool::finalize() const {
  if (!collector_) return metrics::SimResult{};
  const double modelSeconds = clock_ ? clock_->nowModel() : 0.0;
  return collector_->finalize(modelSeconds);
}

void ClientPool::ensureConfigured(const wire::Welcome& w) {
  if (configured_) return;
  configured_ = true;

  agentCfg_ = wire::configFromWelcome(opts_.cfg, w);

  shardMap_ = w.shardMap;
  cacheCapacity_ = w.cacheCapacity;
  stats_.reportsHeardPerShard.assign(shardMap_.shardCount(), 0);

  sizes_ = agentCfg_.sizeModel();
  codec_ = std::make_unique<report::ReportCodec>(sizes_);
  queryPattern_.emplace(agentCfg_.queryPattern());
  clock_.emplace(reactor_, w.timeScale);

  // No local ground truth: auditing happens either through the resolver
  // below (in-process cluster) or server-side via kAudit.
  collector_ = std::make_unique<metrics::Collector>(nullptr,
                                                    agentCfg_.auditStaleReads);
  collector_->setClientCount(agentCfg_.numClients);
  if (!opts_.auditDbs.empty()) {
    // Each item's authoritative version history lives on its owner shard.
    collector_->setDatabaseResolver(
        [this](db::ItemId item) -> const db::Database* {
          const std::uint32_t s = shardMap_.shardOf(item);
          return s < opts_.auditDbs.size() ? opts_.auditDbs[s] : nullptr;
        });
  }

  if (agentCfg_.scheme == schemes::SchemeKind::kSig) {
    sigTable_ = std::make_unique<report::SignatureTable>(
        agentCfg_.dbSize, agentCfg_.sigSubsets, agentCfg_.sigPerItem,
        w.sigSeed);
    // Joining with an empty cache: diffing against the table's epoch state
    // can only produce false invalidations, never hide one.
    sigInitial_ = sigTable_->combined();
  }
}

void ClientPool::onMapUpdate(const ShardMap& map) {
  ++stats_.mapUpdatesHeard;
  if (!configured_) return;
  if (!advancesEpoch(shardMap_, map)) {
    ++stats_.staleMapUpdates;  // duplicate or replayed announce; ignore
    return;
  }
  shardMap_ = map;
  stats_.reportsHeardPerShard.resize(map.shardCount(), 0);
  ++stats_.epochSwitches;
  // Flip every agent now, in one callback: no reactor iteration ever sees
  // the pool's map and an agent's link vector disagree on shard count.
  for (auto& a : agents_) a->applyShardMap(map);
}

}  // namespace mci::live
