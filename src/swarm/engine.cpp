#include "swarm/engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/client_rule.hpp"
#include "schemes/bs_scheme.hpp"
#include "schemes/factory.hpp"

namespace mci::swarm {

SwarmEmulator::SwarmEmulator(live::Reactor& reactor, SwarmOptions opts)
    : reactor_(reactor), opts_(std::move(opts)) {
  MCI_CHECK(opts_.clients >= 1);
  MCI_CHECK(opts_.cohorts >= 1);
  UplinkMux::Options mo;
  mo.host = opts_.host;
  mo.port = opts_.port;
  mo.endpointsPerShard = opts_.endpointsPerShard;
  mo.allocProbe = opts_.allocProbe;
  mux_ = std::make_unique<UplinkMux>(reactor_, *this, mo);
  cohorts_.aoiMs.resize(opts_.cohorts);
  cohorts_.latencyMs.resize(opts_.cohorts);
}

void SwarmEmulator::start() { mux_->connect(); }

void SwarmEmulator::shutdown() { mux_->shutdown(); }

metrics::Hist SwarmEmulator::aoiHistMs() const {
  metrics::Hist h;
  for (const metrics::Hist& c : cohorts_.aoiMs) h.merge(c);
  return h;
}

metrics::Hist SwarmEmulator::latencyHistMs() const {
  metrics::Hist h;
  for (const metrics::Hist& c : cohorts_.latencyMs) h.merge(c);
  return h;
}

void SwarmEmulator::onWelcome(const live::wire::Welcome& w) {
  if (configured_) return;
  configured_ = true;

  const auto scheme = static_cast<schemes::SchemeKind>(w.scheme);
  if (scheme != schemes::SchemeKind::kAfw &&
      scheme != schemes::SchemeKind::kAaw) {
    throw std::runtime_error(
        "swarm emulator only speaks the adaptive schemes (AFW/AAW); the "
        "server runs something else");
  }

  cfg_ = opts_.cfg;
  cfg_.scheme = scheme;
  cfg_.dbSize = w.dbSize;
  cfg_.numClients = w.numClients;
  cfg_.broadcastPeriod = w.broadcastPeriod;
  cfg_.windowIntervals = w.windowIntervals;
  cfg_.timestampBits = w.timestampBits;
  cfg_.dataItemBytes = w.dataItemBytes;
  cfg_.controlMessageBytes = w.controlMessageBytes;

  sizes_ = cfg_.sizeModel();
  codec_ = std::make_unique<report::ReportCodec>(sizes_);
  tsBits_ = sizes_.timestampBits;
  itemBits_ = sizes_.itemIdBits();
  tlbBits_ = sizes_.tlbMessageBits();

  if (opts_.zipfTheta >= 0.0) {
    zipf_.emplace(cfg_.dbSize, opts_.zipfTheta);
  } else {
    pattern_.emplace(cfg_.workload == core::WorkloadKind::kHotCold
                         ? workload::AccessPattern::hotCold(cfg_.dbSize,
                                                            cfg_.hotQuery)
                         : workload::AccessPattern::uniform(cfg_.dbSize));
  }

  const std::uint32_t shards = w.shardMap.shardCount();
  if (!opts_.auditDbResolver && !opts_.auditDbs.empty()) {
    MCI_CHECK(opts_.auditDbs.size() == shards)
        << "auditDbs must have one database per shard";
  }
  cacheCapacity_ = w.cacheCapacity;
  state_.configure(opts_.clients, shards,
                   static_cast<std::uint32_t>(cfg_.dbSize), w.cacheCapacity,
                   cfg_.seed);
  pendingFetch_.assign(opts_.clients, 0);
}

void SwarmEmulator::onMuxReady() {
  started_ = true;
  // Every client starts its first think at model time 0, like a pool agent
  // welcomed at startup. First draw of the "query" stream = think time.
  for (std::uint32_t c = 0; c < state_.clients; ++c) {
    state_.thinkDeadline[c] =
        state_.rngQuery[c].exponential(cfg_.meanThinkTime);
  }
}

db::ItemId SwarmEmulator::pickItem(sim::Rng& rng) const {
  return zipf_ ? zipf_->pick(rng) : pattern_->pick(rng);
}

void SwarmEmulator::drawQuery(std::uint32_t c, double startModel) {
  // QueryGenerator::nextQuery's law, drawn from this client's own stream
  // into a shared scratch so the RNG consumption (and thus every later
  // draw) matches a pool agent of the same id exactly. Only the first
  // kMaxQueryItems items are kept; with the paper's meanItemsPerQuery the
  // overflow probability is negligible (P[1+Poisson(mean-1) > 16]).
  sim::Rng& rng = state_.rngQuery[c];
  queryScratch_.clear();
  const int count = 1 + rng.poisson(cfg_.meanItemsPerQuery - 1.0);
  int attempts = 0;
  while (static_cast<int>(queryScratch_.size()) < count &&
         attempts < count * 16) {
    ++attempts;
    const db::ItemId candidate = pickItem(rng);
    if (std::find(queryScratch_.begin(), queryScratch_.end(), candidate) ==
        queryScratch_.end()) {
      // MCI-ANALYZE-ALLOW(hot-path-alloc): scratch high-water capacity
      queryScratch_.push_back(candidate);
    }
  }
  // MCI-ANALYZE-ALLOW(hot-path-alloc): scratch high-water capacity
  if (queryScratch_.empty()) queryScratch_.push_back(pickItem(rng));

  const auto kept = static_cast<std::uint32_t>(std::min<std::size_t>(
      queryScratch_.size(), SwarmState::kMaxQueryItems));
  std::uint32_t mask = 0;
  const std::size_t base =
      static_cast<std::size_t>(c) * SwarmState::kMaxQueryItems;
  const live::ShardMap& map = mux_->shardMap();
  for (std::uint32_t i = 0; i < kept; ++i) {
    state_.queryItems[base + i] = queryScratch_[i];
    mask |= 1u << map.shardOf(queryScratch_[i]);
  }
  state_.queryCount[c] = static_cast<std::uint8_t>(kept);
  state_.needAnswer[c] = mask;
  state_.queryStart[c] = startModel;
  state_.state[c] = ClientState::kAwaiting;
  pendingFetch_[c] = 0;
}

void SwarmEmulator::wake(std::uint32_t c) {
  ++stats_.wakes;
  // The wake rule on every shard's gap state (ClientAgent::wake).
  for (std::uint32_t s = 0; s < state_.shards; ++s) {
    PartitionView p(state_, c, s);
    core::rule::onWake(p);
  }
  const double wakeModel = state_.dozeEnd[c];
  if (state_.queryAfterWake.get(c)) {
    drawQuery(c, wakeModel);
  } else {
    // thinkDeadline holds the *remaining* think time (stored at beginDoze).
    state_.thinkDeadline[c] = wakeModel + state_.thinkDeadline[c];
    state_.state[c] = ClientState::kThinking;
  }
}

void SwarmEmulator::beginDoze(std::uint32_t c, double nowModel,
                              bool queryAfterWake) {
  ++stats_.dozes;
  if (!queryAfterWake) {
    // Park the remaining think time; wake() resumes it (startThink(max(0,
    // thinkDeadline - dozeStart)) in the pool).
    state_.thinkDeadline[c] =
        std::max(0.0, state_.thinkDeadline[c] - nowModel);
  }
  if (queryAfterWake) {
    state_.queryAfterWake.set(c);
  } else {
    state_.queryAfterWake.clear(c);
  }
  state_.dozeEnd[c] =
      nowModel + state_.rngDisc[c].exponential(cfg_.meanDisconnectTime);
  state_.state[c] = ClientState::kDozing;
}

void SwarmEmulator::completeQuery(std::uint32_t c, Tick now) {
  ++stats_.queriesCompleted;
  const double nowModel = live::LiveClock::tickToTime(now);
  const double latencyMs =
      std::max(0.0, (nowModel - state_.queryStart[c]) * 1000.0);
  cohorts_.latencyMs[c % opts_.cohorts].record(
      static_cast<std::uint64_t>(latencyMs));
  if (cfg_.disconnectModel == workload::DisconnectModel::kPostQuery &&
      state_.rngDisc[c].bernoulli(cfg_.disconnectProb)) {
    beginDoze(c, nowModel, /*queryAfterWake=*/true);
  } else {
    state_.thinkDeadline[c] =
        nowModel + state_.rngQuery[c].exponential(cfg_.meanThinkTime);
    state_.state[c] = ClientState::kThinking;
  }
}

void SwarmEmulator::answerShard(std::uint32_t c, std::uint32_t s, Tick now) {
  state_.needAnswer[c] &= ~(1u << s);
  const std::size_t base =
      static_cast<std::size_t>(c) * SwarmState::kMaxQueryItems;
  const std::size_t csIdx = state_.cs(c, s);
  const live::ShardMap& map = mux_->shardMap();
  const db::Database* truth =
      opts_.auditDbResolver
          ? opts_.auditDbResolver(s)
          : (s < opts_.auditDbs.size() ? opts_.auditDbs[s] : nullptr);
  const std::uint32_t n = state_.queryCount[c];
  for (std::uint32_t i = 0; i < n; ++i) {
    const db::ItemId item = state_.queryItems[base + i];
    if (map.shardOf(item) != s) continue;
    const int slot = state_.findSlot(c, s, item);
    const std::size_t si =
        slot >= 0 ? state_.slotIndex(c, static_cast<std::uint32_t>(slot)) : 0;
    if (slot >= 0 && !state_.slotSuspect.get(si)) {
      // Cache hit: second-chance touch, AoI sample, staleness audit at the
      // per-shard consistency point (lastHeard), like onCacheAnswer.
      state_.slotUsed.set(si);
      ++stats_.cacheHits;
      cohorts_.aoiMs[c % opts_.cohorts].record(now - state_.slotRef[si]);
      if (truth != nullptr) {
        const db::Version expect = truth->versionAt(
            item, live::LiveClock::tickToTime(state_.lastHeard[csIdx]));
        if (state_.slotVersion[si] < expect) {
          ++stats_.staleReads;
          MCI_CHECK(!cfg_.auditStaleReads)
              << "STALE READ: swarm client " << c << " item " << item
              << " cached v" << state_.slotVersion[si] << ", server had v"
              << expect << " at tick " << state_.lastHeard[csIdx];
        }
      }
    } else {
      ++stats_.cacheMisses;
      ++pendingFetch_[c];
      mux_->queueFetch(s, c, item, now);
    }
  }
  if (state_.needAnswer[c] == 0 && pendingFetch_[c] == 0) {
    completeQuery(c, now);
  }
}

void SwarmEmulator::tick(std::uint32_t shard, Tick now, bool isTs,
                         Tick coverage, const report::BsReport* bs) {
  lastTick_ = std::max(lastTick_, now);
  const double nowModel = live::LiveClock::tickToTime(now);
  const bool intervalCoin =
      cfg_.disconnectModel == workload::DisconnectModel::kIntervalCoin;
  const std::uint32_t nc = state_.clients;

  for (std::uint32_t c = 0; c < nc; ++c) {
    // (a) wake dozers whose doze elapsed before this report.
    if (state_.state[c] == ClientState::kDozing) {
      if (state_.dozeEnd[c] > nowModel) continue;  // radio still off
      wake(c);
    }
    // (b) promote thinkers whose deadline passed: the query exists from
    // its deadline on, so it is answerable by this very report.
    if (state_.state[c] == ClientState::kThinking &&
        state_.thinkDeadline[c] <= nowModel) {
      drawQuery(c, state_.thinkDeadline[c]);
    }
    // (c) the shared decode, applied to this client by the adaptive rule.
    ++stats_.clientTicks;
    PartitionView p(state_, c, shard);
    if (isTs) {
      core::rule::onTsReport(
          p, now, coverage,
          [&] { state_.applyTsEntries(c, shard, entryItem_, entryTick_); },
          [&] {
            return mux_->sendCheck(
                shard, c, live::LiveClock::tickToTime(p.suspectAsOf()),
                tlbBits_);
          });
    } else {
      core::rule::onBsReport(p, now, [&](Tick tlb) {
        schemes::applyBsDecision(bs->decide(live::LiveClock::tickToTime(tlb)),
                                 p);
      });
    }
    // (d) answer a waiting query on this shard (unless a salvage reply is
    // in flight on it — maybeAnswerLink's salvagePending guard).
    if (state_.state[c] == ClientState::kAwaiting &&
        (state_.needAnswer[c] >> shard & 1u) != 0 && !p.salvagePending()) {
      answerShard(c, shard, now);
    }
    // (e) the per-interval doze coin, flipped on shard 0's reports only.
    if (intervalCoin && shard == 0 &&
        state_.state[c] == ClientState::kThinking &&
        state_.rngDisc[c].bernoulli(cfg_.disconnectProb)) {
      beginDoze(c, nowModel, /*queryAfterWake=*/false);
    }
  }
  mux_->flushFetches();
}

void SwarmEmulator::onReportPayload(std::uint32_t shard,
                                    const std::uint8_t* data,
                                    std::size_t len) {
  if (!started_) return;
  report::BitReader r(data, len);
  const std::uint64_t kind = r.read(2);
  if (kind == 0) {
    // TS window / extended report, parsed in place into the entry scratch:
    // [kind:2][extended:1][T][coverageStart][count:24] count x [id][t].
    // tests/swarm/swarm_test.cpp pins this parse against codec.decodeTs.
    const bool extended = r.read(1) != 0;
    const auto now = static_cast<Tick>(r.read(tsBits_));
    const auto coverage = static_cast<Tick>(r.read(tsBits_));
    const std::uint64_t count = r.read(24);
    if (!r.fits(count, itemBits_ + tsBits_)) {
      ++stats_.unsupportedReports;
      return;
    }
    entryItem_.clear();
    entryTick_.clear();
    for (std::uint64_t i = 0; i < count; ++i) {
      // MCI-ANALYZE-ALLOW(hot-path-alloc): entry scratch high-water only
      entryItem_.push_back(static_cast<db::ItemId>(r.read(itemBits_)));
      // MCI-ANALYZE-ALLOW(hot-path-alloc): entry scratch high-water only
      entryTick_.push_back(static_cast<Tick>(r.read(tsBits_)));
    }
    if (!r.ok()) {
      ++stats_.unsupportedReports;
      return;
    }
    ++stats_.reportsProcessed;
    if (extended) ++stats_.extendedReports;
    tick(shard, now, /*isTs=*/true, coverage, nullptr);
    return;
  }
  if (kind == 1) {
    // Helping BS report: rare (one per salvage round), so the allocating
    // codec path is fine here — it is not part of the steady state.
    bsFrame_.assign(data, data + len);
    const auto decoded = codec_->decodeBs(bsFrame_);
    if (!decoded) {
      ++stats_.unsupportedReports;
      return;
    }
    const auto bs = report::BsReport::fromWire(decoded->wire, sizes_,
                                               decoded->broadcastTime);
    ++stats_.reportsProcessed;
    ++stats_.bsReports;
    tick(shard, static_cast<Tick>(codec_->quantize(decoded->broadcastTime)),
         /*isTs=*/false, 0, bs.get());
    return;
  }
  ++stats_.unsupportedReports;
}

void SwarmEmulator::onDataItem(std::uint32_t shard, std::uint32_t client,
                               db::ItemId item, db::Version version,
                               Tick fetchTick, Tick readTick) {
  // refTime = the tick the miss was issued at: every update the server had
  // applied by then is already reflected in the fetched version, and any
  // later update is listed by a later report with time > fetchTick — the
  // entry can never be stale, and the stamp is endpoint-count independent.
  // A copy read before the partition's lastHeard falls to the cross-channel
  // late-copy rule instead (the next query simply misses again).
  // File the copy under the item's *current* owner, not the conn's shard
  // tag: during a reshard a reply can come back on a draining conn whose
  // shard left the map, or for an item whose owner changed since the miss
  // went out. Pre-flip the two are identical.
  const std::uint32_t owner = mux_->shardMap().shardOf(item);
  (void)shard;
  if (core::rule::acceptsFetchedCopy(
          readTick, state_.lastHeard[state_.cs(client, owner)])) {
    state_.insert(client, owner, item, fetchTick, version);
  } else {
    ++stats_.lateFetchesDropped;
  }
  MCI_DCHECK(pendingFetch_[client] > 0) << "DataItem with no pending fetch";
  if (pendingFetch_[client] > 0) --pendingFetch_[client];
  if (state_.state[client] == ClientState::kAwaiting &&
      state_.needAnswer[client] == 0 && pendingFetch_[client] == 0) {
    completeQuery(client, std::max(lastTick_, fetchTick));
  }
}

void SwarmEmulator::onCheckAck(std::uint32_t shard, std::uint32_t client,
                               Tick asOfTick) {
  // onCheckDelivered: stamp the ack; the next uncovering report compares
  // checkDeliveredAt against its broadcast tick to detect the decline.
  if (shard >= state_.shards) return;  // drained ack; the shard left the map
  PartitionView(state_, client, shard).setCheckDeliveredAt(asOfTick);
}

void SwarmEmulator::onConnectionLost(std::uint32_t shard) {
  (void)shard;  // surfaced via mux().anyConnectionLost() soundness checks
}

void SwarmEmulator::onMapUpdate(const live::ShardMap& oldMap,
                                const live::ShardMap& newMap) {
  if (!configured_) return;
  const std::uint32_t oldShards = state_.shards;
  const std::uint32_t newShards = newMap.shardCount();

  // Pre-flip Tlb per client over its old partitions. Every update a
  // client could have missed around the switch is listed by some new-owner
  // report (or resolvable via its spliced history) after this instant, so
  // suspect-as-of-preTlb plus one ordinary gap cycle per partition is
  // exactly the ClientAgent::applyShardMap argument, swept.
  std::vector<Tick> preTlb(state_.clients, 0);
  for (std::uint32_t c = 0; c < state_.clients; ++c) {
    core::rule::PreFlipPoint<Tick> preFlip;
    for (std::uint32_t s = 0; s < oldShards; ++s) {
      preFlip.add(PartitionView(state_, c, s));
    }
    preTlb[c] = preFlip.value();
  }

  state_.resizeShards(
      newShards, cacheCapacity_,
      [&newMap](db::ItemId item) { return newMap.shardOf(item); });

  for (std::uint32_t c = 0; c < state_.clients; ++c) {
    for (std::uint32_t s = 0; s < newShards; ++s) {
      // Every partition resumes like a client waking from a doze that
      // began at preTlb.
      PartitionView p(state_, c, s);
      if (s >= oldShards) p.setLastHeard(preTlb[c]);
      p.markAllSuspect(preTlb[c]);
      core::rule::onWake(p);
    }
    // Remap an in-flight query's owed-answer mask from old owners to new.
    // Per-item answered state is not tracked, so an already-answered item
    // sharing its new shard with a still-owed one is answered again — a
    // harmless double count, never a dropped or stale answer.
    if (state_.state[c] == ClientState::kAwaiting) {
      const std::uint32_t oldMask = state_.needAnswer[c];
      std::uint32_t mask = 0;
      if (oldMask != 0) {
        const std::size_t base =
            static_cast<std::size_t>(c) * SwarmState::kMaxQueryItems;
        const std::uint32_t n = state_.queryCount[c];
        for (std::uint32_t i = 0; i < n; ++i) {
          const db::ItemId item = state_.queryItems[base + i];
          if ((oldMask >> oldMap.shardOf(item) & 1u) != 0) {
            mask |= 1u << newMap.shardOf(item);
          }
        }
      }
      state_.needAnswer[c] = mask;
      if (mask == 0 && pendingFetch_[c] == 0) completeQuery(c, lastTick_);
    }
  }
}

}  // namespace mci::swarm
