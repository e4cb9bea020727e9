#include "swarm/engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/client_lifecycle.hpp"
#include "schemes/bs_scheme.hpp"
#include "schemes/factory.hpp"
#include "workload/query_generator.hpp"

namespace mci::swarm {
namespace {

/// How much of a partition's leading slotItem run a fetch hint warms: two
/// cache lines, the head of findSlot's scan and of the free-slot search.
constexpr std::size_t kPrefetchSlotBytes = 128;

}  // namespace

/// One emulated client as the lifecycle's view: the SwarmState row plus
/// the emulator's mechanics. Deadlines are polled at report ticks (tick
/// phases (a) and (b)), so arming and cancelling them is free; `tick` is
/// the report tick hits and misses are stamped with.
class SwarmEmulator::Life : public ClientRow {
 public:
  /// `preFlip`: at a flip, the map the query's legs were owed under.
  Life(SwarmEmulator& e, std::uint32_t c, Tick tick,
       const live::ShardMap* preFlip = nullptr)
      : ClientRow(e.state_, c), e_(e), tick_(tick), preFlip_(preFlip) {}

  [[nodiscard]] const workload::Disconnector::Params& dozeParams() const {
    return e_.dozeParams_;
  }
  double drawThink() {
    return st_.rngQuery[c_].exponential(e_.cfg_.meanThinkTime);
  }
  void drawQuery(double now) {
    // QueryGenerator's law from this client's own stream, into a shared
    // scratch, so the RNG consumption (and thus every later draw) matches
    // a pool agent of the same id exactly. Only the first kMaxQueryItems
    // items are kept; with the paper's meanItemsPerQuery the overflow
    // probability is negligible (P[1+Poisson(mean-1) > 16]).
    std::vector<db::ItemId>& items = e_.queryScratch_;
    sim::Rng& rng = st_.rngQuery[c_];
    if (e_.zipf_) {
      workload::drawQueryItems(rng, e_.cfg_.meanItemsPerQuery, *e_.zipf_,
                               items);
    } else {
      workload::drawQueryItems(rng, e_.cfg_.meanItemsPerQuery, *e_.pattern_,
                               items);
    }
    const auto kept = static_cast<std::uint32_t>(
        std::min<std::size_t>(items.size(), SwarmState::kMaxQueryItems));
    std::uint32_t mask = 0;
    const std::size_t base =
        static_cast<std::size_t>(c_) * SwarmState::kMaxQueryItems;
    const live::ShardMap& map = e_.mux_->shardMap();
    for (std::uint32_t i = 0; i < kept; ++i) {
      st_.queryItems[base + i] = items[i];
      mask |= 1u << map.shardOf(items[i]);
    }
    st_.queryCount[c_] = static_cast<std::uint8_t>(kept);
    st_.needAnswer[c_] = mask;
    st_.queryStart[c_] = now;
    e_.pendingFetch_[c_] = 0;
  }
  template <class Owed>
  void keepQueryItems(Owed&& owed) {
    ClientRow::keepQueryItems(*preFlip_, owed);
  }
  void oweQueryItems() { ClientRow::oweQueryItems(e_.mux_->shardMap()); }
  static void armThink(double) {}
  static void cancelThink() {}
  void armWake(double now, double duration) {
    ++e_.stats_.dozes;
    st_.dozeEnd[c_] = now + duration;
  }
  void onWoken(double) { ++e_.stats_.wakes; }

  template <class F>
  void forEachQueryItem(std::uint32_t s, F&& f) {
    truth_ = e_.opts_.auditDbResolver
                 ? e_.opts_.auditDbResolver(s)
                 : (s < e_.opts_.auditDbs.size() ? e_.opts_.auditDbs[s]
                                                 : nullptr);
    const std::size_t base =
        static_cast<std::size_t>(c_) * SwarmState::kMaxQueryItems;
    const live::ShardMap& map = e_.mux_->shardMap();
    const std::uint32_t n = st_.queryCount[c_];
    for (std::uint32_t i = 0; i < n; ++i) {
      const db::ItemId item = st_.queryItems[base + i];
      if (map.shardOf(item) == s && !f(item)) return;
    }
  }
  bool hit(std::uint32_t s, db::ItemId item, Slot h) {
    // Second-chance touch, AoI sample, staleness audit at the per-shard
    // consistency point (lastHeard), like onCacheAnswer.
    st_.slotUsed.set(h.index);
    ++e_.stats_.cacheHits;
    e_.cohorts_.aoiMs[c_ % SwarmCohorts::kCohorts].record(
        tick_ - st_.slotRef[h.index]);
    if (truth_ != nullptr) {
      const Tick heard = lastHeard(s);
      const db::Version expect =
          truth_->versionAt(item, sim::tickTime(heard));
      if (st_.slotVersion[h.index] < expect) {
        ++e_.stats_.staleReads;
        MCI_CHECK(!e_.cfg_.auditStaleReads)
            << "STALE READ: swarm client " << c_ << " item " << item
            << " cached v" << st_.slotVersion[h.index] << ", server had v"
            << expect << " at tick " << heard;
      }
    }
    return true;
  }
  void miss(std::uint32_t s, db::ItemId item) {
    ++e_.stats_.cacheMisses;
    ++e_.pendingFetch_[c_];
    e_.mux_->queueFetch(s, c_, item, tick_);
  }
  /// Misses are staged on the mux and batch-flushed at tick end.
  static void requestFetches(std::uint32_t) {}
  [[nodiscard]] bool anyFetchOutstanding() const {
    return e_.pendingFetch_[c_] != 0;
  }
  void retireFetch(std::uint32_t, db::ItemId) {
    MCI_DCHECK(e_.pendingFetch_[c_] > 0) << "DataItem with no pending fetch";
    if (e_.pendingFetch_[c_] > 0) --e_.pendingFetch_[c_];
  }
  void recordCompletion(double now) {
    ++e_.stats_.queriesCompleted;
    // Both ends are grid times: the latency in ms is their tick distance.
    e_.cohorts_.latencyMs[c_ % SwarmCohorts::kCohorts].record(
        sim::toTick(now - st_.queryStart[c_]));
  }

 private:
  SwarmEmulator& e_;
  Tick tick_;
  const live::ShardMap* preFlip_;
  const db::Database* truth_ = nullptr;  ///< audit truth of the shard answered
};

SwarmEmulator::SwarmEmulator(live::Reactor& reactor, SwarmOptions opts)
    : reactor_(reactor), opts_(std::move(opts)) {
  MCI_CHECK(opts_.clients >= 1);
  UplinkMux::Options mo;
  mo.host = opts_.host;
  mo.port = opts_.port;
  mo.endpointsPerShard = opts_.endpointsPerShard;
  mo.allocProbe = opts_.allocProbe;
  mux_ = std::make_unique<UplinkMux>(reactor_, *this, mo);
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

  cfg_ = live::wire::configFromWelcome(opts_.cfg, w);

  sizes_ = cfg_.sizeModel();
  codec_ = std::make_unique<report::ReportCodec>(sizes_);
  tlbBits_ = sizes_.tlbMessageBits();

  if (opts_.zipfTheta >= 0.0) {
    zipf_.emplace(cfg_.dbSize, opts_.zipfTheta);
  } else {
    pattern_.emplace(cfg_.queryPattern());
  }

  const std::uint32_t shards = w.shardMap.shardCount();
  if (!opts_.auditDbResolver && !opts_.auditDbs.empty()) {
    MCI_CHECK(opts_.auditDbs.size() == shards)
        << "auditDbs must have one database per shard";
  }
  dozeParams_ = cfg_.disconnectParams();
  cacheCapacity_ = w.cacheCapacity;
  state_.configure(opts_.clients, shards,
                   static_cast<std::uint32_t>(cfg_.dbSize), w.cacheCapacity,
                   cfg_.seed);
  pendingFetch_.assign(opts_.clients, 0);
  listedTick_ = ListedTicks(state_.dbSize);
}

void SwarmEmulator::onMuxReady() {
  started_ = true;
  // Every client starts its first think at model time 0, like a pool agent
  // welcomed at startup. First draw of the "query" stream = think time.
  for (std::uint32_t c = 0; c < state_.clients; ++c) {
    Life v(*this, c, 0);
    core::lifecycle::startThink(v, 0.0, v.drawThink());
  }
}

void SwarmEmulator::tick(std::uint32_t shard, Tick now, bool isTs,
                         Tick coverage, const report::BsReport* bs) {
  using core::lifecycle::Phase;
  lastTick_ = std::max(lastTick_, now);
  const double nowModel = sim::tickTime(now);
  const std::uint32_t nc = state_.clients;

  for (std::uint32_t c = 0; c < nc; ++c) {
    Life v(*this, c, now);
    // (a) wake dozers whose doze elapsed before this report.
    if (v.phase() == Phase::kDozing) {
      if (state_.dozeEnd[c] > nowModel) continue;  // radio still off
      core::lifecycle::wake(v, state_.dozeEnd[c]);
    }
    // (b) promote thinkers whose deadline passed: the query exists from
    // its deadline on, so it is answerable by this very report.
    if (v.phase() == Phase::kThinking && state_.thinkDeadline[c] <= nowModel) {
      core::lifecycle::issueQuery(v, state_.thinkDeadline[c]);
    }
    // (c) the shared decode, applied to this client by the adaptive rule.
    ++stats_.clientTicks;
    PartitionView p(state_, c, shard);
    if (isTs) {
      core::rule::onTsReport(
          p, now, coverage,
          [&] {
            if (!entries_.empty()) {
              state_.applyTsEntries(c, shard, listedTick_.data());
            }
          },
          [&] {
            return mux_->sendCheck(shard, c, sim::tickTime(p.suspectAsOf()),
                                   tlbBits_);
          });
    } else {
      core::rule::onBsReport(p, now, [&](Tick tlb) {
        schemes::applyBsDecision(bs->decide(sim::tickTime(tlb)), p);
      });
    }
    // (d) answer a waiting query on this shard, or (e) flip a thinker's
    // interval coin on shard 0's reports.
    core::lifecycle::onReportHeard(v, shard, nowModel);
  }
  mux_->flushFetches();
}

void SwarmEmulator::onReportPayload(std::uint32_t shard,
                                    std::span<const std::uint8_t> payload) {
  if (!started_) return;
  const std::optional<report::ReportKind> kind = codec_->peekKind(payload);
  if (kind == report::ReportKind::kTsWindow ||
      kind == report::ReportKind::kTsExtended) {
    // TS window / extended report: read in place by the codec's one TS
    // reader, then folded into the listed-tick table the partition passes
    // read.
    const std::optional<report::TsHeader> h =
        codec_->readTs(payload, entries_);
    if (!h) {
      ++stats_.unsupportedReports;
      return;
    }
    listedTick_.list(entries_);
    ++stats_.reportsProcessed;
    if (h->kind == report::ReportKind::kTsExtended) ++stats_.extendedReports;
    tick(shard, static_cast<Tick>(h->now), /*isTs=*/true,
         static_cast<Tick>(h->coverage), nullptr);
    listedTick_.clear(entries_);
    return;
  }
  // Anything else goes through ClientAgent's path and rule. The adaptive
  // client takes one other kind, the BS reply to a check: rare (one per
  // salvage round), so the allocating decode is fine here.
  const report::ReportPtr r = codec_->decodeAny(payload);
  if (r == nullptr || !schemes::clientTakesReport(cfg_.scheme, r->kind)) {
    ++stats_.unsupportedReports;
    return;
  }
  MCI_DCHECK(r->kind == report::ReportKind::kBitSeq);
  ++stats_.reportsProcessed;
  ++stats_.bsReports;
  tick(shard, static_cast<Tick>(sim::toTick(r->broadcastTime)),
       /*isTs=*/false, 0, static_cast<const report::BsReport*>(r.get()));
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
  Life v(*this, client, lastTick_);
  const bool kept = core::lifecycle::onFetchedCopy(
      v, owner, sim::tickTime(std::max(lastTick_, fetchTick)),
      item, readTick,
      [&] { state_.insert(client, owner, item, fetchTick, version); });
  if (!kept) ++stats_.lateFetchesDropped;
}

void SwarmEmulator::prefetchDataItem(std::uint32_t client,
                                     db::ItemId item) const {
  // Starts loading what onDataItem -> insert -> completeQuery will touch
  // for this reply; the loads stall the mux loop when they miss. Writes
  // nothing. A reshard can be mid-flip, so indices outside the current
  // state are skipped rather than hinted.
  if (client >= state_.clients) return;
  const std::uint32_t owner = mux_->shardMap().shardOf(item);
  if (owner >= state_.shards) return;
  const std::size_t csIdx = state_.cs(client, owner);
  __builtin_prefetch(&state_.lastHeard[csIdx]);
  __builtin_prefetch(&state_.occupancy[csIdx]);
  __builtin_prefetch(&state_.clockHand[csIdx]);
  const std::size_t share = state_.shareOf(owner);
  if (share > 0) {
    // findSlot and the free-slot scan start at the partition's first slot.
    const std::size_t first =
        state_.slotIndex(client, state_.shardSlotOff[owner]);
    const auto* items = reinterpret_cast<const char*>(&state_.slotItem[first]);
    const std::size_t itemBytes = share * sizeof(db::ItemId);
    for (std::size_t off = 0; off < itemBytes && off < kPrefetchSlotBytes;
         off += 64) {
      __builtin_prefetch(items + off);
    }
    __builtin_prefetch(&state_.slotRef[first]);
    __builtin_prefetch(&state_.slotVersion[first]);
    __builtin_prefetch(state_.slotUsed.wordOf(first));
    __builtin_prefetch(state_.slotSuspect.wordOf(first));
  }
  if (state_.presenceEnabled && item < state_.dbSize) {
    __builtin_prefetch(
        state_.presence.wordOf(state_.presenceIndex(client, item)));
  }
  __builtin_prefetch(&pendingFetch_[client]);
  __builtin_prefetch(&state_.phase[client]);
  __builtin_prefetch(&state_.needAnswer[client]);
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
  // the epoch-flip rule (ClientAgent::applyShardMap's too) holds once every
  // copy sits at its new owner's share.
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
      PartitionView p(state_, c, s);
      core::rule::onEpochFlip(p, preTlb[c]);
    }
    Life v(*this, c, lastTick_, &oldMap);
    core::lifecycle::onEpochFlip(v, sim::tickTime(lastTick_));
  }
}

}  // namespace mci::swarm
