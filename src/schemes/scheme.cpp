#include "schemes/scheme.hpp"

#include "core/client_rule.hpp"

namespace mci::schemes {

ClientContext::ClientContext(ClientId id, std::size_t cacheCapacity,
                             const report::SizeModel& sizes,
                             CacheEventSink* sink,
                             cache::ReplacementPolicy replacement)
    : id_(id),
      cache_(cacheCapacity, replacement, 0x9E3779B9u + id),
      sizes_(sizes),
      sink_(sink) {}

void ClientContext::invalidate(db::ItemId item) {
  cache::Entry* e = cache_.find(item);
  if (e == nullptr) return;
  if (sink_) sink_->onInvalidate(id_, item, e->version);
  cache_.erase(item);
}

std::size_t ClientContext::dropAll() {
  const std::size_t n = cache_.size();
  if (n > 0 && sink_) sink_->onCacheDrop(id_, n);
  cache_.clear();
  return n;
}

std::size_t ClientContext::markAllSuspect(sim::SimTime preGapTlb) {
  suspectAsOf_ = preGapTlb;
  return cache_.markAllSuspect();
}

std::size_t ClientContext::dropSuspects() {
  const std::size_t n = cache_.dropSuspects();
  if (n > 0 && sink_) sink_->onCacheDrop(id_, n);
  return n;
}

void ClientContext::salvageEntry(db::ItemId item, sim::SimTime refTime) {
  cache::Entry* e = cache_.find(item);
  if (e == nullptr || !e->suspect) return;
  cache_.clearSuspect(item);
  e->refTime = refTime;
  if (sink_) sink_->onSalvage(id_, 1);
}

std::size_t ClientContext::salvageAllSuspects(sim::SimTime refTime) {
  const std::size_t n = cache_.salvageSuspects(refTime);
  if (n > 0 && sink_) sink_->onSalvage(id_, n);
  return n;
}

void ClientContext::clearGapState() {
  salvagePending_ = false;
  checkSent_ = false;
  checkDeliveredAt_ = sim::kTimeInfinity;
  suspectAsOf_ = sim::kTimeEpoch;
  ++checkEpoch_;
}

void ClientScheme::onValidityReply(const ValidityReply& /*reply*/,
                                   ClientContext& /*ctx*/) {}

void ClientScheme::onCheckDelivered(ClientContext& ctx, sim::SimTime now) {
  ctx.setCheckDeliveredAt(now);
}

void ClientContext::restartGapCycle() {
  salvagePending_ = cache_.suspectCount() > 0;
  checkSent_ = false;
  checkDeliveredAt_ = sim::kTimeInfinity;
  ++checkEpoch_;  // a reply to the pre-doze check must be ignored
}

void ClientScheme::onWake(ClientContext& ctx) { core::rule::onWake(ctx); }

void applyTsEntries(const std::vector<db::UpdateRecord>& entries,
                    ClientContext& ctx) {
  for (const db::UpdateRecord& rec : entries) {
    const cache::Entry* e = ctx.cache().find(rec.item);
    if (e != nullptr && rec.time > e->refTime) ctx.invalidate(rec.item);
  }
}

}  // namespace mci::schemes
