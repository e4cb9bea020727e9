#include "schemes/gcore_scheme.hpp"

#include <algorithm>
#include <bit>
#include <map>

#include "core/check.hpp"

namespace mci::schemes {

net::Bits gcoreCheckBits(const report::SizeModel& sizes, std::size_t groupSize,
                         std::size_t groups) {
  const std::size_t numGroups = (sizes.numItems + groupSize - 1) / groupSize;
  const int groupIdBits =
      numGroups <= 1 ? 1 : std::bit_width(numGroups - 1);
  return static_cast<double>(sizes.clientIdBits()) +
         static_cast<double>(groups) *
             static_cast<double>(groupIdBits + sizes.timestampBits);
}

GcoreServerScheme::GcoreServerScheme(const db::UpdateHistory& history,
                                     const db::Database& database,
                                     const report::SizeModel& sizes,
                                     double broadcastPeriod,
                                     int windowIntervals, std::size_t groupSize)
    : TsServerScheme(history, sizes, broadcastPeriod, windowIntervals),
      db_(database),
      groupSize_(groupSize) {
  MCI_CHECK(groupSize_ >= 1);
}

std::optional<ValidityReply> GcoreServerScheme::onCheckMessage(
    const CheckMessage& msg, sim::SimTime now) {
  ValidityReply reply;
  reply.client = msg.client;
  reply.asOf = now;
  // msg.entries carry (groupId, groupRefTime) pairs; answer with every item
  // of each group updated since the group's timestamp.
  for (const db::UpdateRecord& group : msg.entries) {
    const auto first = static_cast<db::ItemId>(group.item * groupSize_);
    const auto last = static_cast<db::ItemId>(std::min<std::size_t>(
        (group.item + 1) * groupSize_, sizes_.numItems));
    for (db::ItemId item = first; item < last; ++item) {
      if (db_.lastUpdateTime(item) > group.time) reply.invalid.push_back(item);
    }
  }
  // Within-group ids would need only log2(groupSize) bits on a real wire;
  // charge that (plus the group header already paid by the request).
  const int inGroupBits =
      groupSize_ <= 1 ? 1 : std::bit_width(groupSize_ - 1);
  reply.sizeBits =
      static_cast<double>(sizes_.clientIdBits() + sizes_.timestampBits) +
      static_cast<double>(reply.invalid.size()) * inGroupBits;
  return reply;
}

ClientOutcome GcoreClientScheme::onReport(const report::Report& r,
                                          ClientContext& ctx) {
  MCI_CHECK(r.kind == report::ReportKind::kTsWindow);
  const auto& ts = static_cast<const report::TsReport&>(r);
  const bool hadSuspects = ctx.cache().suspectCount() > 0;

  if (!hadSuspects && ts.covers(ctx.lastHeard())) {
    applyTsEntries(ts.entries(), ctx);
    ctx.setLastHeard(r.broadcastTime);
    return {};
  }

  if (!hadSuspects) ctx.markAllSuspect(ctx.lastHeard());
  applyTsEntries(ts.entries(), ctx);

  ClientOutcome out;
  if (ctx.cache().suspectCount() == 0) {
    ctx.clearGapState();
  } else if (!ctx.checkSent()) {
    // Aggregate the suspects into (groupId, oldest refTime) pairs.
    std::map<db::ItemId, sim::SimTime> groups;
    ctx.cache().forEach([&](const cache::Entry& e) {
      if (!e.suspect) return;
      const auto group = static_cast<db::ItemId>(e.item / groupSize_);
      auto [it, inserted] = groups.emplace(group, e.refTime);
      if (!inserted) it->second = std::min(it->second, e.refTime);
    });
    out.sendCheck = true;
    out.check.client = ctx.id();
    out.check.tlb = ctx.suspectAsOf();
    out.check.entries.reserve(groups.size());
    for (const auto& [group, refTime] : groups) {
      out.check.entries.push_back({group, refTime});
    }
    out.check.sizeBits = gcoreCheckBits(ctx.sizes(), groupSize_, groups.size());
    out.check.epoch = ctx.checkEpoch();
    ctx.setCheckSent(true);
    ctx.setSalvagePending(true);
  }
  ctx.setLastHeard(r.broadcastTime);
  return out;
}

void GcoreClientScheme::onValidityReply(const ValidityReply& reply,
                                        ClientContext& ctx) {
  if (reply.epoch != ctx.checkEpoch()) return;
  for (db::ItemId item : reply.invalid) {
    const cache::Entry* e = ctx.cache().find(item);
    if (e != nullptr && e->suspect) ctx.invalidate(item);
  }
  ctx.salvageAllSuspects(reply.asOf);
  ctx.clearGapState();
}

}  // namespace mci::schemes
