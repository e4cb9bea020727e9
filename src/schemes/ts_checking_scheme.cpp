#include "schemes/ts_checking_scheme.hpp"

#include "core/check.hpp"


namespace mci::schemes {

std::optional<ValidityReply> TsCheckingServerScheme::onCheckMessage(
    const CheckMessage& msg, sim::SimTime now) {
  ValidityReply reply;
  reply.client = msg.client;
  reply.asOf = now;
  for (const db::UpdateRecord& rec : msg.entries) {
    if (db_.lastUpdateTime(rec.item) > rec.time) reply.invalid.push_back(rec.item);
  }
  reply.sizeBits = sizes_.validityReportBits(reply.invalid.size());
  return reply;
}

ClientOutcome TsCheckingClientScheme::onReport(const report::Report& r,
                                               ClientContext& ctx) {
  MCI_CHECK(r.kind == report::ReportKind::kTsWindow);
  const auto& ts = static_cast<const report::TsReport&>(r);
  const bool hadSuspects = ctx.cache().suspectCount() > 0;

  if (!hadSuspects && ts.covers(ctx.lastHeard())) {
    applyTsEntries(ts.entries(), ctx);
    ctx.setLastHeard(r.broadcastTime);
    return {};
  }

  if (!hadSuspects) {
    // Reconnection beyond the window detected just now: the cache is kept,
    // but nothing in it may answer queries until the server vouches for it.
    ctx.markAllSuspect(ctx.lastHeard());
  }
  // Listed records still carry exact information — apply them first so the
  // checking request (and the validity reply) shrink accordingly.
  applyTsEntries(ts.entries(), ctx);

  ClientOutcome out;
  if (ctx.cache().suspectCount() == 0) {
    ctx.clearGapState();  // nothing left to salvage
  } else if (!ctx.checkSent()) {
    out.sendCheck = true;
    out.check.client = ctx.id();
    out.check.tlb = ctx.suspectAsOf();
    out.check.entries.reserve(ctx.cache().suspectCount());
    ctx.cache().forEach([&](const cache::Entry& e) {
      if (e.suspect) out.check.entries.push_back({e.item, e.refTime});
    });
    out.check.sizeBits = ctx.sizes().checkRequestBits(out.check.entries.size());
    out.check.epoch = ctx.checkEpoch();
    ctx.setCheckSent(true);
    ctx.setSalvagePending(true);
  }
  // else: a check is already in flight — wait for its reply.
  ctx.setLastHeard(r.broadcastTime);
  return out;
}

void TsCheckingClientScheme::onValidityReply(const ValidityReply& reply,
                                             ClientContext& ctx) {
  if (reply.epoch != ctx.checkEpoch()) return;  // reply from a finished gap
  for (db::ItemId item : reply.invalid) ctx.invalidate(item);
  ctx.salvageAllSuspects(reply.asOf);
  ctx.clearGapState();
}

}  // namespace mci::schemes
