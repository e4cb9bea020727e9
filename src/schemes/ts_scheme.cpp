#include "schemes/ts_scheme.hpp"

#include "core/check.hpp"


namespace mci::schemes {

TsServerScheme::TsServerScheme(const db::UpdateHistory& history,
                               const report::SizeModel& sizes,
                               double broadcastPeriod, int windowIntervals)
    : history_(history),
      sizes_(sizes),
      period_(broadcastPeriod),
      window_(windowIntervals) {
  MCI_CHECK(period_ > 0 && window_ >= 1);
}

report::ReportPtr TsServerScheme::buildReport(sim::SimTime now) {
  return report::TsReport::build(history_, sizes_, now, windowStart(now));
}

std::optional<ValidityReply> TsServerScheme::onCheckMessage(
    const CheckMessage& /*msg*/, sim::SimTime /*now*/) {
  return std::nullopt;  // plain TS has no uplink protocol
}

ClientOutcome TsClientScheme::onReport(const report::Report& r,
                                       ClientContext& ctx) {
  MCI_CHECK(r.kind == report::ReportKind::kTsWindow);
  const auto& ts = static_cast<const report::TsReport&>(r);
  if (ts.covers(ctx.lastHeard())) {
    applyTsEntries(ts.entries(), ctx);
  } else {
    // Disconnected for more than w broadcast intervals: the client cannot
    // tell which parts of the cache are valid — everything goes.
    ctx.dropAll();
  }
  ctx.setLastHeard(r.broadcastTime);
  return {};
}

}  // namespace mci::schemes
