#include "core/adaptive_common.hpp"

#include <algorithm>

#include "core/check.hpp"
#include "core/client_rule.hpp"

namespace mci::core {

AdaptiveServerBase::AdaptiveServerBase(const db::UpdateHistory& history,
                                       const report::SizeModel& sizes,
                                       double broadcastPeriod,
                                       int windowIntervals)
    : history_(history),
      sizes_(sizes),
      period_(broadcastPeriod),
      window_(windowIntervals) {
  MCI_CHECK(period_ > 0 && window_ >= 1);
}

std::optional<schemes::ValidityReply> AdaptiveServerBase::onCheckMessage(
    const schemes::CheckMessage& msg, sim::SimTime /*now*/) {
  pendingTlbs_.push_back(msg.tlb);
  ++decisions_.tlbsReceived;
  return std::nullopt;  // the answer is the next broadcast report
}

report::ReportPtr AdaptiveServerBase::buildReport(sim::SimTime now) {
  const sim::SimTime wStart = windowStart(now);
  if (!pendingTlbs_.empty()) {
    auto bs = builder_.build(history_, sizes_, now);
    std::vector<sim::SimTime>& salvageable = salvageableScratch_;
    salvageable.clear();
    for (sim::SimTime tlb : pendingTlbs_) {
      if (tlb < bs->coverageStart()) {
        ++decisions_.tlbsDeclined;  // older than even BS can express
      } else if (tlb < wStart) {
        salvageable.push_back(tlb);
      }
      // tlb >= wStart: the regular window already covers this client.
    }
    pendingTlbs_.clear();
    if (!salvageable.empty()) {
      report::ReportPtr helping = chooseHelpingReport(bs, salvageable, now);
      if (helping->kind == report::ReportKind::kBitSeq) {
        ++decisions_.bsReports;
      } else {
        ++decisions_.extendedReports;
      }
      return helping;
    }
  }
  ++decisions_.tsReports;
  return report::TsReport::build(history_, sizes_, now, wStart);
}

schemes::ClientOutcome AdaptiveClientScheme::onReport(
    const report::Report& r, schemes::ClientContext& ctx) {
  if (r.kind == report::ReportKind::kBitSeq) {
    const auto& bs = static_cast<const report::BsReport&>(r);
    rule::onBsReport(ctx, r.broadcastTime, [&](sim::SimTime tlb) {
      schemes::applyBsDecision(bs.decide(tlb), ctx);
    });
    return {};
  }

  MCI_CHECK(r.kind == report::ReportKind::kTsWindow ||
            r.kind == report::ReportKind::kTsExtended);
  const auto& ts = static_cast<const report::TsReport&>(r);
  schemes::ClientOutcome out;
  rule::onTsReport(
      ctx, r.broadcastTime, ts.coverageStart(),
      [&] { schemes::applyTsEntries(ts.entries(), ctx); },
      [&] {
        out.sendCheck = true;
        out.check.client = ctx.id();
        out.check.tlb = ctx.suspectAsOf();
        out.check.sizeBits = ctx.sizes().tlbMessageBits();
        return true;
      });
  return out;
}

}  // namespace mci::core
