#include "schemes/bs_scheme.hpp"

#include "core/check.hpp"


namespace mci::schemes {

report::ReportPtr BsServerScheme::buildReport(sim::SimTime now) {
  return builder_.build(history_, sizes_, now);
}

std::optional<ValidityReply> BsServerScheme::onCheckMessage(
    const CheckMessage& /*msg*/, sim::SimTime /*now*/) {
  return std::nullopt;  // BS is pure broadcast: no uplink at all
}

ClientOutcome BsClientScheme::onReport(const report::Report& r,
                                       ClientContext& ctx) {
  MCI_CHECK(r.kind == report::ReportKind::kBitSeq);
  const auto& bs = static_cast<const report::BsReport&>(r);
  applyBsDecision(bs.decide(ctx.lastHeard()), ctx);
  ctx.setLastHeard(r.broadcastTime);
  return {};
}

}  // namespace mci::schemes
