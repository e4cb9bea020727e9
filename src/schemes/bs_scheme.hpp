#pragma once

#include "db/update_history.hpp"
#include "report/bs_report.hpp"
#include "schemes/scheme.hpp"

namespace mci::schemes {

/// Bit-Sequences scheme (Jing et al. [13]): the server broadcasts the full
/// hierarchical bit-sequence structure every period. Needs zero uplink and
/// salvages caches after arbitrarily long disconnections (up to half the
/// database updated), but the report costs ~2N bits per period — which is
/// exactly what kills its throughput at large N in Figures 5/11.
class BsServerScheme final : public ServerScheme {
 public:
  BsServerScheme(const db::UpdateHistory& history,
                 const report::SizeModel& sizes)
      : history_(history), sizes_(sizes) {}

  report::ReportPtr buildReport(sim::SimTime now) override;
  std::optional<ValidityReply> onCheckMessage(const CheckMessage& msg,
                                              sim::SimTime now) override;

 private:
  const db::UpdateHistory& history_;
  const report::SizeModel& sizes_;
  report::BsBuilder builder_;  // rebroadcasts unchanged histories from cache
};

/// Client half: Figure 2's algorithm. Never marks suspects — a BS report
/// resolves any gap on the spot (possibly by dropping everything when the
/// client predates TS(B_n)).
class BsClientScheme final : public ClientScheme {
 public:
  ClientOutcome onReport(const report::Report& r, ClientContext& ctx) override;
};

/// Applies a BS decision (BsReport::decide) to a cache view with dropAll()
/// and invalidate(item): a ClientContext, or a swarm PartitionView.
/// Wire-faithful: a marked item is invalidated regardless of the cached
/// copy's refTime, because the bit representation carries no per-item
/// timestamps. Shared with the adaptive schemes' client half.
template <class View>
void applyBsDecision(const report::BsReport::Decision& d, View& v) {
  switch (d.action) {
    case report::BsReport::Action::kNothing:
      break;
    case report::BsReport::Action::kDropAll:
      v.dropAll();
      break;
    case report::BsReport::Action::kInvalidateSet:
      for (const db::UpdateRecord& rec : d.marked) v.invalidate(rec.item);
      break;
  }
}

}  // namespace mci::schemes
