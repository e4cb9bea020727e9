#include "schemes/sig_scheme.hpp"

#include "core/check.hpp"

namespace mci::schemes {

report::ReportPtr SigServerScheme::buildReport(sim::SimTime now) {
  return report::SigReport::build(table_, sizes_, now);
}

std::optional<ValidityReply> SigServerScheme::onCheckMessage(
    const CheckMessage& /*msg*/, sim::SimTime /*now*/) {
  return std::nullopt;  // SIG is pure broadcast
}

SigClientScheme::SigClientScheme(const report::SignatureTable& table,
                                 std::vector<std::uint64_t> initialCombined,
                                 int votesNeeded)
    : table_(table),
      stored_(std::move(initialCombined)),
      votesNeeded_(votesNeeded > 0 ? votesNeeded : table.membershipsPerItem()) {
  MCI_DCHECK(stored_.size() == table_.numSubsets());
}

ClientOutcome SigClientScheme::onReport(const report::Report& r,
                                        ClientContext& ctx) {
  MCI_CHECK(r.kind == report::ReportKind::kSignature);
  const auto& sig = static_cast<const report::SigReport&>(r);
  const std::vector<std::uint64_t>& fresh = sig.combined();
  MCI_CHECK(fresh.size() == stored_.size());

  std::vector<char>& changed = changedScratch_;
  changed.assign(fresh.size(), 0);
  std::size_t numChanged = 0;
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    if (fresh[i] != stored_[i]) {
      changed[i] = 1;
      ++numChanged;
    }
  }

  if (numChanged > 0) {
    // Collect first: invalidation mutates the cache under iteration.
    std::vector<db::ItemId>& toInvalidate = invalidateScratch_;
    toInvalidate.clear();
    ctx.cache().forEach([&](const cache::Entry& e) {
      int votes = 0;
      for (std::size_t s : table_.subsetsOf(e.item)) {
        if (changed[s]) ++votes;
      }
      if (votes >= votesNeeded_) toInvalidate.push_back(e.item);
    });
    for (db::ItemId item : toInvalidate) ctx.invalidate(item);
  }

  stored_ = fresh;  // element-wise copy into the existing buffer
  ctx.setLastHeard(r.broadcastTime);
  return {};
}

}  // namespace mci::schemes
