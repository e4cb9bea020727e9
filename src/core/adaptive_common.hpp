#pragma once

#include <cstdint>
#include <vector>

#include "db/update_history.hpp"
#include "report/bs_report.hpp"
#include "report/ts_report.hpp"
#include "schemes/bs_scheme.hpp"
#include "schemes/scheme.hpp"

namespace mci::core {

/// Shared server half of the two adaptive schemes: broadcast IR(w) by
/// default; collect Tlb feedback from reconnecting clients; when at least
/// one pending Tlb is salvageable — i.e. older than the window but not
/// older than TS(B_n) — switch the *next* report to a helping format
/// (chosen by the concrete scheme). Unsalvageable Tlbs are discarded: the
/// client sees a post-feedback report that still does not cover it and
/// drops its suspects (the explicit decline path, DESIGN.md §4).
class AdaptiveServerBase : public schemes::ServerScheme {
 public:
  AdaptiveServerBase(const db::UpdateHistory& history,
                     const report::SizeModel& sizes, double broadcastPeriod,
                     int windowIntervals);

  std::optional<schemes::ValidityReply> onCheckMessage(
      const schemes::CheckMessage& msg, sim::SimTime now) override;

  report::ReportPtr buildReport(sim::SimTime now) final;

  /// Report-type decision statistics (ablation benchmarks).
  struct Decisions {
    std::uint64_t tsReports = 0;
    std::uint64_t bsReports = 0;
    std::uint64_t extendedReports = 0;
    std::uint64_t tlbsReceived = 0;
    std::uint64_t tlbsDeclined = 0;  ///< pending Tlbs below TS(B_n)
  };
  [[nodiscard]] const Decisions& decisions() const { return decisions_; }

 protected:
  /// Chooses the helping report given the salvageable Tlbs (non-empty,
  /// all >= bs->coverageStart()). AFW always returns `bs`; AAW may return
  /// the smaller extended-window report instead.
  virtual report::ReportPtr chooseHelpingReport(
      std::shared_ptr<const report::BsReport> bs,
      const std::vector<sim::SimTime>& salvageable, sim::SimTime now) = 0;

  [[nodiscard]] sim::SimTime windowStart(sim::SimTime now) const {
    const sim::SimTime start = now - window_ * period_;
    return start > 0 ? start : sim::kTimeEpoch;
  }

  const db::UpdateHistory& history_;
  const report::SizeModel& sizes_;
  double period_;
  int window_;
  Decisions decisions_;

 private:
  std::vector<sim::SimTime> pendingTlbs_;
  report::BsBuilder builder_;  // rebroadcasts unchanged histories from cache
  std::vector<sim::SimTime> salvageableScratch_;  // reused every interval
};

/// Client half, shared verbatim by AFW and AAW: the report kind dispatch of
/// Figures 3 and 4 onto the rule of core/client_rule.hpp, which the swarm
/// emulator runs too.
class AdaptiveClientScheme final : public schemes::ClientScheme {
 public:
  schemes::ClientOutcome onReport(const report::Report& r,
                                  schemes::ClientContext& ctx) override;
};

}  // namespace mci::core
