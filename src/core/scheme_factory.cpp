#include "core/scheme_factory.hpp"

#include "core/aaw_scheme.hpp"
#include "core/afw_scheme.hpp"
#include "core/check.hpp"
#include "schemes/at_scheme.hpp"
#include "schemes/bs_scheme.hpp"
#include "schemes/dts_scheme.hpp"
#include "schemes/gcore_scheme.hpp"
#include "schemes/sig_scheme.hpp"
#include "schemes/ts_checking_scheme.hpp"
#include "schemes/ts_scheme.hpp"

namespace mci::core {

std::unique_ptr<schemes::ServerScheme> makeServerScheme(
    const SimConfig& cfg, const db::UpdateHistory& history,
    const db::Database& db, const report::SizeModel& sizes,
    report::SignatureTable* sigTable) {
  using schemes::SchemeKind;
  switch (cfg.scheme) {
    case SchemeKind::kTs:
      return std::make_unique<schemes::TsServerScheme>(
          history, sizes, cfg.broadcastPeriod, cfg.windowIntervals);
    case SchemeKind::kAt:
      return std::make_unique<schemes::AtServerScheme>(history, sizes,
                                                       cfg.broadcastPeriod);
    case SchemeKind::kSig:
      MCI_DCHECK(sigTable != nullptr);
      return std::make_unique<schemes::SigServerScheme>(*sigTable, sizes);
    case SchemeKind::kDts: {
      schemes::DtsServerScheme::Params dts;
      dts.minWindow = cfg.dtsMinWindow;
      dts.maxWindow = cfg.dtsMaxWindow;
      dts.alpha = cfg.dtsAlpha;
      return std::make_unique<schemes::DtsServerScheme>(
          history, db, sizes, cfg.broadcastPeriod, dts);
    }
    case SchemeKind::kTsChecking:
      return std::make_unique<schemes::TsCheckingServerScheme>(
          history, db, sizes, cfg.broadcastPeriod, cfg.windowIntervals);
    case SchemeKind::kGcore:
      return std::make_unique<schemes::GcoreServerScheme>(
          history, db, sizes, cfg.broadcastPeriod, cfg.windowIntervals,
          cfg.gcoreGroupSize);
    case SchemeKind::kBs:
      return std::make_unique<schemes::BsServerScheme>(history, sizes);
    case SchemeKind::kAfw:
      return std::make_unique<AfwServerScheme>(
          history, sizes, cfg.broadcastPeriod, cfg.windowIntervals);
    case SchemeKind::kAaw:
      return std::make_unique<AawServerScheme>(
          history, sizes, cfg.broadcastPeriod, cfg.windowIntervals);
  }
  MCI_CHECK(false) << "unknown scheme";
  return nullptr;
}

std::unique_ptr<schemes::ClientScheme> makeClientScheme(
    const SimConfig& cfg, const report::SignatureTable* sigTable,
    const std::vector<std::uint64_t>& sigInitialCombined) {
  using schemes::SchemeKind;
  switch (cfg.scheme) {
    case SchemeKind::kTs:
    case SchemeKind::kAt:
      return std::make_unique<schemes::TsClientScheme>();
    case SchemeKind::kSig:
      MCI_DCHECK(sigTable != nullptr);
      return std::make_unique<schemes::SigClientScheme>(
          *sigTable, sigInitialCombined, cfg.sigVotes);
    case SchemeKind::kDts:
      return std::make_unique<schemes::DtsClientScheme>();
    case SchemeKind::kTsChecking:
      return std::make_unique<schemes::TsCheckingClientScheme>();
    case SchemeKind::kGcore:
      return std::make_unique<schemes::GcoreClientScheme>(cfg.gcoreGroupSize);
    case SchemeKind::kBs:
      return std::make_unique<schemes::BsClientScheme>();
    case SchemeKind::kAfw:
    case SchemeKind::kAaw:
      return std::make_unique<AdaptiveClientScheme>();
  }
  MCI_CHECK(false) << "unknown scheme";
  return nullptr;
}

}  // namespace mci::core
