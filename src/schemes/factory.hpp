#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "report/report.hpp"

namespace mci::schemes {

/// Every invalidation scheme the library implements. The paper simulates
/// the last four; kTs, kAt and kSig are the §1/§2 baselines we additionally
/// provide (exercised by the ablation benchmarks).
enum class SchemeKind {
  kTs,          ///< broadcasting timestamps, no checking [4,5]
  kAt,          ///< amnesic terminals [4,5]
  kSig,         ///< signatures [4,5]
  kDts,         ///< dynamic per-item windows (concretized from [5], §3.2)
  kTsChecking,  ///< TS with checking / "simple checking" [16]
  kGcore,       ///< grouped checking in the style of GCORE [16]
  kBs,          ///< bit-sequences [13]
  kAfw,         ///< adaptive, fixed window (this paper, §3.1)
  kAaw,         ///< adaptive, adjusting window (this paper, §3.2)
};

inline constexpr SchemeKind kAllSchemes[] = {
    SchemeKind::kTs,  SchemeKind::kAt,  SchemeKind::kSig,
    SchemeKind::kDts, SchemeKind::kTsChecking, SchemeKind::kGcore,
    SchemeKind::kBs,  SchemeKind::kAfw, SchemeKind::kAaw,
};

/// The four schemes in the paper's figures, in the legend's order.
inline constexpr SchemeKind kPaperSchemes[] = {
    SchemeKind::kAaw,
    SchemeKind::kAfw,
    SchemeKind::kTsChecking,
    SchemeKind::kBs,
};

[[nodiscard]] constexpr const char* schemeName(SchemeKind k) {
  switch (k) {
    case SchemeKind::kTs: return "TS";
    case SchemeKind::kAt: return "AT";
    case SchemeKind::kSig: return "SIG";
    case SchemeKind::kDts: return "DTS";
    case SchemeKind::kTsChecking: return "TS-check";
    case SchemeKind::kGcore: return "GCORE";
    case SchemeKind::kBs: return "BS";
    case SchemeKind::kAfw: return "AFW";
    case SchemeKind::kAaw: return "AAW";
  }
  return "?";
}

/// True when the client of scheme `k` takes a report of kind `r`; its
/// ClientScheme::onReport checks the kind and refuses any other, so a live
/// client drops such a report as a bad frame before it gets there. The
/// adaptive clients take the TS window, its AAW extension and the BS reply
/// to a check; every other scheme takes the one kind its server builds.
[[nodiscard]] constexpr bool clientTakesReport(SchemeKind k,
                                               report::ReportKind r) {
  switch (k) {
    case SchemeKind::kTs:
    case SchemeKind::kAt:
    case SchemeKind::kDts:
    case SchemeKind::kTsChecking:
    case SchemeKind::kGcore:
      return r == report::ReportKind::kTsWindow;
    case SchemeKind::kSig:
      return r == report::ReportKind::kSignature;
    case SchemeKind::kBs:
      return r == report::ReportKind::kBitSeq;
    case SchemeKind::kAfw:
    case SchemeKind::kAaw:
      return r != report::ReportKind::kSignature;
  }
  return false;
}

/// The figures' legend labels.
[[nodiscard]] constexpr const char* schemeLegend(SchemeKind k) {
  switch (k) {
    case SchemeKind::kAaw: return "adaptive with adjusting window";
    case SchemeKind::kAfw: return "adaptive with fixed window";
    case SchemeKind::kTsChecking: return "simple checking";
    case SchemeKind::kBs: return "bit sequences";
    default: return schemeName(k);
  }
}

/// One-line description of what each scheme does on the air — the text
/// behind `--list-schemes` in the binaries.
[[nodiscard]] constexpr const char* schemeDescription(SchemeKind k) {
  switch (k) {
    case SchemeKind::kTs:
      return "broadcasting timestamps: ids+times updated in the last w*L s";
    case SchemeKind::kAt:
      return "amnesic terminals: ids updated in the last interval only";
    case SchemeKind::kSig:
      return "combined signatures; client diffs and votes per cached item";
    case SchemeKind::kDts:
      return "TS with a per-item window adapted to its update rate";
    case SchemeKind::kTsChecking:
      return "TS plus an uplink check so sleepers salvage their cache";
    case SchemeKind::kGcore:
      return "group-wise checking (GCORE): one validity bit per group";
    case SchemeKind::kBs:
      return "hierarchical bit sequences covering the whole update history";
    case SchemeKind::kAfw:
      return "adaptive fixed window: TS normally, BS to answer a Tlb check";
    case SchemeKind::kAaw:
      return "adaptive adjusting window: AFW with a demand-driven window";
  }
  return "?";
}

/// Parses a scheme name (as printed by schemeName, case-sensitive).
[[nodiscard]] std::optional<SchemeKind> parseSchemeName(std::string_view name);

/// `"TS, AT, SIG, ..."` — the valid `--scheme=` values, for error messages.
[[nodiscard]] std::string schemeNameList();

/// Multi-line `name  description` listing, one scheme per line (the body of
/// `--list-schemes` output).
[[nodiscard]] std::string schemeListing();

}  // namespace mci::schemes
