// The kernel probe and the codec replay: per-layer unit costs of the
// simulator, the server schemes and the report codec, measured on the
// workload's own model configuration.

#include <algorithm>
#include <string>
#include <utility>

#include "bench_e2e.hpp"
#include "core/scheme_factory.hpp"
#include "core/simulation.hpp"
#include "db/database.hpp"
#include "db/update_history.hpp"
#include "report/codec.hpp"
#include "schemes/factory.hpp"

namespace mci::e2e {
namespace {

std::vector<std::uint8_t> encodeReport(const report::ReportCodec& codec,
                                       const report::Report& r) {
  switch (r.kind) {
    case report::ReportKind::kTsWindow:
    case report::ReportKind::kTsExtended:
      return codec.encode(static_cast<const report::TsReport&>(r));
    case report::ReportKind::kBitSeq:
      return codec.encode(static_cast<const report::BsReport&>(r));
    case report::ReportKind::kSignature:
      return codec.encode(static_cast<const report::SigReport&>(r));
  }
  return {};
}

/// Median thread-CPU microseconds of ServerScheme::buildReport, replayed
/// over the update stream `ran` recorded: a fresh database and history
/// receive every update up to each broadcast time i*L, then the scheme
/// builds that interval's report. One span per call. Appends the encoded
/// reports to `encoded` when given.
double replayBuildReport(const core::SimConfig& cfg, const db::Database& ran,
                         SpanLog& spans,
                         std::vector<std::vector<std::uint8_t>>* encoded) {
  std::vector<std::pair<sim::SimTime, db::ItemId>> stream;
  for (db::ItemId item = 0; item < ran.size(); ++item) {
    for (const sim::SimTime t : ran.updateTimes(item)) {
      stream.emplace_back(t, item);
    }
  }
  std::sort(stream.begin(), stream.end());

  const report::SizeModel sizes = cfg.sizeModel();
  const report::ReportCodec codec(sizes);
  db::Database database(cfg.dbSize);
  db::UpdateHistory history(cfg.dbSize);
  const std::unique_ptr<schemes::ServerScheme> scheme =
      core::makeServerScheme(cfg, history, database, sizes, nullptr);

  std::vector<double> micros;
  std::size_t next = 0;
  const auto intervals =
      static_cast<std::uint64_t>(cfg.simTime / cfg.broadcastPeriod);
  for (std::uint64_t i = 1; i <= intervals; ++i) {
    const sim::SimTime now = static_cast<double>(i) * cfg.broadcastPeriod;
    for (; next < stream.size() && stream[next].first <= now; ++next) {
      database.applyUpdate(stream[next].second, stream[next].first);
      history.record(stream[next].second, stream[next].first);
    }
    const double wall0 = wallNow();
    const std::uint64_t cpu0 = threadCpuNs();
    const report::ReportPtr r = scheme->buildReport(now);
    const std::uint64_t cpu = threadCpuNs() - cpu0;
    spans.add(Span{"schemes.buildReport", Phase::kReplay, i, wall0, wallNow(),
                   cpu, false});
    micros.push_back(static_cast<double>(cpu) * 1e-3);
    if (encoded != nullptr) encoded->push_back(encodeReport(codec, *r));
  }
  return quantile(micros, 0.5);
}

}  // namespace

std::vector<std::vector<std::uint8_t>> runKernelProbe(
    const core::SimConfig& model, SpanLog& spans, Outcome& out) {
  std::vector<std::vector<std::uint8_t>> aawReports;
  for (const schemes::SchemeKind kind : schemes::kPaperSchemes) {
    core::SimConfig cfg = model;
    cfg.scheme = kind;
    cfg.auditStaleReads = false;  // count stale reads instead of aborting
    const std::string name = schemes::schemeName(kind);

    core::Simulation simulation(cfg);
    const double wall0 = wallNow();
    const std::uint64_t cpu0 = threadCpuNs();
    const metrics::SimResult r = simulation.run();
    const std::uint64_t cpu = threadCpuNs() - cpu0;
    spans.add(Span{"sim.run", Phase::kReplay, 0, wall0, wallNow(), cpu, false});
    ++out.attempted;
    out.fail(r.staleReads, "kernel probe " + name + ": stale reads");

    const auto events =
        static_cast<double>(simulation.simulator().eventsFired());
    const auto put = [&out, &name](const char* metric, double value,
                                   const char* unit) {
      out.perLayer.push_back(Metric{std::string(metric) + "." + name, value,
                                    unit});
    };
    put("sim.ns_per_event", static_cast<double>(cpu) / events, "ns");
    put("sim.events_per_sim_s", events / cfg.simTime, "1/sim_s");
    put("schemes.build_report_us",
        replayBuildReport(cfg, simulation.database(), spans,
                          kind == schemes::SchemeKind::kAaw ? &aawReports
                                                            : nullptr),
        "us");
    put("cache.hit_ratio", r.hitRatio(), "ratio");
    put("cache.false_invalidation_frac",
        r.invalidations == 0 ? 0.0
                             : static_cast<double>(r.falseInvalidations) /
                                   static_cast<double>(r.invalidations),
        "frac");
    put("net.uplink_bits_per_query", r.uplinkCheckBitsPerQuery(), "bits");
  }
  return aawReports;
}

std::vector<std::uint64_t> addCodecMetrics(
    const core::SimConfig& model,
    const std::vector<std::vector<std::uint8_t>>& payloads, SpanLog& spans,
    Outcome& out) {
  const report::SizeModel sizes = model.sizeModel();
  const report::ReportCodec codec(sizes);
  std::vector<double> micros;
  std::vector<std::uint64_t> ticks;
  double bytes = 0;
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    const double wall0 = wallNow();
    const std::uint64_t cpu0 = threadCpuNs();
    const report::ReportPtr r = codec.decodeAny(payloads[i]);
    const std::uint64_t cpu = threadCpuNs() - cpu0;
    spans.add(Span{"report.decodeAny", Phase::kReplay, i, wall0, wallNow(),
                   cpu, false});
    if (r == nullptr) {
      out.fail(1, "IR payload failed to decode");
      continue;
    }
    micros.push_back(static_cast<double>(cpu) * 1e-3);
    bytes += static_cast<double>(payloads[i].size());
    ticks.push_back(codec.quantize(r->broadcastTime));
  }
  out.perLayer.push_back(
      Metric{"report.decode_us", quantile(micros, 0.5), "us"});
  out.perLayer.push_back(Metric{
      "report.ir_bytes",
      payloads.empty() ? 0.0 : bytes / static_cast<double>(payloads.size()),
      "bytes"});
  return ticks;
}

}  // namespace mci::e2e
