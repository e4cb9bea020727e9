#include "runner/figures.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/check.hpp"

namespace mci::runner {
namespace {

using core::SimConfig;
using core::WorkloadKind;

std::vector<double> range(double lo, double hi, double step) {
  std::vector<double> xs;
  for (double x = lo; x <= hi + 1e-9; x += step) xs.push_back(x);
  return xs;
}

const std::vector<double> kDbSizes{1000, 5000, 10000, 20000, 40000, 60000, 80000};

std::vector<schemes::SchemeKind> paperSchemeList() {
  return {std::begin(schemes::kPaperSchemes), std::end(schemes::kPaperSchemes)};
}

SweepSpec makeSweep(SimConfig base, std::vector<double> xs,
                    void (*apply)(SimConfig&, double)) {
  SweepSpec s;
  s.base = base;
  s.xs = std::move(xs);
  s.schemes = paperSchemeList();
  s.apply = apply;
  return s;
}

void applyDbSize(SimConfig& cfg, double x) {
  cfg.dbSize = static_cast<std::size_t>(x);
}
void applyDiscProb(SimConfig& cfg, double x) { cfg.disconnectProb = x; }
void applyDiscTime(SimConfig& cfg, double x) { cfg.meanDisconnectTime = x; }
void applyUplinkBw(SimConfig& cfg, double x) { cfg.uplinkBps = x; }

std::vector<FigureSpec> buildFigures() {
  std::vector<FigureSpec> figs;

  // ---- Figures 5/6: UNIFORM, x = database size ----
  {
    SimConfig base;
    base.workload = WorkloadKind::kUniform;
    base.disconnectProb = 0.1;
    base.meanDisconnectTime = 4000;
    base.clientBufferFrac = 0.02;
    const char* sub = "Prob of Disc=0.1, Mean Disc Time=4000, Client Buffer Size=2%";
    figs.push_back({5, "Figure 5. UNIFORM Workload.", sub, "Database Size",
                    FigureMetric::kThroughput,
                    makeSweep(base, kDbSizes, applyDbSize)});
    figs.push_back({6, "Figure 6. UNIFORM Workload.", sub, "Database Size",
                    FigureMetric::kUplinkBitsPerQuery,
                    makeSweep(base, kDbSizes, applyDbSize)});
  }

  // ---- Figures 7/8: UNIFORM, x = disconnection probability ----
  {
    SimConfig base;
    base.workload = WorkloadKind::kUniform;
    base.dbSize = 10000;
    base.meanDisconnectTime = 400;
    base.clientBufferFrac = 0.02;
    const char* sub = "Database Size=10^4, Mean Disc Time=400, Client Buffer Size=2%";
    figs.push_back({7, "Figure 7. UNIFORM Workload.", sub,
                    "Probability of Disconnection in an Interval",
                    FigureMetric::kThroughput,
                    makeSweep(base, range(0.1, 0.8, 0.1), applyDiscProb)});
    figs.push_back({8, "Figure 8. UNIFORM Workload.", sub,
                    "Probability of Disconnection in an Interval",
                    FigureMetric::kUplinkBitsPerQuery,
                    makeSweep(base, range(0.1, 0.8, 0.1), applyDiscProb)});
  }

  // ---- Figures 9/10: UNIFORM, x = mean disconnection time ----
  {
    SimConfig base;
    base.workload = WorkloadKind::kUniform;
    base.dbSize = 10000;
    base.disconnectProb = 0.1;
    base.clientBufferFrac = 0.01;
    const char* sub = "Database Size=10^4, Prob of Disc=0.1, Client Buffer Size=1%";
    figs.push_back({9, "Figure 9. UNIFORM Workload.", sub,
                    "Mean Disconnection Time", FigureMetric::kThroughput,
                    makeSweep(base, range(200, 2000, 200), applyDiscTime)});
    figs.push_back({10, "Figure 10. UNIFORM Workload.", sub,
                    "Mean Disconnection Time",
                    FigureMetric::kUplinkBitsPerQuery,
                    makeSweep(base, {200, 1000, 2000, 4000, 6000, 8000},
                              applyDiscTime)});
  }

  // ---- Figures 11/12: HOTCOLD, x = database size ----
  {
    SimConfig base;
    base.workload = WorkloadKind::kHotCold;
    base.disconnectProb = 0.1;
    base.meanDisconnectTime = 400;
    base.clientBufferFrac = 0.02;
    const char* sub = "Prob of Disc=0.1, Mean Disc Time=400, Client Buffer Size=2%";
    figs.push_back({11, "Figure 11. HotCold Workload.", sub, "Database Size",
                    FigureMetric::kThroughput,
                    makeSweep(base, kDbSizes, applyDbSize)});
    figs.push_back({12, "Figure 12. HotCold Workload.", sub, "Database Size",
                    FigureMetric::kUplinkBitsPerQuery,
                    makeSweep(base, kDbSizes, applyDbSize)});
  }

  // ---- Figures 13/14: HOTCOLD, x = disconnection probability ----
  {
    SimConfig base;
    base.workload = WorkloadKind::kHotCold;
    base.dbSize = 10000;
    base.meanDisconnectTime = 400;
    base.clientBufferFrac = 0.02;
    const char* sub = "Database Size=10^4, Mean Disc Time=400, Client Buffer Size=2%";
    figs.push_back({13, "Figure 13. HotCold Workload.", sub,
                    "Probability of Disconnection in an Interval",
                    FigureMetric::kThroughput,
                    makeSweep(base, range(0.1, 0.8, 0.1), applyDiscProb)});
    figs.push_back({14, "Figure 14. HotCold Workload.", sub,
                    "Probability of Disconnection in an Interval",
                    FigureMetric::kUplinkBitsPerQuery,
                    makeSweep(base, range(0.1, 0.8, 0.1), applyDiscProb)});
  }

  // ---- Figures 15/16: asymmetric environment, x = uplink bandwidth ----
  {
    SimConfig base;
    base.dbSize = 5000;
    base.disconnectProb = 0.1;
    base.meanDisconnectTime = 4000;
    base.clientBufferFrac = 0.02;
    const char* sub = "Database Size=5*10^3, Mean Disc Time=4000, Client Buffer Size=2%";
    base.workload = WorkloadKind::kUniform;
    figs.push_back({15,
                    "Figure 15. Asymmetric Communication Environment "
                    "(Uniform Workload).",
                    sub, "Uplink Bandwidth (bits/second)",
                    FigureMetric::kThroughput,
                    makeSweep(base, range(100, 1000, 100), applyUplinkBw)});
    base.workload = WorkloadKind::kHotCold;
    figs.push_back({16,
                    "Figure 16. Asymmetric Communication Environment "
                    "(HotCold Workload).",
                    sub, "Uplink Bandwidth (bits/second)",
                    FigureMetric::kThroughput,
                    makeSweep(base, range(100, 1000, 100), applyUplinkBw)});
  }

  return figs;
}

}  // namespace

const char* figureMetricLabel(FigureMetric m) {
  switch (m) {
    case FigureMetric::kThroughput:
      return "No. of Queries Answered";
    case FigureMetric::kUplinkBitsPerQuery:
      return "Uplink Communication Cost Per Query (bits/query)";
  }
  return "?";
}

const std::vector<FigureSpec>& paperFigures() {
  static const std::vector<FigureSpec> figs = buildFigures();
  return figs;
}

const FigureSpec& figureByNumber(int number) {
  for (const FigureSpec& f : paperFigures()) {
    if (f.number == number) return f;
  }
  MCI_CHECK(false) << "unknown figure number";
  std::abort();
}

double figureMetricValue(FigureMetric m, const metrics::SimResult& r) {
  switch (m) {
    case FigureMetric::kThroughput:
      return r.throughput();
    case FigureMetric::kUplinkBitsPerQuery:
      return r.uplinkCheckBitsPerQuery();
  }
  return 0;
}

metrics::FigureData runFigure(const FigureSpec& spec, const RunOptions& opts) {
  SweepSpec sweep = spec.sweep;
  if (opts.simTime > 0) sweep.base.simTime = opts.simTime;
  if (opts.seed != 0) sweep.base.seed = opts.seed;
  const unsigned reps = opts.replications == 0 ? 1 : opts.replications;

  metrics::FigureData data;
  data.title = spec.title;
  data.subtitle = spec.subtitle;
  if (reps > 1) {
    data.subtitle += " | mean of " + std::to_string(reps) + " replications";
  }
  data.xLabel = spec.xLabel;
  data.yLabel = figureMetricLabel(spec.metric);
  data.xs = sweep.xs;
  for (schemes::SchemeKind k : sweep.schemes) {
    metrics::Series series;
    series.name = schemes::schemeLegend(k);
    series.ys.assign(sweep.xs.size(), 0.0);
    data.series.push_back(std::move(series));
  }
  // Per (series, x) sum of squares for the replication spread.
  std::vector<std::vector<double>> sumSq(
      sweep.schemes.size(), std::vector<double>(sweep.xs.size(), 0.0));

  const std::uint64_t baseSeed = sweep.base.seed;
  for (unsigned rep = 0; rep < reps; ++rep) {
    sweep.base.seed = baseSeed + 7919ULL * rep;
    const auto progress = [&](std::size_t done, std::size_t total) {
      if (opts.quiet) return;
      std::fprintf(stderr, "\r[fig %d] rep %u/%u: %zu/%zu runs", spec.number,
                   rep + 1, reps, done, total);
      if (done == total && rep + 1 == reps) std::fprintf(stderr, "\n");
      std::fflush(stderr);
    };
    const std::vector<SweepCell> cells = runSweep(sweep, opts.threads, progress);
    for (std::size_t xi = 0; xi < sweep.xs.size(); ++xi) {
      for (std::size_t si = 0; si < sweep.schemes.size(); ++si) {
        const SweepCell& cell = cells[xi * sweep.schemes.size() + si];
        const double y = figureMetricValue(spec.metric, cell.result);
        data.series[si].ys[xi] += y / reps;
        sumSq[si][xi] += y * y;
      }
    }
  }
  if (reps > 1) {
    for (std::size_t si = 0; si < data.series.size(); ++si) {
      data.series[si].sds.assign(data.xs.size(), 0.0);
      for (std::size_t xi = 0; xi < data.xs.size(); ++xi) {
        const double mean = data.series[si].ys[xi];
        const double var =
            std::max(0.0, sumSq[si][xi] / reps - mean * mean) *
            (static_cast<double>(reps) / std::max(1u, reps - 1));
        data.series[si].sds[xi] = std::sqrt(var);
      }
    }
  }
  return data;
}

}  // namespace mci::runner
