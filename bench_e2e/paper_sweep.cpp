// The paper-sweep workload: all twelve figures (5..16) of the paper at
// Table-1 scale, through runner::runSweep on two worker threads. It is the
// only workload that runs sim/core/schemes/cache/net, and it never touches
// live/ or swarm/.

#include <fstream>
#include <map>
#include <sstream>

#include "bench_e2e.hpp"
#include "core/simulation.hpp"
#include "metrics/series.hpp"
#include "runner/figures.hpp"
#include "runner/sweep.hpp"

namespace mci::e2e {
namespace {

constexpr unsigned kThreads = 2;
constexpr int kSetups = 5;
constexpr double kSmokeSimTime = 2000;

/// A figure's sweep with the run's seed and simulated time applied the way
/// runner::runFigure applies RunOptions (simTime 0 keeps Table 1's). Stale
/// reads are counted instead of aborting the process.
runner::SweepSpec sweepFor(const runner::FigureSpec& spec, std::uint64_t seed,
                           double simTime) {
  runner::SweepSpec sweep = spec.sweep;
  if (simTime > 0) sweep.base.simTime = simTime;
  sweep.base.seed = seed;
  sweep.base.auditStaleReads = false;
  return sweep;
}

struct FigureRun {
  std::string table;  ///< exactly what bench_all_figures prints
  std::vector<runner::SweepCell> cells;
  /// Per cell, wall ms from the figure's start (when all its cells are
  /// due) to the cell's result.
  std::vector<double> doneMs;
  double wallStart = 0;
  double wallEnd = 0;
  double cpu = 0;  ///< process CPU seconds, both workers
};

/// One figure through runner::runSweep. runner::runFigure would hide when
/// each cell finishes, which the lag metrics need, so the table is shaped
/// here instead; the golden comparison pins that shaping.
FigureRun runFigureOnce(const runner::FigureSpec& spec,
                        const runner::SweepSpec& sweep) {
  FigureRun run;
  run.doneMs.assign(sweep.xs.size() * sweep.schemes.size(), 0.0);
  run.wallStart = wallNow();
  const double cpu0 = processCpu().total();
  // Each finished cell reports a distinct `done`, so the workers write
  // disjoint elements.
  run.cells = runner::runSweep(
      sweep, kThreads, [&run](std::size_t done, std::size_t /*total*/) {
        run.doneMs[done - 1] = (wallNow() - run.wallStart) * 1e3;
      });
  run.wallEnd = wallNow();
  run.cpu = processCpu().total() - cpu0;

  // runner::runFigure's shaping for a single replication.
  metrics::FigureData data;
  data.title = spec.title;
  data.subtitle = spec.subtitle;
  data.xLabel = spec.xLabel;
  data.yLabel = runner::figureMetricLabel(spec.metric);
  data.xs = sweep.xs;
  for (const schemes::SchemeKind k : sweep.schemes) {
    data.series.push_back(metrics::Series{schemes::schemeLegend(k), {}, {}});
  }
  for (std::size_t xi = 0; xi < sweep.xs.size(); ++xi) {
    for (std::size_t si = 0; si < sweep.schemes.size(); ++si) {
      data.series[si].ys.push_back(runner::figureMetricValue(
          spec.metric, run.cells[xi * sweep.schemes.size() + si].result));
    }
  }
  const int precision =
      spec.metric == runner::FigureMetric::kThroughput ? 0 : 2;
  run.table = data.toTable(precision) + "\n";
  return run;
}

/// Construct-and-drop every cell's core::Simulation (database, history,
/// network, client caches): the work each cell does before its first
/// event. The per-cell config is runner::runSweep's derivation.
double setUpCells(const std::vector<runner::SweepSpec>& sweeps) {
  const double wall0 = wallNow();
  for (const runner::SweepSpec& sweep : sweeps) {
    for (std::size_t xi = 0; xi < sweep.xs.size(); ++xi) {
      for (const schemes::SchemeKind scheme : sweep.schemes) {
        core::SimConfig cfg = sweep.base;
        sweep.apply(cfg, sweep.xs[xi]);
        cfg.scheme = scheme;
        cfg.seed = sweep.base.seed + 1000003ULL * xi;
        const core::Simulation simulation(cfg);
      }
    }
  }
  return wallNow() - wall0;
}

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

Outcome runPaperSweep(const Options& opts, SpanLog& spans) {
  Outcome out;
  const double simTime = opts.smoke ? kSmokeSimTime : 0.0;
  std::vector<const runner::FigureSpec*> figures;
  std::vector<runner::SweepSpec> sweeps;
  for (const runner::FigureSpec& spec : runner::paperFigures()) {
    if (opts.smoke && spec.number != 5) continue;
    figures.push_back(&spec);
    sweeps.push_back(sweepFor(spec, opts.seed, simTime));
  }

  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    const double wall0 = wallNow();
    const std::uint64_t cpu0 = threadCpuNs();
    setups.push_back(setUpCells(sweeps));
    spans.add(Span{"setup.cells", Phase::kSetup, 0, wall0, wallNow(),
                   threadCpuNs() - cpu0, false});
  }

  // Every measured figure is checked twice over: any rerun of a figure
  // within the run must print the same table (determinism across thread
  // interleavings), and at the default seed every table must be the
  // committed golden one.
  const std::string golden = readFile(opts.golden);
  const bool goldenSeed = opts.seed == core::SimConfig{}.seed;
  std::map<int, std::string> firstTable;
  const auto check = [&](const runner::FigureSpec& spec, const FigureRun& run,
                         bool againstGolden) {
    out.attempted += run.cells.size();
    for (const runner::SweepCell& cell : run.cells) {
      out.fail(cell.result.staleReads,
               "figure " + std::to_string(spec.number) + ": stale reads");
    }
    const auto [it, first] = firstTable.emplace(spec.number, run.table);
    if (!first && it->second != run.table) {
      out.fail(run.cells.size(), "figure " + std::to_string(spec.number) +
                                     ": rerun printed a different table");
    }
    if (againstGolden && golden.find(run.table) == std::string::npos) {
      out.fail(run.cells.size(),
               "figure " + std::to_string(spec.number) +
                   ": table differs from results/all_figures.txt");
    }
  };

  std::vector<double> lagMs;
  double simSeconds = 0;
  double plainCpu = 0;
  double tracedCpu = 0;
  std::uint64_t hits = 0;
  std::uint64_t lookups = 0;
  double p50Weighted = 0;
  std::uint64_t queries = 0;
  // Whole passes over every figure, so the metrics always average the same
  // figure mix; the run stops at the pass boundary nearest to `seconds`.
  const double wallStart = wallNow();
  const ProcCpu cpuStart = processCpu();
  int passes = 0;
  do {
    ++passes;
    for (std::size_t f = 0; f < figures.size(); ++f) {
      const FigureRun run = runFigureOnce(*figures[f], sweeps[f]);
      check(*figures[f], run, goldenSeed && !opts.smoke);
      lagMs.insert(lagMs.end(), run.doneMs.begin(), run.doneMs.end());
      plainCpu += run.cpu;
      for (const runner::SweepCell& cell : run.cells) {
        simSeconds += cell.result.simTime;
        hits += cell.result.cacheHits;
        lookups += cell.result.cacheHits + cell.result.cacheMisses;
        p50Weighted += cell.result.p50QueryLatency *
                       static_cast<double>(cell.result.queriesCompleted);
        queries += cell.result.queriesCompleted;
      }
      if (opts.traced()) {
        // The same figure again with its span recorded: the pair prices
        // the tracing itself (trace_overhead_frac).
        const FigureRun traced = runFigureOnce(*figures[f], sweeps[f]);
        spans.add(Span{"runner.runSweep", Phase::kMeasure,
                       static_cast<std::uint64_t>(figures[f]->number),
                       traced.wallStart, traced.wallEnd,
                       static_cast<std::uint64_t>(traced.cpu * 1e9), true});
        check(*figures[f], traced, false);
        tracedCpu += traced.cpu;
      }
    }
  } while (!opts.smoke && (wallNow() - wallStart) * (1.0 + 0.5 / passes) <
                              opts.seconds);
  const double wall = wallNow() - wallStart;
  const ProcCpu cpu = processCpu();

  if (!opts.smoke) {
    // One golden figure at every seed (which one rotates with the seed),
    // outside the measured phase. It runs at the default seed, so it is not
    // compared with this run's own tables of that figure.
    const runner::FigureSpec& spec = *figures[opts.seed % figures.size()];
    const FigureRun run =
        runFigureOnce(spec, sweepFor(spec, core::SimConfig{}.seed, 0.0));
    firstTable.erase(spec.number);
    check(spec, run, true);
    if (golden.empty()) out.fail(1, "cannot read " + opts.golden);
  }

  const auto put = [&out](const char* name, double value, const char* unit) {
    out.endToEnd.push_back(Metric{name, value, unit});
  };
  put("setup_s", quantile(setups, 0.5), "s");
  put("peak_rss_mb", peakRssMb(), "MB");
  put("model_s_per_cpu_s", simSeconds / plainCpu, "model_s/cpu_s");
  put("lag_p50_ms", quantile(lagMs, 0.5), "ms");
  put("lag_p90_ms", quantile(lagMs, 0.9), "ms");
  put("query_p50_ms", queries == 0 ? 0.0 : p50Weighted / queries * 1e3, "ms");
  put("hit_ratio",
      lookups == 0 ? 0.0
                   : static_cast<double>(hits) / static_cast<double>(lookups),
      "ratio");

  if (opts.traced()) {
    LayerFigures layers;
    const double cpuTotal = cpu.total() - cpuStart.total();
    layers.busyFrac = cpuTotal / wall;
    layers.sysFrac = (cpu.sys - cpuStart.sys) / cpuTotal;
    layers.workerIdleFrac = 1.0 - layers.busyFrac / kThreads;
    layers.traceOverheadFrac = tracedCpu / plainCpu - 1.0;
    addLayerMetrics(layers, out);

    core::SimConfig table1;  // Table 1 defaults, the sweeps' common base
    table1.seed = opts.seed;
    if (opts.smoke) table1.simTime = kSmokeSimTime;
    const std::vector<std::vector<std::uint8_t>> reports =
        runKernelProbe(table1, spans, out);
    (void)addCodecMetrics(table1, reports, spans, out);
  }
  return out;
}

}  // namespace mci::e2e
