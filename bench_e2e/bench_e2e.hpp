// Shared pieces of the end-to-end benchmark driver: run options, the
// outcome one repetition reports, host clocks, the in-memory span log, the
// per-layer metric set every workload emits, and the kernel probe.
//
// The driver measures each layer from outside, by timing calls into the
// library's public functions; nothing here reaches into src/ internals.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"

namespace mci::e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 20;  ///< wall seconds of the measured phase
  /// Smoke size: a few seconds per workload, for the CTest that pins the
  /// metric names. Ignores `seconds`.
  bool smoke = false;
  std::string traceDir;  ///< nonempty = traced run; spans.jsonl lands here
  std::string golden;    ///< results/all_figures.txt of the checkout

  [[nodiscard]] bool traced() const { return !traceDir.empty(); }
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one repetition reports: the correctness fields plus both metric
/// sets. Per-layer metrics are filled only by traced runs.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;
  std::vector<Metric> endToEnd;
  std::vector<Metric> perLayer;

  /// Records `count` failed operations (count 0 records nothing).
  void fail(std::uint64_t count, const std::string& why);
};

// --- host clocks ----------------------------------------------------------

/// Wall seconds since the process started.
[[nodiscard]] double wallNow();
/// CPU time of the calling thread (user + system), nanoseconds.
[[nodiscard]] std::uint64_t threadCpuNs();

struct ProcCpu {
  double user = 0;
  double sys = 0;
  [[nodiscard]] double total() const { return user + sys; }
};
/// CPU seconds of the whole process so far (getrusage).
[[nodiscard]] ProcCpu processCpu();
/// Peak resident set of the process, MB (getrusage ru_maxrss).
[[nodiscard]] double peakRssMb();

/// Allocations made through operator new so far (counted by bench_e2e's
/// replacement allocator; the swarm's allocation probe samples it).
[[nodiscard]] std::uint64_t allocationCount();

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);

// --- spans ----------------------------------------------------------------

enum class Phase : std::uint8_t { kSetup, kWarmup, kMeasure, kReplay };

/// One timed call into a layer. `cpuNs` is thread CPU, except for figure
/// spans, whose work runs on the runner's worker threads: those carry
/// process CPU (`processCpu` set).
struct Span {
  const char* name = "";
  Phase phase = Phase::kMeasure;
  std::uint64_t tick = 0;  ///< IR grid slot, or the figure number
  double wallStart = 0;    ///< wallNow() seconds
  double wallEnd = 0;
  std::uint64_t cpuNs = 0;
  bool processCpu = false;
};

/// Spans kept in a preallocated buffer and written out once at the end,
/// so recording never allocates or touches the disk mid-run.
class SpanLog {
 public:
  /// `capacity` 0 disables recording.
  explicit SpanLog(std::size_t capacity);

  void add(const Span& span);
  [[nodiscard]] std::size_t dropped() const { return dropped_; }
  /// Writes one JSON object per line; false on I/O error.
  [[nodiscard]] bool writeJsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::size_t capacity_;
  std::size_t dropped_ = 0;
};

// --- per-layer metrics ----------------------------------------------------

/// Every per-layer figure that is not a kernel-probe or codec figure. A
/// workload leaves the layers it bypasses at 0: the paper sweep never
/// touches live/ or swarm/, and the swarm runs one thread with no runner
/// pool. Each CPU share is a layer's unit cost times its exact count,
/// divided by the traced CPU it belongs to.
struct LayerFigures {
  double busyFrac = 0;     ///< process CPU / wall
  double sysFrac = 0;      ///< system CPU / (user + system)
  double workerIdleFrac = 0;
  double serverQueryCpuFrac = 0;
  double serverIrTickCpuFrac = 0;
  double swarmTickCpuFrac = 0;
  double muxReplyCpuFrac = 0;
  double unattributedCpuFrac = 0;
  double udpSyscallsPerTick = 0;
  double irTimerLateP90Frac = 0;  ///< of the broadcast period L
  double fetchesPerFrame = 0;
  double udpRecvSyscallsPerReport = 0;
  double lateFetchFrac = 0;
  double allocsPerClientTick = 0;
  double memBytesPerClient = 0;
  double aoiP99Periods = 0;
  double traceOverheadFrac = 0;
};

void addLayerMetrics(const LayerFigures& f, Outcome& out);

/// The kernel probe: one core::Simulation per paper scheme on `model`
/// (100 clients), timing Simulation::run and counting events, then
/// replaying ServerScheme::buildReport over that run's update history at
/// every broadcast time. Adds the sim./schemes./cache./net. metrics.
/// Returns the encoded AAW reports of the replay.
std::vector<std::vector<std::uint8_t>> runKernelProbe(
    const core::SimConfig& model, SpanLog& spans, Outcome& out);

/// report.decode_us (median ReportCodec::decodeAny time) and
/// report.ir_bytes (mean payload size) over `payloads`. Returns the
/// decoded broadcast times in ms on the codec grid; a payload that fails
/// to decode is recorded as a failure and skipped.
std::vector<std::uint64_t> addCodecMetrics(
    const core::SimConfig& model,
    const std::vector<std::vector<std::uint8_t>>& payloads, SpanLog& spans,
    Outcome& out);

// --- workloads --------------------------------------------------------------

[[nodiscard]] Outcome runPaperSweep(const Options& opts, SpanLog& spans);
[[nodiscard]] Outcome runSwarmWorkload(const Options& opts, SpanLog& spans);

}  // namespace mci::e2e
