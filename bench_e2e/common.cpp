#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench_e2e.hpp"
#include "metrics/walltime.hpp"

namespace mci::e2e {

void Outcome::fail(std::uint64_t count, const std::string& why) {
  if (count == 0) return;
  correct = false;
  failed += count;
  violations.push_back(why + " (" + std::to_string(count) + ")");
}

double wallNow() {
  static const metrics::WallTimer start;
  return start.seconds();
}

std::uint64_t threadCpuNs() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

ProcCpu processCpu() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return ProcCpu{secs(ru.ru_utime), secs(ru.ru_stime)};
}

double peakRssMb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

SpanLog::SpanLog(std::size_t capacity) : capacity_(capacity) {
  spans_.reserve(capacity);
}

void SpanLog::add(const Span& span) {
  if (spans_.size() < capacity_) {
    spans_.push_back(span);
  } else if (capacity_ > 0) {
    ++dropped_;
  }
}

bool SpanLog::writeJsonl(const std::string& path) const {
  static const char* const kPhase[] = {"setup", "warmup", "measure", "replay"};
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"parent\": \"%s\", \"tick\": %llu, "
                 "\"wall_start_s\": %.9f, \"wall_end_s\": %.9f, "
                 "\"cpu_ns\": %llu, \"cpu_clock\": \"%s\"}\n",
                 s.name, kPhase[static_cast<int>(s.phase)],
                 static_cast<unsigned long long>(s.tick), s.wallStart,
                 s.wallEnd, static_cast<unsigned long long>(s.cpuNs),
                 s.processCpu ? "process" : "thread");
  }
  return std::fclose(f) == 0;
}

void addLayerMetrics(const LayerFigures& f, Outcome& out) {
  const auto put = [&out](const char* name, double value, const char* unit) {
    out.perLayer.push_back(Metric{name, value, unit});
  };
  put("proc.busy_frac", f.busyFrac, "frac");
  put("proc.sys_frac", f.sysFrac, "frac");
  put("runner.worker_idle_frac", f.workerIdleFrac, "frac");
  put("live.server.query_cpu_frac", f.serverQueryCpuFrac, "frac");
  put("live.server.ir_tick_cpu_frac", f.serverIrTickCpuFrac, "frac");
  put("live.server.udp_syscalls_per_tick", f.udpSyscallsPerTick, "count");
  put("live.reactor.ir_timer_late_p90_frac", f.irTimerLateP90Frac, "frac");
  put("live.reactor.unattributed_cpu_frac", f.unattributedCpuFrac, "frac");
  put("swarm.tick_cpu_frac", f.swarmTickCpuFrac, "frac");
  put("swarm.mux.reply_cpu_frac", f.muxReplyCpuFrac, "frac");
  put("swarm.mux.fetches_per_frame", f.fetchesPerFrame, "count");
  put("swarm.mux.udp_recv_syscalls_per_report", f.udpRecvSyscallsPerReport,
      "count");
  put("swarm.late_fetch_frac", f.lateFetchFrac, "frac");
  put("swarm.allocs_per_client_tick", f.allocsPerClientTick, "count");
  put("swarm.mem_bytes_per_client", f.memBytesPerClient, "bytes");
  put("swarm.aoi_p99_periods", f.aoiP99Periods, "periods");
  put("trace_overhead_frac", f.traceOverheadFrac, "frac");
}

}  // namespace mci::e2e
