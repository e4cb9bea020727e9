// The swarm workloads: a live::Cluster and a swarm::SwarmEmulator of 50 000
// clients on one live::Reactor, driven by this file's own runOnce(-1) loop
// (the loop of Reactor::run) so every call can be timed from outside.
//
// Clients are closed-loop (one query outstanding each); the IR clock is
// open-loop in model time and never waits for them.

#include <array>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <stdexcept>
#include <string>

#include "bench_e2e.hpp"
#include "live/cluster.hpp"
#include "live/reactor.hpp"
#include "swarm/engine.hpp"

namespace mci::e2e {
namespace {

struct SwarmSpec {
  schemes::SchemeKind scheme = schemes::SchemeKind::kAaw;
  std::uint32_t shards = 1;
  std::uint32_t endpointsPerShard = 4;
  double timeScale = 60;
  double updateGap = 50;  ///< mean model seconds between update transactions
};

constexpr std::uint32_t kClients = 50000;
constexpr std::uint32_t kSmokeClients = 2000;
constexpr double kWarmupModelS = 300;
constexpr double kSmokeWarmupModelS = 30;
constexpr double kSmokeHorizonModelS = 120;
constexpr double kConnectStallS = 60;
constexpr int kSetups = 5;
constexpr double kProbeSimTime = 20000;
constexpr double kSmokeProbeSimTime = 2000;
/// Traced runs alternate windows of this many wall seconds with and
/// without spans; the pair prices the tracing (trace_overhead_frac).
constexpr double kOverheadWindowS = 1.0;

SwarmSpec specFor(const std::string& workload) {
  if (workload == "swarm-readmostly") {
    // x60 keeps the reactor about half busy. At x90 a slow phase of the
    // host pushed IR lag past the period and ticks were skipped.
    return SwarmSpec{schemes::SchemeKind::kAaw, 1, 4, 60, 50};
  }
  if (workload == "swarm-writeheavy") {
    // 100x the update rate, the other adaptive scheme, and the only
    // multi-shard layout; still 4 TCP connections in all. At x60 one
    // seed's hit ratio swung by a third from run to run; at x30 it
    // repeats.
    return SwarmSpec{schemes::SchemeKind::kAfw, 2, 2, 30, 0.5};
  }
  throw std::invalid_argument("unknown workload " + workload);
}

core::SimConfig modelFor(const SwarmSpec& spec, std::uint64_t seed,
                         std::uint32_t clients) {
  core::SimConfig cfg;
  cfg.scheme = spec.scheme;
  cfg.numClients = clients;
  cfg.dbSize = 1000;
  cfg.workload = core::WorkloadKind::kHotCold;
  cfg.clientBufferFrac = 0.1;
  cfg.broadcastPeriod = 10;
  cfg.meanUpdateInterarrival = spec.updateGap;
  cfg.meanThinkTime = 30;
  cfg.meanItemsPerQuery = 4;
  cfg.disconnectProb = 0.1;
  cfg.meanDisconnectTime = 40;
  cfg.windowIntervals = 10;
  cfg.seed = seed;
  cfg.auditStaleReads = false;  // count stale reads instead of aborting
  return cfg;
}

live::ClusterOptions clusterOptions(const core::SimConfig& model,
                                    const SwarmSpec& spec) {
  live::ClusterOptions co;
  co.cfg = model;
  co.timeScale = spec.timeScale;
  co.shardCount = spec.shards;
  // The population's cold-start miss burst funnels through a few
  // endpoints; a dropped reply frame would desync the mux's FIFO reply
  // correlation, so the queue cap must absorb the burst (as in mci_swarm).
  co.maxSendQueueBytes = std::size_t{256} << 20;
  return co;
}

swarm::SwarmOptions swarmOptions(const core::SimConfig& model,
                                 const SwarmSpec& spec,
                                 const live::Cluster& cluster,
                                 bool probeAllocs) {
  swarm::SwarmOptions so;
  so.cfg = model;
  so.port = cluster.seedPort();
  so.clients = static_cast<std::uint32_t>(model.numClients);
  so.endpointsPerShard = spec.endpointsPerShard;
  so.auditDbs = cluster.auditDbs();
  if (probeAllocs) so.allocProbe = &allocationCount;
  return so;
}

/// Cluster and emulator on one reactor. Declaration order makes the
/// emulator, whose mux holds reactor registrations, die first.
struct Session {
  Session(const core::SimConfig& model, const SwarmSpec& spec,
          bool probeAllocs)
      : cluster(reactor, clusterOptions(model, spec)),
        emulator(reactor, swarmOptions(model, spec, cluster, probeAllocs)) {}

  live::Reactor reactor;
  live::Cluster cluster;
  swarm::SwarmEmulator emulator;
};

/// The layer counters a runOnce span is named and attributed by.
struct Counters {
  std::uint64_t broadcasts = 0;   ///< server reportsBroadcast
  std::uint64_t queryFrames = 0;  ///< server queryRequests
  std::uint64_t dataItems = 0;    ///< mux dataItems
  std::uint64_t reports = 0;      ///< swarm reportsProcessed
  std::uint64_t clientTicks = 0;  ///< swarm clientTicks
};

Counters readCounters(const Session& s) {
  Counters c;
  for (std::uint32_t i = 0; i < s.cluster.shardCount(); ++i) {
    c.broadcasts += s.cluster.server(i).stats().reportsBroadcast;
    c.queryFrames += s.cluster.server(i).stats().queryRequests;
  }
  c.dataItems = s.emulator.mux().stats().dataItems;
  c.reports = s.emulator.stats().reportsProcessed;
  c.clientTicks = s.emulator.stats().clientTicks;
  return c;
}

enum Layer { kServerTick, kServerQuery, kMuxReply, kSwarmTick, kLayers };
constexpr std::array<const char*, kLayers> kLayerNames = {
    "server.tick", "server.query", "mux.reply", "swarm.tick"};

/// Bit i set = layer i's counter moved between the two snapshots.
unsigned movedMask(const Counters& a, const Counters& b) {
  return (b.broadcasts > a.broadcasts ? 1u << kServerTick : 0u) |
         (b.queryFrames > a.queryFrames ? 1u << kServerQuery : 0u) |
         (b.dataItems > a.dataItems ? 1u << kMuxReply : 0u) |
         (b.reports > a.reports ? 1u << kSwarmTick : 0u);
}

/// Span names: the layers whose counters moved, joined by '+'.
const char* spanName(unsigned mask) {
  static const std::array<std::string, 1u << kLayers> names = [] {
    std::array<std::string, 1u << kLayers> n;
    n[0] = "reactor.idle";
    for (unsigned m = 1; m < n.size(); ++m) {
      for (int l = 0; l < kLayers; ++l) {
        if ((m >> l & 1u) == 0) continue;
        if (!n[m].empty()) n[m] += "+";
        n[m] += kLayerNames[l];
      }
    }
    return n;
  }();
  return names[mask].c_str();
}

/// The outside-in CPU ledger of the measured, traced windows. A layer's
/// unit cost comes from the runOnce spans in which only that layer's
/// counter moved: their CPU over their units (a ratio of sums, not a
/// median of ratios, because query frames carry anywhere from one to
/// thousands of items and the median frame misstates their total). Unit
/// cost times the layer's exact count is its CPU; what the layers do not
/// cover is unattributed.
class Ledger {
 public:
  void add(const Counters& a, const Counters& b, std::uint64_t cpuNs) {
    const std::array<std::uint64_t, kLayers> units = {
        b.broadcasts - a.broadcasts, b.queryFrames - a.queryFrames,
        b.dataItems - a.dataItems, b.clientTicks - a.clientTicks};
    totalNs_ += static_cast<double>(cpuNs);
    for (int l = 0; l < kLayers; ++l) counts_[l] += units[l];
    const unsigned mask = movedMask(a, b);
    for (int l = 0; l < kLayers; ++l) {
      if (mask == (1u << l) && units[l] > 0) {
        soloNs_[l] += static_cast<double>(cpuNs);
        soloUnits_[l] += units[l];
        ++soloSpans_[l];
      }
    }
  }

  [[nodiscard]] double unitNs(int l) const {
    return soloUnits_[l] == 0
               ? 0.0
               : soloNs_[l] / static_cast<double>(soloUnits_[l]);
  }
  [[nodiscard]] double share(int l) const {
    return totalNs_ <= 0
               ? 0.0
               : unitNs(l) * static_cast<double>(counts_[l]) / totalNs_;
  }
  [[nodiscard]] double unattributed() const {
    double covered = 0;
    for (int l = 0; l < kLayers; ++l) covered += share(l);
    return 1.0 - covered;
  }

  [[nodiscard]] bool writeJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traced_cpu_s\": %.6f, \"layers\": {", totalNs_ * 1e-9);
    for (int l = 0; l < kLayers; ++l) {
      std::fprintf(f,
                   "%s\"%s\": {\"unit_cpu_ns\": %.1f, \"count\": %llu, "
                   "\"spans\": %zu, \"cpu_frac\": %.4f}",
                   l == 0 ? "" : ", ", kLayerNames[l], unitNs(l),
                   static_cast<unsigned long long>(counts_[l]), soloSpans_[l],
                   share(l));
    }
    std::fprintf(f, "}, \"unattributed_cpu_frac\": %.4f}\n", unattributed());
    return std::fclose(f) == 0;
  }

 private:
  std::array<double, kLayers> soloNs_{};
  std::array<std::uint64_t, kLayers> soloUnits_{};
  std::array<std::size_t, kLayers> soloSpans_{};
  std::array<std::uint64_t, kLayers> counts_{};
  double totalNs_ = 0;
};

/// Follows every IR datagram from the shard that sent it to the client
/// sweep that applied it. Each broadcast is stamped with its L-grid slot on
/// the sending shard's own clock (per-shard phase). The swarm has one
/// downlink socket per shard on loopback, so datagrams are heard in send
/// order and a FIFO pairs each one with its broadcast.
class IrTracker {
 public:
  IrTracker(const Session& s, double periodS, double timeScale)
      : sent_(s.cluster.shardCount(), 0),
        slot_(s.cluster.shardCount(), 0),
        skipped_(s.cluster.shardCount(), 0),
        periodMs_(static_cast<std::uint64_t>(periodS * 1000.0)),
        timeScale_(timeScale) {}

  /// Call after every runOnce. Lag samples are kept while `measuring`;
  /// `capture`, when given, receives every new IR payload.
  void poll(const Session& s, bool measuring,
            std::vector<std::vector<std::uint8_t>>* capture) {
    for (std::uint32_t i = 0; i < sent_.size(); ++i) {
      const live::BroadcastServer& server = s.cluster.server(i);
      const std::uint64_t sent = server.stats().udpDatagramsSent;
      if (sent == sent_[i]) continue;
      // The timer fires at most once per poll, so the current slot is the
      // one that just went out.
      const std::uint64_t slot = server.clock().nowTick() / periodMs_;
      for (; sent_[i] < sent; ++sent_[i]) fifo_.push_back(Pending{i, slot});
      slot_[i] = slot;
      const std::uint64_t broadcast = server.stats().reportsBroadcast;
      skipped_[i] = slot > broadcast ? slot - broadcast : 0;
      if (capture != nullptr) capture->push_back(server.lastReportPayload());
    }
    const swarm::MuxStats& mux = s.emulator.mux().stats();
    const std::uint64_t heard = mux.reportsHeard + mux.ignoredFrames;
    for (; heard_ < heard && !fifo_.empty(); ++heard_) {
      const Pending p = fifo_.front();
      fifo_.pop_front();
      if (!measuring) continue;
      const std::uint64_t now = s.cluster.server(p.shard).clock().nowTick();
      lagMs_.push_back(static_cast<double>(now - p.slot * periodMs_) /
                       timeScale_);
    }
    unmatched_ += heard - heard_;
    heard_ = heard;
  }

  [[nodiscard]] const std::vector<double>& lagMs() const { return lagMs_; }
  [[nodiscard]] std::uint64_t lastSlot() const { return slot_.front(); }
  [[nodiscard]] std::uint64_t scheduled() const { return sum(slot_); }
  [[nodiscard]] std::uint64_t skipped() const { return sum(skipped_); }
  /// Datagrams heard that no send accounts for.
  [[nodiscard]] std::uint64_t unmatched() const { return unmatched_; }
  /// Datagrams sent and not heard, beyond one in flight per shard.
  [[nodiscard]] std::uint64_t unheard() const {
    return fifo_.size() > sent_.size() ? fifo_.size() - sent_.size() : 0;
  }

 private:
  struct Pending {
    std::uint32_t shard = 0;
    std::uint64_t slot = 0;
  };

  static std::uint64_t sum(const std::vector<std::uint64_t>& v) {
    std::uint64_t n = 0;
    for (const std::uint64_t x : v) n += x;
    return n;
  }

  std::vector<std::uint64_t> sent_;
  std::vector<std::uint64_t> slot_;
  std::vector<std::uint64_t> skipped_;
  std::deque<Pending> fifo_;
  std::uint64_t heard_ = 0;
  std::uint64_t unmatched_ = 0;
  std::uint64_t periodMs_;
  double timeScale_;
  std::vector<double> lagMs_;
};

/// Counter totals at the two edges of the measured phase.
struct Mark {
  double wall = 0;
  ProcCpu cpu;
  std::uint64_t modelTick = 0;  ///< shard 0's clock
  swarm::SwarmStats swarm;
  swarm::MuxStats mux;
  std::uint64_t udpSendSyscalls = 0;
  std::uint64_t broadcasts = 0;
};

Mark mark(const Session& s) {
  Mark m;
  m.wall = wallNow();
  m.cpu = processCpu();
  m.modelTick = s.cluster.server(0).clock().nowTick();
  m.swarm = s.emulator.stats();
  m.mux = s.emulator.mux().stats();
  for (std::uint32_t i = 0; i < s.cluster.shardCount(); ++i) {
    m.udpSendSyscalls += s.cluster.server(i).stats().udpSendSyscalls;
    m.broadcasts += s.cluster.server(i).stats().reportsBroadcast;
  }
  return m;
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// How much counter `a` moved per unit counter `b` moved, between the
/// snapshots 0 and 1.
double perUnit(std::uint64_t a0, std::uint64_t a1, std::uint64_t b0,
               std::uint64_t b1) {
  return ratio(static_cast<double>(a1 - a0), static_cast<double>(b1 - b0));
}

}  // namespace

Outcome runSwarmWorkload(const Options& opts, SpanLog& spans) {
  Outcome out;
  const SwarmSpec spec = specFor(opts.workload);
  const core::SimConfig model =
      modelFor(spec, opts.seed, opts.smoke ? kSmokeClients : kClients);
  const double warmupModelS = opts.smoke ? kSmokeWarmupModelS : kWarmupModelS;

  // Set-up: cluster, the swarm's state, every endpoint connected and
  // welcomed. Done kSetups times; the last session is the measured one.
  std::vector<double> setups;
  std::unique_ptr<Session> session;
  std::unique_ptr<IrTracker> tracker;
  for (int i = 0; i < kSetups; ++i) {
    tracker.reset();
    session.reset();
    const double wall0 = wallNow();
    const std::uint64_t cpu0 = threadCpuNs();
    session = std::make_unique<Session>(model, spec, opts.traced());
    tracker = std::make_unique<IrTracker>(*session, model.broadcastPeriod,
                                          spec.timeScale);
    session->emulator.start();
    while (!session->emulator.ready()) {
      if (wallNow() - wall0 > kConnectStallS) {
        out.fail(1, "swarm never connected (stall guard)");
        return out;
      }
      session->reactor.runOnce(-1);
      tracker->poll(*session, false, nullptr);
    }
    setups.push_back(wallNow() - wall0);
    spans.add(Span{"setup.session", Phase::kSetup, 0, wall0, wallNow(),
                   threadCpuNs() - cpu0, false});
    if (i + 1 < kSetups) session->emulator.shutdown();
  }
  Session& s = *session;

  Ledger ledger;
  std::vector<std::vector<std::uint8_t>> captured;
  // Overhead windows: [0] untraced, [1] traced; CPU seconds, model ticks.
  std::array<double, 2> windowCpu{};
  std::array<double, 2> windowModel{};
  Mark begin;
  Mark windowStart;
  bool measuring = false;
  const double warmupDeadline = wallNow() + warmupModelS / spec.timeScale +
                                kConnectStallS;
  for (;;) {
    const bool tracedWindow =
        opts.traced() &&
        (!measuring ||
         static_cast<long>((wallNow() - begin.wall) / kOverheadWindowS) % 2 ==
             1);
    Counters before;
    double wall0 = 0;
    std::uint64_t cpu0 = 0;
    if (tracedWindow) {
      before = readCounters(s);
      wall0 = wallNow();
      cpu0 = threadCpuNs();
    }
    s.reactor.runOnce(-1);
    if (tracedWindow) {
      const std::uint64_t cpu = threadCpuNs() - cpu0;
      const Counters after = readCounters(s);
      spans.add(Span{spanName(movedMask(before, after)),
                     measuring ? Phase::kMeasure : Phase::kWarmup,
                     tracker->lastSlot(), wall0, wallNow(), cpu, false});
      if (measuring) ledger.add(before, after, cpu);
    }
    tracker->poll(s, measuring,
                  tracedWindow && measuring ? &captured : nullptr);

    const double now = wallNow();
    if (!measuring) {
      if (s.emulator.modelNow() >= warmupModelS) {
        measuring = true;
        begin = mark(s);
        windowStart = begin;
      } else if (now > warmupDeadline) {
        out.fail(1, "model clock stalled during warm-up");
        return out;
      }
      continue;
    }
    const bool done = opts.smoke ? s.emulator.modelNow() >= kSmokeHorizonModelS
                                 : now - begin.wall >= opts.seconds;
    const auto window = [&](double t) {
      return static_cast<long>((t - begin.wall) / kOverheadWindowS);
    };
    if (opts.traced() && (done || window(now) != window(windowStart.wall))) {
      const Mark m = mark(s);
      const int w = static_cast<int>(window(windowStart.wall) % 2);
      windowCpu[w] += m.cpu.total() - windowStart.cpu.total();
      windowModel[w] +=
          static_cast<double>(m.modelTick - windowStart.modelTick);
      windowStart = m;
    }
    if (done) break;
  }
  const Mark end = mark(s);
  s.emulator.shutdown();

  // --- correctness ---
  const swarm::SwarmStats& st = end.swarm;
  const swarm::MuxStats& mux = end.mux;
  std::uint64_t framesDropped = 0;
  std::uint64_t udpFailures = 0;
  std::uint64_t serverBad = 0;
  for (std::uint32_t i = 0; i < s.cluster.shardCount(); ++i) {
    const live::ServerStats& ss = s.cluster.server(i).stats();
    framesDropped += ss.framesDropped;
    udpFailures += ss.udpSendFailures;
    serverBad += ss.badFrames + ss.misroutedItems;
  }
  out.attempted = st.queriesCompleted + mux.fetchesSent + tracker->scheduled();
  out.fail(st.staleReads, "swarm stale reads");
  out.fail(s.cluster.staleReads(), "cluster stale reads");
  out.fail(mux.connectionsLost, "lost connections");
  out.fail(framesDropped, "server dropped frames");
  out.fail(udpFailures, "failed IR sends");
  out.fail(mux.badFrames + serverBad + st.unsupportedReports, "bad frames");
  out.fail(tracker->skipped(), "scheduled IR ticks never sent");
  out.fail(tracker->unheard() + tracker->unmatched(), "IR datagrams lost");
  if (st.queriesCompleted == 0 || st.reportsProcessed == 0) {
    out.fail(1, "no queries or reports processed");
  }

  // --- end to end ---
  const double cpu = end.cpu.total() - begin.cpu.total();
  const double wall = end.wall - begin.wall;
  const double modelS =
      static_cast<double>(end.modelTick - begin.modelTick) * 1e-3;
  const std::uint64_t hits = st.cacheHits - begin.swarm.cacheHits;
  const std::uint64_t misses = st.cacheMisses - begin.swarm.cacheMisses;
  const auto put = [&out](const char* name, double value, const char* unit) {
    out.endToEnd.push_back(Metric{name, value, unit});
  };
  put("setup_s", quantile(setups, 0.5), "s");
  put("peak_rss_mb", peakRssMb(), "MB");
  put("model_s_per_cpu_s",
      opts.traced() ? ratio(windowModel[0] * 1e-3, windowCpu[0])
                    : ratio(modelS, cpu),
      "model_s/cpu_s");
  put("lag_p50_ms", quantile(tracker->lagMs(), 0.5), "ms");
  put("lag_p90_ms", quantile(tracker->lagMs(), 0.9), "ms");
  put("query_p50_ms",
      static_cast<double>(s.emulator.latencyHistMs().pct(50)), "ms");
  put("hit_ratio", ratio(static_cast<double>(hits),
                         static_cast<double>(hits + misses)), "ratio");

  if (!opts.traced()) return out;

  // --- per layer ---
  LayerFigures layers;
  layers.busyFrac = cpu / wall;
  layers.sysFrac = ratio(end.cpu.sys - begin.cpu.sys, cpu);
  layers.workerIdleFrac = 1.0 - layers.busyFrac;  // one reactor thread
  layers.serverIrTickCpuFrac = ledger.share(kServerTick);
  layers.serverQueryCpuFrac = ledger.share(kServerQuery);
  layers.muxReplyCpuFrac = ledger.share(kMuxReply);
  layers.swarmTickCpuFrac = ledger.share(kSwarmTick);
  layers.unattributedCpuFrac = ledger.unattributed();
  const swarm::MuxStats& mux0 = begin.mux;
  layers.udpSyscallsPerTick = perUnit(begin.udpSendSyscalls,
                                      end.udpSendSyscalls, begin.broadcasts,
                                      end.broadcasts);
  layers.fetchesPerFrame = perUnit(mux0.fetchesSent, mux.fetchesSent,
                                   mux0.queryFramesSent, mux.queryFramesSent);
  layers.udpRecvSyscallsPerReport =
      perUnit(mux0.udpRecvSyscalls, mux.udpRecvSyscalls, mux0.reportsHeard,
              mux.reportsHeard);
  layers.lateFetchFrac =
      perUnit(begin.swarm.lateFetchesDropped, st.lateFetchesDropped,
              mux0.dataItems, mux.dataItems);
  layers.allocsPerClientTick = perUnit(mux0.hotAllocs, mux.hotAllocs,
                                       begin.swarm.clientTicks, st.clientTicks);
  layers.memBytesPerClient =
      ratio(static_cast<double>(s.emulator.memoryBytes()),
            static_cast<double>(model.numClients));
  const double periodMs = model.broadcastPeriod * 1000.0;
  layers.aoiP99Periods =
      static_cast<double>(s.emulator.aoiHistMs().pct(99)) / periodMs;
  layers.traceOverheadFrac = ratio(windowCpu[1], windowModel[1]) /
                                 ratio(windowCpu[0], windowModel[0]) -
                             1.0;

  // The IRs captured in traced windows: decode cost, size, and how late
  // each broadcast stamp fell behind its grid slot.
  const std::vector<std::uint64_t> ticks =
      addCodecMetrics(model, captured, spans, out);
  std::vector<double> late;
  for (const std::uint64_t t : ticks) {
    late.push_back(std::fmod(static_cast<double>(t), periodMs) / periodMs);
  }
  layers.irTimerLateP90Frac = quantile(late, 0.9);
  addLayerMetrics(layers, out);

  if (!ledger.writeJson(opts.traceDir + "/ledger.json")) {
    std::fprintf(stderr, "bench_e2e: cannot write %s/ledger.json\n",
                 opts.traceDir.c_str());
  }
  core::SimConfig twin = modelFor(spec, opts.seed, 100);
  twin.simTime = opts.smoke ? kSmokeProbeSimTime : kProbeSimTime;
  (void)runKernelProbe(twin, spans, out);
  return out;
}

}  // namespace mci::e2e
