// mci_swarm: the swarm emulator harness. Emulates 10^5..10^6 mobile
// clients from one process — struct-of-arrays state, one shared IR decode
// per shard per tick, a small pool of multiplexed endpoints — against an
// in-process broadcast cluster, and (optionally) runs an equivalent-seed
// live::ClientPool over the same configuration so the two hit ratios can
// be gated against each other (the swarm's fidelity check).
//
//   ./mci_swarm --swarm-clients 100000 --scheme AAW --simtime 120
//       --timescale 60 --json swarm.json
//
// Emits one "mci-bench-live-v1" JSON document (tools/bench_report.py
// merges it into the live perf report and gates hit_ratio_parity and
// allocs_per_client_tick). Exits 0 iff the run was sound: every endpoint
// welcomed, reports heard, zero stale reads, no connection lost.
//
// Key flags (runner::Cli syntax, --key value):
//   --swarm-clients N   emulated population (default 100000)
//   --endpoints E       TCP endpoints per shard (default 4)
//   --shards K          in-process cluster size (default 1)
//   --scheme AFW|AAW    server scheme (adaptive only; default AAW)
//   --simtime S         model seconds for the swarm phase (default 600)
//   --timescale X       model seconds per wall second (default 60)
//   --dbsize N, --period L, --update-gap G, --think T, --query-items Q,
//   --disc-prob P, --disc-time D, --window W, --bufferfrac F, --seed S
//                       model knobs (the parity gate needs enough expected
//                       hits on the 8-agent pool side — keep Q and the
//                       horizon big enough that the ratio concentrates)
//   --hotcold           HOTCOLD query workload (default UNIFORM)
//   --zipf-theta T      Zipf(theta) query popularity (disables parity)
//   --parity-agents N   ClientPool size for the parity phase (default 8;
//                       0 skips the phase)
//   --parity-simtime S  pool-phase model seconds (default: simtime — the
//                       comparison is only fair at equal cache warmth)
//   --json PATH         write the JSON document here (default: stdout)
//   --reshard           grow the live cluster mid-run (epoch switch): at
//                       --reshard-at (default 0.4) of simtime the cluster
//                       adds --reshard-grow shards (default 2) while the
//                       swarm keeps querying. The parity pool still runs
//                       at the ORIGINAL shard count — it is the no-reshard
//                       control the post-switch hit ratio is gated
//                       against. The row is named "swarm-reshard/<N>" and
//                       soundness additionally requires the epoch switch
//                       to have been heard and completed.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "live/client_agent.hpp"
#include "live/cluster.hpp"
#include "live/reactor.hpp"
#include "metrics/walltime.hpp"
#include "runner/cli.hpp"
#include "schemes/factory.hpp"
#include "swarm/engine.hpp"

namespace {
std::atomic<std::uint64_t> gAllocCount{0};
}  // namespace

// Counting allocator (same construction as bench_live.cpp): the steady
// state of the swarm tick loop is gated at ~zero allocations per
// client-tick, measured between the warmup mark and shutdown.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  gAllocCount.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace {

using namespace mci;

std::uint64_t allocsNow() {
  return gAllocCount.load(std::memory_order_relaxed);
}

struct BenchRow {
  std::string name;
  std::vector<std::pair<std::string, double>> metrics;
};

void writeJson(std::FILE* out, const std::vector<BenchRow>& rows) {
  std::fprintf(out, "{\n  \"schema\": \"mci-bench-live-v1\",\n");
  std::fprintf(out, "  \"benches\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(out, "    {\"name\": \"%s\"", rows[i].name.c_str());
    for (const auto& [key, value] : rows[i].metrics) {
      std::fprintf(out, ", \"%s\": %.6g", key.c_str(), value);
    }
    std::fprintf(out, "}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
}

struct ReshardPlan {
  bool enabled = false;
  std::uint32_t growBy = 2;
  double atFrac = 0.4;    ///< of simTime; the grow is kicked off here
  double tailFrac = 0.5;  ///< hit-ratio tail window starts here (post-switch)
};

struct SwarmPhaseResult {
  swarm::SwarmStats stats;
  swarm::MuxStats mux;
  metrics::Hist aoiMs;
  metrics::Hist latencyMs;
  double wallSeconds = 0;
  double allocsPerClientTick = 0;
  double meanOccupancy = 0;
  std::size_t memoryBytes = 0;
  std::uint32_t shardsFinal = 0;
  /// Update items the cluster applied per model second heard: the update
  /// stream the hit ratio is measured against.
  double updatesPerModelS = 0;
  /// Hit ratio over [tailFrac * simTime, simTime) — on a reshard run this
  /// window opens after the epoch switch, so it is the post-switch figure
  /// the acceptance gate compares against a control run's same window.
  double tailHitRatio = -1.0;
  bool sound = false;
};

/// The swarm phase: cluster + emulator on one reactor until `simTime`
/// model seconds elapse on the report stream.
SwarmPhaseResult runSwarm(const core::SimConfig& cfg, double timeScale,
                          std::uint32_t shards,
                          const swarm::SwarmOptions& swarmTemplate,
                          const ReshardPlan& plan) {
  live::Reactor reactor;
  live::ClusterOptions co;
  co.cfg = cfg;
  co.timeScale = timeScale;
  co.shardCount = shards;
  // The whole population's cold-start miss burst funnels through E
  // endpoints per shard; a dropped DataItem frame would desync the mux's
  // FIFO reply correlation, so the reply queue cap must absorb the burst.
  co.maxSendQueueBytes = std::size_t{256} << 20;
  live::Cluster cluster(reactor, co);

  swarm::SwarmOptions so = swarmTemplate;
  so.cfg = cfg;
  so.port = cluster.seedPort();
  if (plan.enabled) {
    // A reshard adds shards the startup snapshot cannot know; resolve the
    // audit database against the live cluster at answer time instead.
    so.auditDbResolver = [&cluster](std::uint32_t s) -> const db::Database* {
      return s < cluster.shardCount() ? &cluster.server(s).database()
                                      : nullptr;
    };
  } else {
    so.auditDbs = cluster.auditDbs();
  }
  // The server shares this process's heap, so the gate samples the global
  // counter around swarm callbacks only (MuxStats::hotAllocs), not across
  // wall time.
  so.allocProbe = &allocsNow;
  swarm::SwarmEmulator em(reactor, std::move(so));
  em.start();

  metrics::WallTimer timer;
  // The tick's marks: one struct, so the tick's captures fit a timer.
  struct Progress {
    std::uint64_t warmAllocs = 0;
    std::uint64_t warmTicks = 0;
    bool warmMarked = false;
    bool timedOut = false;
    bool growStarted = false;
    bool growDone = false;
    bool tailMarked = false;
    std::uint64_t tailHits = 0;
    std::uint64_t tailMisses = 0;
  } p;
  const live::Reactor::TimerHandle tick = reactor.addTimer(0.02, 0.02, [&] {
    if (!em.ready()) {
      if (timer.seconds() > 60.0) {  // connect stall guard
        p.timedOut = true;
        reactor.stop();
      }
      return;
    }
    if (!p.warmMarked && em.modelNow() >= cfg.simTime * 0.25) {
      p.warmMarked = true;
      p.warmAllocs = em.mux().stats().hotAllocs;
      p.warmTicks = em.stats().clientTicks;
    }
    if (plan.enabled && !p.growStarted &&
        em.modelNow() >= cfg.simTime * plan.atFrac) {
      p.growStarted = true;
      cluster.grow(plan.growBy, [&cluster, &p] {
        p.growDone = true;
        std::fprintf(stderr, "mci_swarm: reshard done — epoch=%u shards=%u\n",
                     cluster.epoch(), cluster.shardCount());
      });
    }
    if (!p.tailMarked && em.modelNow() >= cfg.simTime * plan.tailFrac) {
      p.tailMarked = true;
      p.tailHits = em.stats().cacheHits;
      p.tailMisses = em.stats().cacheMisses;
    }
    if (em.modelNow() >= cfg.simTime) {
      em.shutdown();
      reactor.stop();
    }
  });
  reactor.run();
  (void)reactor.cancelTimer(tick);
  const std::uint64_t steadyAllocsEnd = em.mux().stats().hotAllocs;

  SwarmPhaseResult r;
  std::uint64_t occ = 0;
  for (const auto o : em.state().occupancy) occ += o;
  r.meanOccupancy = static_cast<double>(occ) / em.state().clients;
  r.stats = em.stats();
  r.mux = em.mux().stats();
  r.aoiMs = em.aoiHistMs();
  r.latencyMs = em.latencyHistMs();
  r.wallSeconds = timer.seconds();
  r.memoryBytes = em.memoryBytes();
  r.shardsFinal = cluster.shardCount();
  if (em.modelNow() > 0) {
    r.updatesPerModelS =
        static_cast<double>(cluster.totalStats().updatesApplied) /
        em.modelNow();
  }
  if (p.tailMarked) {
    const std::uint64_t th = r.stats.cacheHits - p.tailHits;
    const std::uint64_t tm = r.stats.cacheMisses - p.tailMisses;
    if (th + tm > 0) {
      r.tailHitRatio = static_cast<double>(th) / static_cast<double>(th + tm);
    }
  }
  const std::uint64_t steadyTicks = r.stats.clientTicks - p.warmTicks;
  r.allocsPerClientTick =
      !p.warmMarked || steadyTicks == 0
          ? -1.0
          : static_cast<double>(steadyAllocsEnd - p.warmAllocs) /
                static_cast<double>(steadyTicks);
  r.sound = !p.timedOut && em.ready() && !em.mux().anyConnectionLost() &&
            r.stats.reportsProcessed > 0 && r.stats.queriesCompleted > 0 &&
            r.stats.staleReads == 0 && cluster.staleReads() == 0;
  if (plan.enabled) {
    // The transition itself is part of the soundness claim: the grow must
    // have started, completed on the cluster, and been applied by the mux.
    r.sound =
        r.sound && p.growStarted && p.growDone && r.mux.epochSwitches >= 1;
  }
  if (!r.sound) {
    std::fprintf(
        stderr,
        "mci_swarm: swarm phase unsound (timeout=%d ready=%d lost=%llu "
        "reports=%llu queries=%llu stale=%llu/%llu grow=%d/%d switches=%llu)\n",
        p.timedOut ? 1 : 0, em.ready() ? 1 : 0,
        static_cast<unsigned long long>(em.mux().stats().connectionsLost),
        static_cast<unsigned long long>(r.stats.reportsProcessed),
        static_cast<unsigned long long>(r.stats.queriesCompleted),
        static_cast<unsigned long long>(r.stats.staleReads),
        static_cast<unsigned long long>(cluster.staleReads()),
        p.growStarted ? 1 : 0, p.growDone ? 1 : 0,
        static_cast<unsigned long long>(r.mux.epochSwitches));
  }
  return r;
}

struct PoolPhaseResult {
  double hitRatio = 0;
  std::uint64_t queries = 0;
  bool sound = false;
};

/// The parity phase: a real ClientPool over an identical fresh cluster
/// (same config and seed), whose per-agent model is the reference the
/// swarm's vectorized model is gated against.
PoolPhaseResult runPool(core::SimConfig cfg, double timeScale,
                        std::uint32_t shards, std::size_t agents) {
  live::Reactor reactor;
  live::ClusterOptions co;
  co.cfg = cfg;
  co.timeScale = timeScale;
  co.shardCount = shards;
  live::Cluster cluster(reactor, co);

  live::AgentOptions ao;
  ao.cfg = cfg;
  ao.port = cluster.seedPort();
  ao.numAgents = agents;
  ao.auditDbs = cluster.auditDbs();
  live::ClientPool pool(reactor, ao);
  pool.start();

  metrics::WallTimer timer;
  bool timedOut = false;
  const live::Reactor::TimerHandle tick = reactor.addTimer(0.02, 0.02, [&] {
    if (pool.welcomedCount() < agents && timer.seconds() > 60.0) {
      timedOut = true;
      reactor.stop();
      return;
    }
    if (pool.modelNow() >= cfg.simTime) {
      pool.shutdown();
      reactor.stop();
    }
  });
  reactor.run();
  (void)reactor.cancelTimer(tick);

  PoolPhaseResult r;
  const metrics::SimResult res = pool.finalize();
  r.hitRatio = res.hitRatio();
  r.queries = pool.queriesCompleted();
  r.sound = !timedOut && pool.welcomedCount() == agents &&
            pool.staleReads() == 0 && cluster.staleReads() == 0 &&
            r.queries > 0;
  if (!r.sound) {
    std::fprintf(stderr,
                 "mci_swarm: parity pool phase unsound (timeout=%d "
                 "welcomed=%zu queries=%llu stale=%llu)\n",
                 timedOut ? 1 : 0, pool.welcomedCount(),
                 static_cast<unsigned long long>(r.queries),
                 static_cast<unsigned long long>(pool.staleReads()));
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mci;
  runner::Cli cli(argc, argv);

  core::SimConfig cfg;
  cfg.scheme = schemes::SchemeKind::kAaw;
  if (auto kind = cli.getScheme("scheme", cfg.scheme)) {
    cfg.scheme = *kind;
  } else {
    return 2;
  }
  if (cfg.scheme != schemes::SchemeKind::kAfw &&
      cfg.scheme != schemes::SchemeKind::kAaw) {
    std::fprintf(stderr,
                 "mci_swarm: --scheme must be AFW or AAW (the swarm "
                 "emulator implements only the adaptive client model)\n");
    return 2;
  }

  const auto clients =
      static_cast<std::uint32_t>(cli.getInt("swarm-clients", 100000));
  const auto endpoints = static_cast<std::uint32_t>(cli.getInt("endpoints", 4));
  const auto shards = static_cast<std::uint32_t>(cli.getInt("shards", 1));
  const double timeScale = cli.getDouble("timescale", 60.0);
  cfg.simTime = cli.getDouble("simtime", 600.0);
  cfg.numClients = clients;
  cfg.dbSize = static_cast<std::size_t>(cli.getInt("dbsize", 2000));
  cfg.clientBufferFrac = cli.getDouble("bufferfrac", 0.02);
  cfg.broadcastPeriod = cli.getDouble("period", 10.0);
  cfg.meanUpdateInterarrival = cli.getDouble("update-gap", 50.0);
  cfg.meanThinkTime = cli.getDouble("think", 30.0);
  cfg.meanItemsPerQuery = cli.getDouble("query-items", 4.0);
  cfg.disconnectProb = cli.getDouble("disc-prob", 0.1);
  cfg.meanDisconnectTime = cli.getDouble("disc-time", 40.0);
  cfg.windowIntervals = static_cast<int>(cli.getInt("window", 10));
  cfg.seed = static_cast<std::uint64_t>(cli.getInt("seed", 42));
  if (cli.has("hotcold")) cfg.workload = core::WorkloadKind::kHotCold;
  const double zipfTheta = cli.getDouble("zipf-theta", -1.0);
  auto parityAgents =
      static_cast<std::size_t>(cli.getInt("parity-agents", 8));
  // Hit ratio is a function of per-client cache warmth (queries completed
  // per client), so the parity pool must run the SAME model horizon as the
  // swarm — a longer pool run would warm its caches further and the
  // comparison would gate nothing.
  const double paritySimtime = cli.getDouble("parity-simtime", cfg.simTime);
  const std::string jsonPath = cli.getStr("json", "");
  ReshardPlan plan;
  plan.enabled = cli.has("reshard");
  plan.growBy = static_cast<std::uint32_t>(cli.getInt("reshard-grow", 2));
  plan.atFrac = cli.getDouble("reshard-at", 0.4);

  if (zipfTheta >= 0.0 && parityAgents > 0) {
    // The pool draws from the configured UNIFORM/HOTCOLD pattern; a Zipf
    // swarm has no equivalent-seed pool reference, so parity is undefined.
    std::fprintf(stderr,
                 "mci_swarm: --zipf-theta set, skipping the parity phase "
                 "(ClientPool has no Zipf workload)\n");
    parityAgents = 0;
  }

  swarm::SwarmOptions so;
  so.clients = clients;
  so.endpointsPerShard = endpoints;
  so.zipfTheta = zipfTheta;

  std::fprintf(stderr,
               "mci_swarm: %u clients x %u shards x %u endpoints, scheme "
               "%s, %.0f model s @ x%.0f\n",
               clients, shards, endpoints, schemes::schemeName(cfg.scheme),
               cfg.simTime, timeScale);
  const SwarmPhaseResult sw = runSwarm(cfg, timeScale, shards, so, plan);
  if (!sw.sound) return 1;

  PoolPhaseResult pool;
  if (parityAgents > 0) {
    core::SimConfig poolCfg = cfg;
    poolCfg.simTime = paritySimtime;
    std::fprintf(stderr,
                 "mci_swarm: parity pool, %zu agents, %.0f model s\n",
                 parityAgents, paritySimtime);
    pool = runPool(poolCfg, timeScale, shards, parityAgents);
    if (!pool.sound) return 1;
  }

  const double hitSwarm = sw.stats.hitRatio();
  const double hitPool = pool.hitRatio;
  // Symmetric ratio in (0, 1]: 1 = identical, gated with a floor so a
  // drift in either direction fails.
  const double parity =
      parityAgents == 0 || hitSwarm <= 0 || hitPool <= 0
          ? 0.0
          : std::min(hitSwarm, hitPool) / std::max(hitSwarm, hitPool);

  BenchRow row;
  row.name = (plan.enabled ? "swarm-reshard/" : "swarm/") +
             std::to_string(clients);
  auto put = [&row](const char* k, double v) {
    row.metrics.emplace_back(k, v);
  };
  put("clients", clients);
  put("shards", shards);
  if (plan.enabled) put("shards_final", sw.shardsFinal);
  put("endpoints", endpoints);
  put("queries_completed", static_cast<double>(sw.stats.queriesCompleted));
  put("hit_ratio_swarm", hitSwarm);
  put("hit_ratio_pool", hitPool);
  put("hit_ratio_parity", parity);
  put("hit_ratio_tail", sw.tailHitRatio);
  put("stale_reads", static_cast<double>(sw.stats.staleReads));
  put("unsupported_reports",
      static_cast<double>(sw.stats.unsupportedReports));
  put("reports_processed", static_cast<double>(sw.stats.reportsProcessed));
  put("client_ticks", static_cast<double>(sw.stats.clientTicks));
  put("clients_per_s", sw.wallSeconds > 0
                           ? static_cast<double>(sw.stats.clientTicks) /
                                 sw.wallSeconds
                           : 0.0);
  put("allocs_per_client_tick", sw.allocsPerClientTick);
  put("aoi_p50_ms", static_cast<double>(sw.aoiMs.pct(50)));
  put("aoi_p99_ms", static_cast<double>(sw.aoiMs.pct(99)));
  put("latency_p50_ms", static_cast<double>(sw.latencyMs.pct(50)));
  put("latency_p99_ms", static_cast<double>(sw.latencyMs.pct(99)));
  put("mem_bytes_per_client",
      static_cast<double>(sw.memoryBytes) / clients);
  put("mean_occupancy", sw.meanOccupancy);
  put("dozes", static_cast<double>(sw.stats.dozes));
  put("updates_per_model_s", sw.updatesPerModelS);
  // Items per kDataItem reply frame: one frame answers a whole query batch.
  const double itemsPerReplyFrame =
      sw.mux.dataItemFrames == 0
          ? 0.0
          : static_cast<double>(sw.mux.dataItems) /
                static_cast<double>(sw.mux.dataItemFrames);
  put("items_per_reply_frame", itemsPerReplyFrame);
  put("model_s_per_wall_s",
      sw.wallSeconds > 0 ? cfg.simTime / sw.wallSeconds : 0.0);
  if (plan.enabled) {
    put("epoch_switches", static_cast<double>(sw.mux.epochSwitches));
    put("map_updates_heard", static_cast<double>(sw.mux.mapUpdatesHeard));
    put("late_fetches_dropped",
        static_cast<double>(sw.stats.lateFetchesDropped));
  }

  std::FILE* out = stdout;
  if (!jsonPath.empty()) {
    out = std::fopen(jsonPath.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "mci_swarm: cannot write %s\n", jsonPath.c_str());
      return 1;
    }
  }
  writeJson(out, {row});
  if (out != stdout) std::fclose(out);

  std::fprintf(stderr,
               "mci_swarm: done — %llu queries (pool %llu), hit %.4f "
               "(pool %.4f, parity %.3f), %.2g allocs/client-tick, "
               "%.3g clients/s, %.1f items/reply frame\n",
               static_cast<unsigned long long>(sw.stats.queriesCompleted),
               static_cast<unsigned long long>(pool.queries),
               hitSwarm, hitPool, parity, sw.allocsPerClientTick,
               sw.wallSeconds > 0
                   ? static_cast<double>(sw.stats.clientTicks) / sw.wallSeconds
                   : 0.0,
               itemsPerReplyFrame);
  return 0;
}
