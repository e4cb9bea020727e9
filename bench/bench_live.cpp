// Standalone perf-regression probe for the live hot path. Emits one JSON
// document (schema "mci-bench-live-v1") with:
//
//   * encode_ts/N, encode_bs/N, encode_sig/N
//       — ReportCodec::encodeInto throughput into a reused buffer, plus an
//         in-file single-bit reference writer (the pre-word-at-a-time
//         codec) producing byte-identical frames; speedup_vs_bitloop is
//         the gated ratio and is machine-independent by construction.
//   * udp_fanout/64
//       — one IR datagram to 64 loopback sockets: sendmmsg batches vs the
//         classic sendto loop, syscalls counted per tick. syscall_reduction
//         (destinations per kernel entry) is the gated ratio.
//   * live_pool/64
//       — a real BroadcastServer + 64-agent ClientPool over loopback for
//         --simtime model seconds: IR syscalls per tick from ServerStats,
//         drain syscalls per report from PoolStats, and the p50/p99/p999
//         of live query latency from the pool's Hist.
//
// Allocations are counted by replacing the global operator new/delete;
// the encode and fan-out loops must not allocate in steady state
// (allocs_per_item_steady, gated at zero by tools/bench_report.py).
//
// Flags: --out PATH     write JSON here (default: stdout)
//        --simtime S    model seconds for the live_pool run (default 300)
//        --mintime T    min wall seconds per micro bench (default 0.5)

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "db/update_history.hpp"
#include "live/broadcast_server.hpp"
#include "live/client_agent.hpp"
#include "live/reactor.hpp"
#include "live/udp_batch.hpp"
#include "metrics/walltime.hpp"
#include "report/bs_report.hpp"
#include "report/codec.hpp"
#include "report/sig_report.hpp"
#include "report/ts_report.hpp"
#include "sim/random.hpp"

namespace {
std::atomic<std::uint64_t> gAllocCount{0};
}  // namespace

// Counting allocator, same construction as bench_main.cpp: every path
// through the global new/delete pair bumps the counter.
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
  // Metric key/value pairs, emitted verbatim into the JSON object.
  std::vector<std::pair<std::string, double>> metrics;
};

// ---------------------------------------------------------------------------
// Reference single-bit writer: the codec's serialization loop as it was
// before the word-at-a-time rewrite — one push per bit, MSB-first within
// each byte. The reference encoders below replay the exact frame layouts
// of ReportCodec (pinned byte-identical before timing), so the speedup
// ratio measures the writer, not a layout difference.
// ---------------------------------------------------------------------------

struct BitLoopWriter {
  std::vector<std::uint8_t> out;
  std::size_t bitCount = 0;

  void writeBit(std::uint64_t bit) {
    if (bitCount % 8 == 0) out.push_back(0);
    out[bitCount / 8] |=
        static_cast<std::uint8_t>((bit & 1) << (7 - bitCount % 8));
    ++bitCount;
  }
  void write(std::uint64_t value, int bits) {
    for (int b = bits - 1; b >= 0; --b) writeBit((value >> b) & 1);
  }
  void writeBitVec(const report::BitVec& bits) {
    for (std::size_t i = 0; i < bits.size(); ++i) {
      writeBit(bits.test(i) ? 1 : 0);
    }
  }
};

// Frame layout constants, mirrored from report/codec.cpp (the identity
// check aborts the bench if they ever drift).
constexpr int kKindBits = 2;
constexpr int kCountBits = 24;
constexpr int kSigCountBits = 16;
constexpr int kLevelCountBits = 6;

void refEncodeTs(const report::ReportCodec& codec, const report::SizeModel& s,
                 const report::TsReport& r, BitLoopWriter& w) {
  w.write(0, kKindBits);
  w.write(r.extended() ? 1 : 0, 1);
  w.write(codec.quantize(r.broadcastTime), s.timestampBits);
  w.write(codec.quantize(r.coverageStart()), s.timestampBits);
  w.write(r.entries().size(), kCountBits);
  for (const db::UpdateRecord& rec : r.entries()) {
    w.write(rec.item, s.itemIdBits());
    w.write(codec.quantize(rec.time), s.timestampBits);
  }
}

void refEncodeBsWire(const report::ReportCodec& codec,
                     const report::SizeModel& s, const report::BsWire& wire,
                     double broadcastTime, BitLoopWriter& w) {
  w.write(1, kKindBits);
  w.write(codec.quantize(broadcastTime), s.timestampBits);
  w.write(codec.quantize(wire.tsB0()), s.timestampBits);
  w.write(wire.levels().size(), kLevelCountBits);
  for (const report::BsWire::WireLevel& level : wire.levels()) {
    w.write(codec.quantize(level.ts), s.timestampBits);
    w.writeBitVec(level.bits);
  }
}

void refEncodeSig(const report::ReportCodec& codec, const report::SizeModel& s,
                  const report::SigReport& r, BitLoopWriter& w) {
  w.write(2, kKindBits);
  w.write(codec.quantize(r.broadcastTime), s.timestampBits);
  w.write(r.combined().size(), kSigCountBits);
  const std::uint64_t mask = s.signatureBits >= 64
                                 ? ~std::uint64_t{0}
                                 : ((std::uint64_t{1} << s.signatureBits) - 1);
  for (std::uint64_t sig : r.combined()) {
    w.write(sig & mask, s.signatureBits);
  }
}

void requireIdentical(const char* what, const std::vector<std::uint8_t>& fast,
                      const std::vector<std::uint8_t>& ref) {
  if (fast != ref) {
    std::fprintf(stderr,
                 "bench_live: %s: word-at-a-time frame differs from the "
                 "bit-loop reference (%zu vs %zu bytes) — layout drift\n",
                 what, fast.size(), ref.size());
    std::exit(1);
  }
}

/// Times `fast()` and `slow()` (each re-encoding one report into a reused
/// buffer) for `minSeconds` apiece and emits the rate + the gated ratio.
template <typename Fast, typename Slow>
BenchRow benchEncodePair(const std::string& name, std::size_t itemsPerEncode,
                         double minSeconds, Fast&& fast, Slow&& slow) {
  auto timeLoop = [&](auto&& fn) {
    fn();  // warm caches and buffer high-water marks
    std::uint64_t encodes = 0;
    metrics::WallTimer timer;
    double elapsed = 0.0;
    do {
      fn();
      ++encodes;
      elapsed = timer.seconds();
    } while (elapsed < minSeconds);
    return elapsed / static_cast<double>(encodes);  // seconds per encode
  };

  // Steady-state allocation probe on the fast path only (the reference
  // writer regrows its vector every encode by design).
  fast();
  const std::uint64_t allocsBefore = allocsNow();
  constexpr int kAllocProbeRounds = 16;
  for (int i = 0; i < kAllocProbeRounds; ++i) fast();
  const auto allocs = static_cast<double>(allocsNow() - allocsBefore);

  const double fastSec = timeLoop(fast);
  const double slowSec = timeLoop(slow);

  BenchRow row;
  row.name = name;
  row.metrics.emplace_back(
      "items_per_s", static_cast<double>(itemsPerEncode) / fastSec);
  row.metrics.emplace_back("ns_per_encode", fastSec * 1e9);
  row.metrics.emplace_back("speedup_vs_bitloop", slowSec / fastSec);
  row.metrics.emplace_back(
      "allocs_per_item_steady",
      allocs / static_cast<double>(itemsPerEncode * kAllocProbeRounds));
  return row;
}

BenchRow benchEncodeTs(double minSeconds) {
  constexpr std::size_t kItems = 65536;
  constexpr std::size_t kEntries = 4096;
  report::SizeModel sizes;
  sizes.numItems = kItems;
  report::ReportCodec codec(sizes);
  db::UpdateHistory h(kItems);
  sim::Rng rng(7);
  double t = 0;
  for (std::size_t i = 0; i < kEntries; ++i) {
    t += rng.exponential(0.5);
    h.record(static_cast<db::ItemId>(
                 rng.uniformInt(0, static_cast<int>(kItems) - 1)),
             t);
  }
  const auto r = report::TsReport::build(h, sizes, t + 1, 0.0);

  std::vector<std::uint8_t> buf;
  auto fast = [&] {
    buf.clear();
    report::BitWriter w(buf);
    codec.encodeInto(*r, w);
  };
  BitLoopWriter ref;
  auto slow = [&] {
    ref.out.clear();
    ref.bitCount = 0;
    refEncodeTs(codec, sizes, *r, ref);
  };

  fast();
  slow();
  requireIdentical("encode_ts", buf, ref.out);
  BenchRow row = benchEncodePair("encode_ts/" + std::to_string(kEntries),
                                 r->entries().size(), minSeconds, fast, slow);
  row.metrics.emplace_back("payload_bytes", static_cast<double>(buf.size()));
  return row;
}

BenchRow benchEncodeBs(double minSeconds) {
  constexpr std::size_t kItems = 65536;
  report::SizeModel sizes;
  sizes.numItems = kItems;
  report::ReportCodec codec(sizes);
  db::UpdateHistory h(kItems);
  sim::Rng rng(11);
  double t = 0;
  // Sparse history (1% of items updated): the frame cost is then the
  // 65536-bit B_n level, i.e. the BitVec serialization this PR rewrote,
  // not BsWire's level construction (identical in both paths).
  for (int i = 0; i < 512; ++i) {
    t += rng.exponential(0.2);
    h.record(static_cast<db::ItemId>(
                 rng.uniformInt(0, static_cast<int>(kItems) - 1)),
             t);
  }
  const auto r = report::BsReport::build(h, sizes, t + 1);
  // Build the wire view once: the timed loops measure the serialization
  // half (encodeWire), which is the path this PR rewrote. Level
  // construction is identical work in both writers and would drown the
  // ratio in rank() arithmetic.
  const report::BsWire wire = report::BsWire::encode(*r);

  std::vector<std::uint8_t> buf;
  auto fast = [&] {
    buf.clear();
    report::BitWriter w(buf);
    codec.encodeWire(wire, r->broadcastTime, w);
  };
  BitLoopWriter ref;
  auto slow = [&] {
    ref.out.clear();
    ref.bitCount = 0;
    refEncodeBsWire(codec, sizes, wire, r->broadcastTime, ref);
  };

  fast();
  slow();
  requireIdentical("encode_bs", buf, ref.out);
  requireIdentical("encode_bs (full encode)", codec.encode(*r), buf);
  // Items = database items: level 0 alone is one bit per item, so this is
  // a lower bound on bits moved per encode.
  BenchRow row = benchEncodePair("encode_bs/" + std::to_string(kItems),
                                 kItems, minSeconds, fast, slow);
  row.metrics.emplace_back("payload_bytes", static_cast<double>(buf.size()));
  return row;
}

BenchRow benchEncodeSig(double minSeconds) {
  constexpr std::size_t kItems = 65536;
  constexpr std::size_t kSubsets = 1024;
  report::SizeModel sizes;
  sizes.numItems = kItems;
  report::ReportCodec codec(sizes);
  report::SignatureTable table(kItems, kSubsets, 3, 5);
  const auto r = report::SigReport::build(table, sizes, 60.0);

  std::vector<std::uint8_t> buf;
  auto fast = [&] {
    buf.clear();
    report::BitWriter w(buf);
    codec.encodeInto(*r, w);
  };
  BitLoopWriter ref;
  auto slow = [&] {
    ref.out.clear();
    ref.bitCount = 0;
    refEncodeSig(codec, sizes, *r, ref);
  };

  fast();
  slow();
  requireIdentical("encode_sig", buf, ref.out);
  BenchRow row = benchEncodePair("encode_sig/" + std::to_string(kSubsets),
                                 r->combined().size(), minSeconds, fast, slow);
  row.metrics.emplace_back("payload_bytes", static_cast<double>(buf.size()));
  return row;
}

// ---------------------------------------------------------------------------
// udp_fanout/64: one encoded IR datagram to 64 loopback destinations.
// ---------------------------------------------------------------------------

int openLoopbackUdp(sockaddr_in* boundAddr) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    return -1;
  }
  if (boundAddr != nullptr) {
    socklen_t len = sizeof *boundAddr;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(boundAddr), &len) < 0) {
      ::close(fd);
      return -1;
    }
  }
  return fd;
}

BenchRow benchUdpFanout(double minSeconds) {
  constexpr std::size_t kClients = 64;
  constexpr std::size_t kPayload = 256;  // a typical framed IR datagram

  const int sender = openLoopbackUdp(nullptr);
  std::vector<int> receivers(kClients, -1);
  std::vector<sockaddr_in> addrs(kClients);
  std::vector<const sockaddr_in*> dests;
  for (std::size_t i = 0; i < kClients; ++i) {
    receivers[i] = openLoopbackUdp(&addrs[i]);
    if (receivers[i] < 0 || sender < 0) {
      std::fprintf(stderr, "bench_live: loopback socket setup failed: %s\n",
                   std::strerror(errno));
      std::exit(1);
    }
    dests.push_back(&addrs[i]);
  }
  std::vector<std::uint8_t> payload(kPayload, 0xA5);

  live::UdpBatchSender batch;
  live::UdpBatchReceiver drainer;
  const bool batched = live::UdpBatchSender::available();
  std::uint64_t sendSyscalls = 0;
  auto drainAll = [&] {
    for (const int fd : receivers) {
      drainer.drain(fd, [](const std::uint8_t*, std::size_t) { return true; });
    }
  };

  auto batchedTick = [&] {
    const auto res =
        batch.sendToMany(sender, payload.data(), payload.size(), dests);
    sendSyscalls += res.syscalls;
    drainAll();
  };
  auto sendtoTick = [&] {
    for (const sockaddr_in* dst : dests) {
      ++sendSyscalls;
      (void)::sendto(sender, payload.data(), payload.size(), MSG_DONTWAIT,
                     reinterpret_cast<const sockaddr*>(dst), sizeof *dst);
    }
    drainAll();
  };

  auto timeLoop = [&](auto&& tick, std::uint64_t* syscallsPerTick) {
    tick();  // warm
    sendSyscalls = 0;
    std::uint64_t ticks = 0;
    metrics::WallTimer timer;
    double elapsed = 0.0;
    do {
      tick();
      ++ticks;
      elapsed = timer.seconds();
    } while (elapsed < minSeconds);
    if (syscallsPerTick != nullptr) *syscallsPerTick = sendSyscalls / ticks;
    return elapsed / static_cast<double>(ticks);
  };

  // Steady-state allocation probe across the batched send + drain loop.
  batchedTick();
  const std::uint64_t allocsBefore = allocsNow();
  constexpr int kAllocProbeRounds = 16;
  for (int i = 0; i < kAllocProbeRounds; ++i) batchedTick();
  const auto allocs = static_cast<double>(allocsNow() - allocsBefore);

  std::uint64_t batchSyscallsPerTick = kClients;
  const double batchedSec = batched
                                ? timeLoop(batchedTick, &batchSyscallsPerTick)
                                : timeLoop(sendtoTick, nullptr);
  const double sendtoSec = timeLoop(sendtoTick, nullptr);

  for (const int fd : receivers) ::close(fd);
  ::close(sender);

  BenchRow row;
  row.name = "udp_fanout/" + std::to_string(kClients);
  row.metrics.emplace_back("us_per_tick_batched", batchedSec * 1e6);
  row.metrics.emplace_back("us_per_tick_sendto", sendtoSec * 1e6);
  row.metrics.emplace_back("speedup_vs_sendto", sendtoSec / batchedSec);
  row.metrics.emplace_back("syscalls_per_tick",
                           static_cast<double>(batchSyscallsPerTick));
  row.metrics.emplace_back(
      "syscall_reduction",
      static_cast<double>(kClients) /
          static_cast<double>(batchSyscallsPerTick));
  row.metrics.emplace_back(
      "allocs_per_item_steady",
      allocs / static_cast<double>(kClients * kAllocProbeRounds));
  return row;
}

// ---------------------------------------------------------------------------
// live_pool/64: the full protocol over loopback.
// ---------------------------------------------------------------------------

BenchRow benchLivePool(double simTime) {
  constexpr std::size_t kClients = 64;
  core::SimConfig cfg;
  cfg.scheme = schemes::SchemeKind::kBs;  // exercises writeBitVec per tick
  cfg.numClients = kClients;
  cfg.dbSize = 1000;
  cfg.clientBufferFrac = 0.1;
  cfg.workload = core::WorkloadKind::kHotCold;
  cfg.hotQuery = {0, 50, 0.9};
  cfg.meanThinkTime = 25.0;
  cfg.meanUpdateInterarrival = 50.0;
  cfg.broadcastPeriod = 5.0;
  cfg.simTime = simTime;
  cfg.seed = 1234;

  live::Reactor reactor;
  live::ServerOptions serverOpts;
  serverOpts.cfg = cfg;
  serverOpts.timeScale = 250.0;
  live::BroadcastServer server(reactor, serverOpts);

  live::AgentOptions agentOpts;
  agentOpts.cfg = cfg;
  agentOpts.port = server.tcpPort();
  agentOpts.numAgents = cfg.numClients;
  agentOpts.auditDbs = {&server.database()};
  live::ClientPool pool(reactor, agentOpts);
  pool.start();

  metrics::WallTimer timer;
  const live::Reactor::TimerHandle stopTimer =
      reactor.addTimer(0.02, 0.02, [&] {
        if (pool.modelNow() >= cfg.simTime) {
          pool.shutdown();
          reactor.stop();
        }
      });
  reactor.run();
  (void)reactor.cancelTimer(stopTimer);  // periodic: still registered
  const double wall = timer.seconds();

  const live::ServerStats& ss = server.stats();
  const live::PoolStats& ps = pool.stats();
  if (pool.welcomedCount() != kClients || ss.reportsBroadcast == 0 ||
      ps.reportsHeard == 0 || pool.staleReads() != 0 ||
      server.staleReads() != 0) {
    std::fprintf(stderr,
                 "bench_live: live_pool run is unsound (welcomed=%zu "
                 "ticks=%llu heard=%llu stale=%llu/%llu)\n",
                 pool.welcomedCount(),
                 static_cast<unsigned long long>(ss.reportsBroadcast),
                 static_cast<unsigned long long>(ps.reportsHeard),
                 static_cast<unsigned long long>(pool.staleReads()),
                 static_cast<unsigned long long>(server.staleReads()));
    std::exit(1);
  }

  const auto ticks = static_cast<double>(ss.reportsBroadcast);
  BenchRow row;
  row.name = "live_pool/" + std::to_string(kClients);
  row.metrics.emplace_back("reports_broadcast", ticks);
  row.metrics.emplace_back(
      "udp_syscalls_per_tick",
      static_cast<double>(ss.udpSendSyscalls) / ticks);
  row.metrics.emplace_back(
      "udp_datagrams_per_tick",
      static_cast<double>(ss.udpDatagramsSent) / ticks);
  row.metrics.emplace_back(
      "udp_syscall_reduction",
      static_cast<double>(kClients) /
          (static_cast<double>(ss.udpSendSyscalls) / ticks));
  row.metrics.emplace_back(
      "client_recv_syscalls_per_report",
      ps.reportsHeard == 0
          ? 0.0
          : static_cast<double>(ps.udpRecvSyscalls) /
                static_cast<double>(ps.reportsHeard));
  row.metrics.emplace_back("queries_completed",
                           static_cast<double>(pool.queriesCompleted()));
  row.metrics.emplace_back("query_p50_us",
                           static_cast<double>(ps.queryLatencyUs.pct(50)));
  row.metrics.emplace_back("query_p99_us",
                           static_cast<double>(ps.queryLatencyUs.pct(99)));
  row.metrics.emplace_back("query_p999_us",
                           static_cast<double>(ps.queryLatencyUs.pct(99.9)));
  row.metrics.emplace_back("model_s_per_wall_s", cfg.simTime / wall);
  return row;
}

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

}  // namespace

int main(int argc, char** argv) {
  std::string outPath;
  double simTime = 300.0;
  double minSeconds = 0.5;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto nextValue = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_live: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--out") {
      outPath = nextValue();
    } else if (arg == "--simtime") {
      simTime = std::atof(nextValue());
    } else if (arg == "--mintime") {
      minSeconds = std::atof(nextValue());
    } else {
      std::fprintf(stderr, "bench_live: unknown flag %s\n", arg.c_str());
      return 2;
    }
  }

  std::vector<BenchRow> rows;
  std::fprintf(stderr, "bench_live: encode micro benches ...\n");
  rows.push_back(benchEncodeTs(minSeconds));
  rows.push_back(benchEncodeBs(minSeconds));
  rows.push_back(benchEncodeSig(minSeconds));
  std::fprintf(stderr, "bench_live: udp fan-out ...\n");
  rows.push_back(benchUdpFanout(minSeconds));
  std::fprintf(stderr, "bench_live: live pool (simtime=%g) ...\n", simTime);
  rows.push_back(benchLivePool(simTime));

  std::FILE* out = stdout;
  if (!outPath.empty()) {
    out = std::fopen(outPath.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "bench_live: cannot open %s\n", outPath.c_str());
      return 1;
    }
  }
  writeJson(out, rows);
  if (out != stdout) std::fclose(out);
  return 0;
}
