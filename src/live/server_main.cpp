// mci_live_server: the live broadcast daemon. Owns the authoritative
// database, applies the update workload, broadcasts one invalidation report
// every L model seconds over per-client UDP (or one multicast datagram with
// --multicast), and serves query / check / audit uplinks on TCP. Pair with
// mci_live_client (or examples/live_demo in-process).
//
//   ./mci_live_server --scheme AAW --clients 8 --dbsize 1000
//       --timescale 100 --duration 2400
//
// One shard of a standalone cluster (prefer mci_live_cluster for same-host
// deployments): give every daemon the same config/seed plus --shards K
// --shard-index I --peer-ports p0,...,pK-1 (every shard's TCP port on the
// shared bind address, this daemon's own included). With --multicast
// <group>:<base port>, shard s broadcasts on base port + s.
//
// Prints `port=<tcp port>` on stdout once listening (drivers parse it).
// Exits 0 iff no stale read was audited.

#include <signal.h>
#include <sys/epoll.h>
#include <sys/signalfd.h>

#include <cmath>
#include <cstdio>

#include "live/broadcast_server.hpp"
#include "live/cluster.hpp"
#include "runner/cli.hpp"
#include "schemes/factory.hpp"

int main(int argc, char** argv) {
  using namespace mci;
  runner::Cli cli(argc, argv);

  if (cli.has("list-schemes")) {
    std::printf("%s", schemes::schemeListing().c_str());
    return 0;
  }

  live::ServerOptions opts;
  if (auto kind = cli.getScheme("scheme", core::SimConfig{}.scheme)) {
    opts.cfg.scheme = *kind;
  } else {
    return 1;  // getScheme printed the valid set
  }
  opts.cfg.numClients = static_cast<std::size_t>(cli.getInt("clients", 8));
  opts.cfg.dbSize = static_cast<std::size_t>(cli.getInt("dbsize", 1000));
  opts.cfg.broadcastPeriod = cli.getDouble("period", 20.0);
  opts.cfg.meanUpdateInterarrival = cli.getDouble("update-gap", 100.0);
  opts.cfg.meanItemsPerUpdate = cli.getDouble("update-items", 5.0);
  opts.cfg.windowIntervals = static_cast<int>(cli.getInt("window", 10));
  opts.cfg.clientBufferFrac =
      cli.getDouble("bufferfrac", opts.cfg.clientBufferFrac);
  opts.cfg.seed = static_cast<std::uint64_t>(cli.getInt("seed", 42));
  opts.timeScale = cli.getDouble("timescale", 1.0);
  opts.tcpPort = static_cast<std::uint16_t>(cli.getInt("port", 0));

  const auto shards =
      cli.getIntBounded("shards", 1, 1, live::ShardMap::kMaxShards);
  if (!shards) return 1;  // getIntBounded printed the accepted range
  opts.shardCount = static_cast<std::uint32_t>(*shards);
  const auto shardIndex = cli.getIntBounded("shard-index", 0, 0, *shards - 1);
  if (!shardIndex) return 1;
  opts.shardIndex = static_cast<std::uint32_t>(*shardIndex);

  std::uint16_t mcastBasePort = 0;
  if (cli.has("multicast")) {
    auto spec = live::parseMulticastSpec(cli.getStr("multicast", ""));
    if (!spec) {
      std::fprintf(stderr,
                   "bad --multicast value '%s': expected <224-239.x.y.z>:"
                   "<base port>\n",
                   cli.getStr("multicast", "").c_str());
      return 1;
    }
    opts.multicastGroup = spec->first;
    mcastBasePort = spec->second;
    opts.multicastPort =
        static_cast<std::uint16_t>(mcastBasePort + opts.shardIndex);
  }

  std::vector<std::uint16_t> peerPorts;
  if (opts.shardCount > 1) {
    auto parsed = live::parsePortList(cli.getStr("peer-ports", ""));
    if (!parsed || parsed->size() != opts.shardCount) {
      std::fprintf(stderr,
                   "--shards %u needs --peer-ports with exactly %u "
                   "comma-separated TCP ports (every shard's, this one's "
                   "included)\n",
                   opts.shardCount, opts.shardCount);
      return 1;
    }
    peerPorts = std::move(*parsed);
    if (opts.tcpPort == 0) opts.tcpPort = peerPorts[opts.shardIndex];
    if (opts.tcpPort != peerPorts[opts.shardIndex]) {
      std::fprintf(stderr,
                   "--port %u contradicts --peer-ports slot %u (%u)\n",
                   opts.tcpPort, opts.shardIndex, peerPorts[opts.shardIndex]);
      return 1;
    }
  }

  const double duration = cli.getDouble("duration", 0.0);  // model s; 0 = run
  if (!std::isfinite(duration) || duration < 0) {
    std::fprintf(stderr, "bad --duration value: expected finite model "
                         "seconds >= 0 (0 runs until signalled)\n");
    return 1;
  }
  for (const auto& unknown : cli.unknownArgs()) {
    std::fprintf(stderr, "warning: unknown flag --%s\n", unknown.c_str());
  }

  live::Reactor reactor;
  live::BroadcastServer server(reactor, opts);
  if (opts.shardCount > 1) {
    // Assemble the cluster map from the shared port plan: every peer lives
    // on the same bind address, shard s multicasting on base port + s.
    std::vector<live::ShardEndpoint> endpoints(opts.shardCount);
    for (std::uint32_t s = 0; s < opts.shardCount; ++s) {
      live::ShardEndpoint& ep = endpoints[s];
      ep.ipv4 = server.selfEndpoint().ipv4;
      ep.tcpPort = peerPorts[s];
      if (!opts.multicastGroup.empty()) {
        ep.multicastIpv4 = server.selfEndpoint().multicastIpv4;
        ep.multicastPort = static_cast<std::uint16_t>(mcastBasePort + s);
      }
    }
    server.setShardMap(live::ShardMap(1, live::ShardMap::kDefaultHashSeed,
                                      std::move(endpoints)));
  }
  std::printf("port=%u\n", server.tcpPort());
  std::fflush(stdout);

  // SIGINT/SIGTERM through the reactor: a clean stop, not an abort.
  sigset_t mask;
  sigemptyset(&mask);
  sigaddset(&mask, SIGINT);
  sigaddset(&mask, SIGTERM);
  sigprocmask(SIG_BLOCK, &mask, nullptr);
  const int sigFd = signalfd(-1, &mask, SFD_NONBLOCK | SFD_CLOEXEC);
  const live::Reactor::FdHandle sigReg = reactor.addFd(
      sigFd, EPOLLIN, [&reactor](std::uint32_t) { reactor.stop(); });

  live::Reactor::TimerHandle stopTimer;
  if (duration > 0) {
    stopTimer = reactor.addTimer(server.clock().wallDelay(duration), 0,
                                 [&reactor] { reactor.stop(); });
  }
  reactor.run();
  reactor.removeFd(sigReg);
  (void)reactor.cancelTimer(stopTimer);  // already fired when it stopped us

  live::printServerStats(server.stats(), server.staleReads());
  std::printf("\n");
  return server.staleReads() == 0 ? 0 : 1;
}
