// Live subsystem in one process: a BroadcastServer and two ClientAgents
// share a single reactor and talk over real loopback sockets — UDP for the
// periodic invalidation report, TCP for queries, checks and audits. Because
// both ends live in the same process, the pool audits every cache answer
// against the server's actual database, so a stale read here would abort
// the run. Time is scaled 300x: 40 model minutes finish in about 8 wall
// seconds.
//
//   ./examples/live_demo [--scheme AAW] [--timescale 300]

#include <cinttypes>
#include <cstdio>

#include "live/broadcast_server.hpp"
#include "live/client_agent.hpp"
#include "runner/cli.hpp"
#include "schemes/factory.hpp"

int main(int argc, char** argv) {
  using namespace mci;
  runner::Cli cli(argc, argv);
  if (cli.has("list-schemes")) {
    std::printf("%s", schemes::schemeListing().c_str());
    return 0;
  }

  live::ServerOptions serverOpts;
  if (auto kind = cli.getScheme("scheme", schemes::SchemeKind::kAaw)) {
    serverOpts.cfg.scheme = *kind;
  } else {
    return 1;
  }
  serverOpts.cfg.numClients = 2;
  serverOpts.cfg.dbSize = 500;
  serverOpts.cfg.clientBufferFrac = 0.1;
  serverOpts.cfg.workload = core::WorkloadKind::kHotCold;
  serverOpts.cfg.hotQuery = {0, 50, 0.9};
  serverOpts.cfg.meanThinkTime = 25.0;
  serverOpts.cfg.seed = 2026;
  serverOpts.timeScale = cli.getDouble("timescale", 300.0);
  const double duration = cli.getDouble("duration", 2400.0);

  live::Reactor reactor;
  live::BroadcastServer server(reactor, serverOpts);
  std::printf("live_demo: %s server on 127.0.0.1:%u, 2 agents, "
              "%.0f model seconds at %.0fx\n",
              schemes::schemeName(server.config().scheme), server.tcpPort(),
              duration, serverOpts.timeScale);

  live::AgentOptions agentOpts;
  agentOpts.cfg = serverOpts.cfg;  // same client-side workload knobs
  agentOpts.port = server.tcpPort();
  agentOpts.numAgents = 2;
  agentOpts.auditDbs = {&server.database()};  // in-process: audit for real
  live::ClientPool pool(reactor, agentOpts);
  pool.start();

  const live::Reactor::TimerHandle stopTimer =
      reactor.addTimer(0.05, 0.05, [&] {
        if (pool.modelNow() >= duration) {
          pool.shutdown();
          reactor.stop();
        }
      });
  reactor.run();
  (void)reactor.cancelTimer(stopTimer);  // periodic: still registered

  const metrics::SimResult r = pool.finalize();
  std::printf("reports broadcast %-4" PRIu64 " heard %-4" PRIu64
              " | queries %-3" PRIu64 " hit ratio %.3f | checks %" PRIu64
              " | stale reads %" PRIu64 "\n",
              server.stats().reportsBroadcast, pool.stats().reportsHeard,
              r.queriesCompleted, r.hitRatio(), r.checksSent, r.staleReads);
  return r.staleReads == 0 && pool.welcomedCount() == 2 ? 0 : 1;
}
