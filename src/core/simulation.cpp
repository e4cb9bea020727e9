#include "core/simulation.hpp"

#include <algorithm>

#include "core/scheme_factory.hpp"

namespace mci::core {

Simulation::Simulation(SimConfig cfg)
    : cfg_(std::move(cfg)),
      sizes_(cfg_.sizeModel()),
      db_(cfg_.dbSize),
      history_(cfg_.dbSize),
      net_(sim_, cfg_.downlinkBps, cfg_.uplinkBps, cfg_.dataChannelBps),
      collector_(&db_, cfg_.auditStaleReads) {
  cfg_.validate();
  collector_.setClientCount(cfg_.numClients);

  if (cfg_.traceCapacity > 0) {
    trace_.enable(cfg_.traceCapacity);
    collector_.attachTrace(&sim_, &trace_);
  }

  const sim::Rng root(cfg_.seed);

  if (cfg_.scheme == schemes::SchemeKind::kSig) {
    sigTable_ = std::make_unique<report::SignatureTable>(
        cfg_.dbSize, cfg_.sigSubsets, cfg_.sigPerItem,
        root.fork("sig-seed").bits() /* stable per run seed */);
    sigInitialCombined_ = sigTable_->combined();
  }

  serverScheme_ =
      makeServerScheme(cfg_, history_, db_, sizes_, sigTable_.get());
  server_ = std::make_unique<Server>(sim_, net_, db_, *serverScheme_, sizes_,
                                     &collector_, cfg_.broadcastPeriod);

  // Update workload: Table 2 uses "all DB" for updates in both columns;
  // hot/cold updates stay available for extension experiments.
  const workload::AccessPattern updatePattern =
      cfg_.hotColdUpdates
          ? workload::AccessPattern::hotCold(cfg_.dbSize, cfg_.hotUpdate)
          : workload::AccessPattern::uniform(cfg_.dbSize);
  db::UpdateGenerator::Params up;
  up.meanInterarrival = cfg_.meanUpdateInterarrival;
  up.meanItemsPerTxn = cfg_.meanItemsPerUpdate;
  updateGen_ = std::make_unique<db::UpdateGenerator>(
      sim_, db_, history_, up,
      [updatePattern](sim::Rng& rng) { return updatePattern.pick(rng); },
      root.fork("updates"));
  if (sigTable_) {
    updateGen_->setUpdateHook([this](db::ItemId item, sim::SimTime /*now*/) {
      const db::Version v = db_.currentVersion(item);
      sigTable_->applyUpdate(item, v - 1, v);
    });
  }

  // Client population.
  const workload::AccessPattern queryPattern = cfg_.queryPattern();
  const workload::QueryGenerator::Params qp = cfg_.queryParams();
  const workload::Disconnector::Params dp = cfg_.disconnectParams();

  clients_.reserve(cfg_.numClients);
  sim::Rng hetero = root.fork("heterogeneity");
  for (std::size_t i = 0; i < cfg_.numClients; ++i) {
    const auto id = static_cast<schemes::ClientId>(i);
    workload::QueryGenerator::Params cqp = qp;
    workload::Disconnector::Params cdp = dp;
    if (cfg_.clientHeterogeneity > 0) {
      const double h = cfg_.clientHeterogeneity;
      cqp.meanThinkTime *= hetero.uniformReal(1.0 - h, 1.0 + h);
      cdp.probability =
          std::min(1.0, cdp.probability * hetero.uniformReal(1.0 - h, 1.0 + h));
    }
    auto client = std::make_unique<Client>(
        sim_, net_, *server_, sizes_,
        makeClientScheme(cfg_, sigTable_.get(), sigInitialCombined_),
        workload::QueryGenerator(queryPattern, cqp, root.fork("query", id)),
        workload::Disconnector(cdp, root.fork("disc", id)), &collector_, id,
        cfg_.cacheCapacity(), cfg_.replacement);
    server_->registerClient(client.get());
    clients_.push_back(std::move(client));
  }
}

Simulation::~Simulation() = default;

void Simulation::startProcesses() {
  if (started_) return;
  started_ = true;
  // Steady state carries a handful of pending events per client (think
  // timer, in-flight messages) plus the broadcast/update ticks; presizing
  // the pool and heap here keeps the run itself allocation-free.
  sim_.reserveEvents(4 * cfg_.numClients + 64);
  server_->start();
  updateGen_->start();
  for (auto& c : clients_) c->start();
}

void Simulation::runUntil(double t) {
  startProcesses();
  sim_.runUntil(t);
}

metrics::SimResult Simulation::run() {
  if (cfg_.warmupTime > 0 && sim_.now() < cfg_.warmupTime) {
    runUntil(cfg_.warmupTime);
    collector_.resetForMeasurement();
    downlinkBaseline_ = net_.downlinkUsage();
    uplinkBaseline_ = net_.uplinkUsage();
    dataBaseline_ = net_.dataChannelUsage();
  }
  runUntil(cfg_.simTime);
  return result(cfg_.simTime - cfg_.warmupTime);
}

metrics::SimResult Simulation::snapshot() const { return result(sim_.now()); }

metrics::SimResult Simulation::result(double simTime) const {
  metrics::SimResult r = collector_.finalize(simTime);
  r.downlink = net_.downlinkUsage().since(downlinkBaseline_);
  r.uplink = net_.uplinkUsage().since(uplinkBaseline_);
  r.dataChannels = net_.dataChannelUsage().since(dataBaseline_);
  return r;
}

}  // namespace mci::core
