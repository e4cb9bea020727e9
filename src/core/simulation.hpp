#pragma once

#include <memory>
#include <vector>

#include "core/client.hpp"
#include "core/config.hpp"
#include "core/server.hpp"
#include "db/database.hpp"
#include "db/update_generator.hpp"
#include "db/update_history.hpp"
#include "metrics/collector.hpp"
#include "net/network.hpp"
#include "report/sig_report.hpp"
#include "schemes/scheme.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace mci::core {

/// Facade that assembles a complete run of the paper's simulation model:
/// database + update workload + network + server (with the configured
/// invalidation scheme) + the client population, all driven by one
/// deterministic seed.
///
///   SimConfig cfg;
///   cfg.scheme = schemes::SchemeKind::kAaw;
///   metrics::SimResult r = Simulation(cfg).run();
///
/// Component accessors exist so tests can poke at intermediate state via
/// runUntil().
class Simulation {
 public:
  explicit Simulation(SimConfig cfg);
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Runs to cfg.simTime and returns the collected result.
  metrics::SimResult run();

  /// Advances the simulation to absolute time `t` (idempotently starts the
  /// model processes on first call).
  void runUntil(double t);

  /// Result snapshot at the current simulated time.
  [[nodiscard]] metrics::SimResult snapshot() const;

  [[nodiscard]] const SimConfig& config() const { return cfg_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] db::Database& database() { return db_; }
  [[nodiscard]] db::UpdateHistory& history() { return history_; }
  [[nodiscard]] net::Network& network() { return net_; }
  [[nodiscard]] Server& server() { return *server_; }
  [[nodiscard]] schemes::ServerScheme& serverScheme() { return *serverScheme_; }
  [[nodiscard]] Client& client(std::size_t i) { return *clients_.at(i); }
  [[nodiscard]] std::size_t clientCount() const { return clients_.size(); }
  [[nodiscard]] metrics::Collector& collector() { return collector_; }
  /// Model-event trace; empty unless SimConfig::traceCapacity > 0.
  [[nodiscard]] const sim::Trace& trace() const { return trace_; }

 private:
  void startProcesses();
  /// The collector's totals plus the channels' usage since the last
  /// measurement reset.
  [[nodiscard]] metrics::SimResult result(double simTime) const;

  SimConfig cfg_;
  report::SizeModel sizes_;
  sim::Simulator sim_;
  db::Database db_;
  db::UpdateHistory history_;
  net::Network net_;
  metrics::Collector collector_;
  /// Channel usage at the measurement reset (warm-up end); result()
  /// reports the usage since.
  net::ChannelUsage downlinkBaseline_;
  net::ChannelUsage uplinkBaseline_;
  net::ChannelUsage dataBaseline_;
  sim::Trace trace_;
  std::unique_ptr<report::SignatureTable> sigTable_;
  std::vector<std::uint64_t> sigInitialCombined_;
  std::unique_ptr<schemes::ServerScheme> serverScheme_;
  std::unique_ptr<db::UpdateGenerator> updateGen_;
  std::unique_ptr<Server> server_;
  std::vector<std::unique_ptr<Client>> clients_;
  bool started_ = false;
};

}  // namespace mci::core
