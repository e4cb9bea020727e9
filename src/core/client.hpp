#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/client_lifecycle.hpp"
#include "metrics/collector.hpp"
#include "net/network.hpp"
#include "report/report.hpp"
#include "schemes/scheme.hpp"
#include "sim/simulator.hpp"
#include "workload/disconnect.hpp"
#include "workload/query_generator.hpp"

namespace mci::core {

class Server;

/// A mobile host of the simulator: the paper's client loop (§4), the
/// shared lifecycle of core/client_lifecycle.hpp (docs/protocols.md,
/// "Client lifecycle") over one cache partition. This class keeps only the
/// mechanics: simulator events for the think and wake deadlines, the
/// uplink request and check messages, the virtual ClientScheme that
/// validates the cache, and the Collector's accounting.
class Client {
 public:
  Client(sim::Simulator& simulator, net::Network& network, Server& server,
         const report::SizeModel& sizes,
         std::unique_ptr<schemes::ClientScheme> scheme,
         workload::QueryGenerator queryGen, workload::Disconnector disconnector,
         metrics::Collector* collector, schemes::ClientId id,
         std::size_t cacheCapacity,
         cache::ReplacementPolicy replacement = cache::ReplacementPolicy::kLru);

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Kicks off the think loop at the current simulated time.
  void start();

  /// A fully transmitted invalidation report reached this cell; the server
  /// calls this only for connected clients.
  void onReportDelivered(const report::ReportPtr& r);

  /// A validity report addressed to this client arrived.
  void onValidityReply(const schemes::ValidityReply& reply);

  /// A requested data item finished downloading. `readTime` is when the
  /// server read it from the database (its currency point).
  void onDataItem(db::ItemId item, db::Version version, sim::SimTime readTime);

  [[nodiscard]] bool connected() const {
    return life_.phase != lifecycle::Phase::kDozing;
  }
  [[nodiscard]] schemes::ClientId id() const { return ctx_.id(); }
  [[nodiscard]] schemes::ClientContext& context() { return ctx_; }
  [[nodiscard]] const schemes::ClientContext& context() const { return ctx_; }

  [[nodiscard]] lifecycle::Phase phase() const { return life_.phase; }
  [[nodiscard]] std::uint64_t queriesCompleted() const {
    return life_.completed;
  }

 private:
  /// This client as the lifecycle's view (defined in client.cpp).
  class Life;

  void sendCheck(const schemes::CheckMessage& msg);

  sim::Simulator& sim_;
  net::Network& net_;
  Server& server_;
  std::unique_ptr<schemes::ClientScheme> scheme_;
  workload::QueryGenerator queryGen_;
  workload::Disconnector disc_;
  metrics::Collector* collector_;
  schemes::ClientContext ctx_;

  lifecycle::HostLife life_;
  lifecycle::QueryLeg leg_;  ///< the one partition: ctx_
  sim::EventId thinkEvent_ = sim::kInvalidEventId;
};

}  // namespace mci::core
