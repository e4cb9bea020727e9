#include "core/server.hpp"


#include "core/check.hpp"
#include "core/client.hpp"

namespace mci::core {

Server::Server(sim::Simulator& simulator, net::Network& network,
               const db::Database& database, schemes::ServerScheme& scheme,
               const report::SizeModel& sizes, metrics::Collector* collector,
               double broadcastPeriod)
    : sim_(simulator),
      net_(network),
      db_(database),
      scheme_(scheme),
      sizes_(sizes),
      collector_(collector),
      period_(broadcastPeriod) {
  MCI_CHECK(period_ > 0);
}

void Server::registerClient(Client* client) {
  MCI_DCHECK(client != nullptr);
  MCI_DCHECK(client->id() == clients_.size()) << "client ids must be dense";
  clients_.push_back(client);
}

void Server::start() {
  sim_.scheduleAt(period_, [this] { broadcastTick(); });
}

void Server::broadcastTick() {
  ++tick_;
  report::ReportPtr r = scheme_.buildReport(sim_.now());
  if (collector_) collector_->onReportBuilt(r->kind);
  net_.downlink().broadcastReport(r->sizeBits, [this, r] {
    // Delivery completes for everyone at once; a dozing client simply does
    // not hear it.
    for (Client* c : clients_) {
      if (c->connected()) c->onReportDelivered(r);
    }
  });
  sim_.scheduleAt(static_cast<double>(tick_ + 1) * period_,
                  [this] { broadcastTick(); });
}

void Server::onCheckMessage(const schemes::CheckMessage& msg) {
  std::optional<schemes::ValidityReply> reply =
      scheme_.onCheckMessage(msg, sim_.now());
  if (!reply.has_value()) return;
  reply->epoch = msg.epoch;
  if (collector_) collector_->onValidityReplySent();
  MCI_DCHECK(reply->client < clients_.size());
  Client* c = clients_[reply->client];
  net_.downlink().sendValidityReport(
      reply->sizeBits, [c, rep = *reply] {
        if (c->connected()) c->onValidityReply(rep);
      });
}

void Server::onQueryRequest(schemes::ClientId client,
                            const std::vector<db::ItemId>& items) {
  MCI_DCHECK(client < clients_.size());
  Client* c = clients_[client];
  for (db::ItemId item : items) {
    // The payload is read when the transfer *completes*: the server
    // composes each queued response when the channel frees, so the copy a
    // client receives is current as of its delivery time. Stamping at
    // enqueue time instead would open an unfixable staleness window for
    // BS-style reports whenever the downlink queue is long (DESIGN.md §4).
    net_.sendData(sizes_.dataItemBits(), [this, c, item] {
      c->onDataItem(item, db_.currentVersion(item), sim_.now());
    });
  }
}

}  // namespace mci::core
