#include "core/client.hpp"

#include "core/check.hpp"
#include "core/server.hpp"

namespace mci::core {

/// The simulator client as the lifecycle's view: one partition (leg_),
/// deadlines as simulator events.
class Client::Life : public lifecycle::HostView {
 public:
  explicit Life(Client& c)
      : HostView(c.life_, c.queryGen_, c.disc_, c.collector_, c.id()),
        c_(c) {}

  template <class F>
  void forEachPartition(F&& f) {
    f(c_.ctx_);
  }
  static bool isCoinPartition(const lifecycle::QueryLeg*) { return true; }
  [[nodiscard]] bool anyOwed() const { return c_.leg_.owed; }
  [[nodiscard]] bool anyFetchOutstanding() const {
    return !c_.leg_.fetch.empty();
  }

  void drawQuery(double now) {
    c_.queryGen_.nextQuery(c_.leg_.items);
    life_.queryStart = now;
    c_.leg_.owed = true;
  }
  void armThink(double duration) {
    c_.thinkEvent_ = c_.sim_.schedule(duration, [client = &c_] {
      client->thinkEvent_ = sim::kInvalidEventId;
      Life v(*client);
      lifecycle::issueQuery(v, client->sim_.now());
    });
  }
  void cancelThink() {
    if (c_.thinkEvent_ == sim::kInvalidEventId) return;
    // The think handler clears thinkEvent_ before running, so a live id
    // always names a pending event.
    MCI_CHECK(c_.sim_.cancel(c_.thinkEvent_)) << "think event already fired";
    c_.thinkEvent_ = sim::kInvalidEventId;
  }
  void armWake(double now, double duration) {
    noteDoze(now);
    c_.sim_.schedule(duration, [client = &c_] {
      Life v(*client);
      lifecycle::wake(v, client->sim_.now());
    });
  }
  void requestFetches(lifecycle::QueryLeg* leg) {
    if (leg->fetch.empty()) return;
    const net::Bits bits = c_.ctx_.sizes().queryRequestBits();
    if (c_.collector_) c_.collector_->onClientTx(bits);
    // The fetch list is stable until this request's delivery callback runs:
    // onDataItem (the only mutator) fires only for items the server was
    // already asked for, and the server learns of this query exactly here.
    c_.net_.uplink().sendRequest(bits, [client = &c_] {
      client->server_.onQueryRequest(client->id(), client->leg_.fetch);
    });
  }
  void recordCompletion(double now) {
    HostView::recordCompletion(now);
    c_.leg_.items.clear();
  }

 private:
  Client& c_;
};

Client::Client(sim::Simulator& simulator, net::Network& network, Server& server,
               const report::SizeModel& sizes,
               std::unique_ptr<schemes::ClientScheme> scheme,
               workload::QueryGenerator queryGen,
               workload::Disconnector disconnector,
               metrics::Collector* collector, schemes::ClientId id,
               std::size_t cacheCapacity, cache::ReplacementPolicy replacement)
    : sim_(simulator),
      net_(network),
      server_(server),
      scheme_(std::move(scheme)),
      queryGen_(std::move(queryGen)),
      disc_(disconnector),
      collector_(collector),
      ctx_(id, cacheCapacity, sizes, collector, replacement) {
  MCI_DCHECK(scheme_ != nullptr);
  leg_.ctx = &ctx_;
}

void Client::start() {
  Life v(*this);
  lifecycle::startThink(v, sim_.now(), v.drawThink());
}

void Client::onReportDelivered(const report::ReportPtr& r) {
  if (!connected()) return;
  if (collector_) collector_->onClientRx(r->sizeBits);  // listening costs
  const schemes::ClientOutcome outcome = scheme_->onReport(*r, ctx_);
  if (outcome.sendCheck) sendCheck(outcome.check);
  Life v(*this);
  lifecycle::onReportHeard(v, &leg_, sim_.now());
}

void Client::sendCheck(const schemes::CheckMessage& msg) {
  if (collector_) {
    collector_->onCheckSent();
    collector_->onClientTx(msg.sizeBits);
  }
  // Init-capture: a plain `msg` copy-capture would give the closure a
  // *const* CheckMessage member (msg is a const&), whose "move" is a
  // reallocating copy — too big a closure for the inline callback storage.
  net_.uplink().sendCheck(msg.sizeBits, [this, msg = msg] {
    // Delivery instant: the scheme learns its feedback has landed (for the
    // decline-detection rule) and the server absorbs it.
    scheme_->onCheckDelivered(ctx_, sim_.now());
    server_.onCheckMessage(msg);
  });
}

void Client::onDataItem(db::ItemId item, db::Version version,
                        sim::SimTime readTime) {
  MCI_DCHECK(connected()) << "clients never doze with downloads in flight";
  if (collector_) collector_->onClientRx(ctx_.sizes().dataItemBits());
  Life v(*this);
  lifecycle::onFetchedCopy(v, &leg_, sim_.now(), item, readTime, [&] {
    cache::Entry entry;
    entry.item = item;
    entry.version = version;
    entry.refTime = readTime;
    entry.suspect = false;
    ctx_.cache().insert(entry);
  });
}

void Client::onValidityReply(const schemes::ValidityReply& reply) {
  if (!connected()) return;  // missed while dozing; epoch guard covers stragglers
  if (collector_) collector_->onClientRx(reply.sizeBits);
  scheme_->onValidityReply(reply, ctx_);
  Life v(*this);
  lifecycle::tryAnswer(v, &leg_, sim_.now());
}

}  // namespace mci::core
