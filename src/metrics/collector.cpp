#include "metrics/collector.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

namespace mci::metrics {

Collector::Collector(const db::Database* database, bool auditStaleReads)
    : db_(database), audit_(auditStaleReads) {}

void Collector::attachTrace(const sim::Simulator* simulator,
                            sim::Trace* traceSink) {
  traceSim_ = simulator;
  trace_ = traceSink;
}

void Collector::trace(sim::TraceCategory category, std::int64_t actor,
                      std::string message) {
  if (trace_ == nullptr || traceSim_ == nullptr) return;
  trace_->record(traceSim_->now(), category, actor, std::move(message));
}

void Collector::onInvalidate(schemes::ClientId client, db::ItemId item,
                             db::Version version) {
  ++result_.invalidations;
  const db::Database* truth = dbFor(item);
  const bool wasCurrent =
      truth != nullptr && version == truth->currentVersion(item);
  if (wasCurrent) ++result_.falseInvalidations;
  trace(sim::TraceCategory::kCache, client,
        "invalidate item " + std::to_string(item) +
            (wasCurrent ? " (false: copy was current)" : ""));
}

void Collector::onCacheDrop(schemes::ClientId client, std::size_t entries) {
  ++result_.cacheDropEvents;
  result_.entriesDropped += entries;
  trace(sim::TraceCategory::kCache, client,
        "drop " + std::to_string(entries) + " entries");
}

void Collector::onSalvage(schemes::ClientId client, std::size_t entries) {
  result_.entriesSalvaged += entries;
  trace(sim::TraceCategory::kCache, client,
        "salvage " + std::to_string(entries) + " entries");
}

void Collector::setClientCount(std::size_t numClients) {
  perClient_.assign(numClients, PerClient{});
}

void Collector::onCacheAnswer(schemes::ClientId client, db::ItemId item,
                              db::Version version, sim::SimTime validAsOf) {
  ++result_.cacheHits;
  ++result_.itemsReferenced;
  if (client < perClient_.size()) ++perClient_[client].hits;
  const db::Database* truth = dbFor(item);
  if (truth == nullptr) return;
  if (version < truth->versionAt(item, validAsOf)) {
    ++result_.staleReads;
    if (audit_) {
      std::fprintf(stderr,
                   "STALE READ: client %u item %u cached v%u, server had v%u "
                   "at consistency point %.3f\n",
                   client, item, version, truth->versionAt(item, validAsOf),
                   validAsOf);
      // Not assert(): the invariant must hold in release builds too.
      std::abort();
    }
  }
}

void Collector::onCacheMiss(schemes::ClientId client) {
  ++result_.cacheMisses;
  ++result_.itemsReferenced;
  if (client < perClient_.size()) ++perClient_[client].misses;
}

void Collector::onQueryCompleted(schemes::ClientId client,
                                 double latencySeconds) {
  ++result_.queriesCompleted;
  latency_.add(latencySeconds);
  latencyHist_.add(latencySeconds);
  if (client < perClient_.size()) ++perClient_[client].queries;
}

void Collector::resetForMeasurement() {
  const std::size_t clients = perClient_.size();
  result_ = SimResult{};
  latency_.reset();
  latencyHist_ = sim::Histogram(0.0, 5000.0, 500);
  perClient_.assign(clients, PerClient{});
}

void Collector::onDisconnect() {
  ++result_.disconnects;
  trace(sim::TraceCategory::kDoze, -1, "a client dozes off");
}

void Collector::onReconnect(double dozeSeconds) {
  result_.dozeSeconds += dozeSeconds;
  trace(sim::TraceCategory::kDoze, -1,
        "a client wakes after " + std::to_string(dozeSeconds) + " s");
}

void Collector::onCheckSent() {
  ++result_.checksSent;
  trace(sim::TraceCategory::kCheck, -1, "uplink check/Tlb sent");
}

void Collector::onClientTx(double bits) { result_.clientTxBits += bits; }

void Collector::onClientRx(double bits) { result_.clientRxBits += bits; }

void Collector::onReportBuilt(report::ReportKind kind) {
  trace(sim::TraceCategory::kReport, -1,
        std::string("broadcast ") + report::reportKindName(kind));
  switch (kind) {
    case report::ReportKind::kTsWindow: ++result_.reportsTs; break;
    case report::ReportKind::kTsExtended: ++result_.reportsExtended; break;
    case report::ReportKind::kBitSeq: ++result_.reportsBs; break;
    case report::ReportKind::kSignature: ++result_.reportsSig; break;
  }
}

void Collector::onValidityReplySent() {
  ++result_.validityReplies;
  trace(sim::TraceCategory::kCheck, -1, "validity reply sent");
}

SimResult Collector::finalize(double simTime) const {
  SimResult r = result_;
  r.simTime = simTime;
  r.avgQueryLatency = latency_.mean();
  r.maxQueryLatency = latency_.max();
  r.p50QueryLatency = latencyHist_.quantile(0.5);
  r.p95QueryLatency = latencyHist_.quantile(0.95);

  if (!perClient_.empty()) {
    double sum = 0, sumSq = 0;
    double minQ = 1e300, maxQ = 0;
    double minH = 1.0, maxH = 0.0, sumH = 0;
    for (const PerClient& c : perClient_) {
      const auto q = static_cast<double>(c.queries);
      sum += q;
      sumSq += q * q;
      minQ = std::min(minQ, q);
      maxQ = std::max(maxQ, q);
      const std::uint64_t refs = c.hits + c.misses;
      const double h = refs ? static_cast<double>(c.hits) / refs : 0.0;
      minH = std::min(minH, h);
      maxH = std::max(maxH, h);
      sumH += h;
    }
    const auto n = static_cast<double>(perClient_.size());
    r.clients.minQueries = minQ;
    r.clients.meanQueries = sum / n;
    r.clients.maxQueries = maxQ;
    r.clients.fairness = sumSq > 0 ? (sum * sum) / (n * sumSq) : 1.0;
    r.clients.minHitRatio = minH;
    r.clients.meanHitRatio = sumH / n;
    r.clients.maxHitRatio = maxH;
  }
  return r;
}

namespace {

net::ChannelUsage addUsage(const net::ChannelUsage& a,
                           const net::ChannelUsage& b) {
  net::ChannelUsage s = a;
  s.irBits += b.irBits;
  s.controlBits += b.controlBits;
  s.bulkBits += b.bulkBits;
  s.irSeconds += b.irSeconds;
  s.controlSeconds += b.controlSeconds;
  s.bulkSeconds += b.bulkSeconds;
  s.irCount += b.irCount;
  s.controlCount += b.controlCount;
  s.bulkCount += b.bulkCount;
  return s;
}

}  // namespace

SimResult mergeResults(const std::vector<SimResult>& parts) {
  SimResult m;
  m.clients.fairness = 0.0;  // default is 1.0; the loop accumulates +=
  double totalQueries = 0;
  for (const SimResult& p : parts) {
    totalQueries += static_cast<double>(p.queriesCompleted);
  }
  for (const SimResult& p : parts) {
    const double w =
        totalQueries > 0
            ? static_cast<double>(p.queriesCompleted) / totalQueries
            : (parts.empty() ? 0.0 : 1.0 / static_cast<double>(parts.size()));
    m.simTime = std::max(m.simTime, p.simTime);
    m.queriesCompleted += p.queriesCompleted;
    m.itemsReferenced += p.itemsReferenced;
    m.cacheHits += p.cacheHits;
    m.cacheMisses += p.cacheMisses;
    m.staleReads += p.staleReads;
    m.avgQueryLatency += w * p.avgQueryLatency;
    m.maxQueryLatency = std::max(m.maxQueryLatency, p.maxQueryLatency);
    m.p50QueryLatency += w * p.p50QueryLatency;
    m.p95QueryLatency += w * p.p95QueryLatency;
    m.invalidations += p.invalidations;
    m.falseInvalidations += p.falseInvalidations;
    m.cacheDropEvents += p.cacheDropEvents;
    m.entriesDropped += p.entriesDropped;
    m.entriesSalvaged += p.entriesSalvaged;
    m.checksSent += p.checksSent;
    m.validityReplies += p.validityReplies;
    m.reportsTs += p.reportsTs;
    m.reportsExtended += p.reportsExtended;
    m.reportsBs += p.reportsBs;
    m.reportsSig += p.reportsSig;
    m.disconnects += p.disconnects;
    m.dozeSeconds += p.dozeSeconds;
    m.clients.minQueries += w * p.clients.minQueries;
    m.clients.meanQueries += w * p.clients.meanQueries;
    m.clients.maxQueries += w * p.clients.maxQueries;
    m.clients.fairness += w * p.clients.fairness;
    m.clients.minHitRatio += w * p.clients.minHitRatio;
    m.clients.meanHitRatio += w * p.clients.meanHitRatio;
    m.clients.maxHitRatio += w * p.clients.maxHitRatio;
    m.clientTxBits += p.clientTxBits;
    m.clientRxBits += p.clientRxBits;
    m.downlink = addUsage(m.downlink, p.downlink);
    m.uplink = addUsage(m.uplink, p.uplink);
    m.dataChannels = addUsage(m.dataChannels, p.dataChannels);
  }
  if (parts.empty()) m.clients.fairness = 1.0;
  return m;
}

}  // namespace mci::metrics
