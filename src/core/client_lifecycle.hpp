#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/check.hpp"
#include "core/client_rule.hpp"
#include "metrics/collector.hpp"
#include "schemes/scheme.hpp"
#include "workload/disconnect.hpp"
#include "workload/query_generator.hpp"

namespace mci::core::lifecycle {

// The paper's §4 client loop, written once over a per-client view so the
// simulator (core::Client), ClientAgent and the swarm (one SwarmState row)
// run the same state machine (docs/protocols.md, "Client lifecycle").
// Times are model seconds. HostView below (core::Client, ClientAgent) and
// swarm::ClientRow supply a view's state and partition calls; each face
// adds its mechanics: drawQuery, armThink/cancelThink, armWake,
// requestFetches, the statistics hooks and, where it reshards, the flip's
// query hooks. Header templates, so the calls inline into the swarm's
// per-client tick loop.

enum class Phase : std::uint8_t {
  kThinking = 0,  ///< connected; a query is due at the think deadline
  kQuerying = 1,  ///< answers owed or fetches outstanding
  kDozing = 2,    ///< radio off until the wake deadline
};

template <class V>
void startThink(V& v, double now, double duration) {
  v.setPhase(Phase::kThinking);
  v.setThinkDeadline(now + duration);
  v.armThink(duration);
}

template <class V>
void issueQuery(V& v, double now) {
  v.drawQuery(now);
  v.setPhase(Phase::kQuerying);
}

/// The caller has flipped the coin; the duration is drawn after it. An
/// interval-coin doze parks the remaining think, a post-query doze
/// replaces the next think with a query on waking.
template <class V>
void beginDoze(V& v, double now, bool queryAfterWake) {
  MCI_DCHECK(v.phase() != Phase::kDozing) << "already dozing";
  if (!queryAfterWake) {
    v.setThinkDeadline(std::max(0.0, v.thinkDeadline() - now));
  }
  v.cancelThink();
  v.setQueryAfterWake(queryAfterWake);
  v.setPhase(Phase::kDozing);
  v.armWake(now,
            workload::Disconnector::duration(v.dozeParams(), v.dozeRng()));
}

/// The wake rule on every partition, then the query the doze replaced or
/// the rest of the think it interrupted.
template <class V>
void wake(V& v, double now) {
  MCI_DCHECK(v.phase() == Phase::kDozing) << "waking an awake client";
  v.onWoken(now);
  v.forEachPartition([](auto& part) { rule::onWake(part); });
  if (v.queryAfterWake()) {
    issueQuery(v, now);
  } else {
    startThink(v, now, v.thinkDeadline());
  }
}

template <class V>
[[nodiscard]] bool queryDone(const V& v) {
  return !v.anyOwed() && !v.anyFetchOutstanding();
}

/// Then the post-query coin, or the next think.
template <class V>
void completeQuery(V& v, double now) {
  v.recordCompletion(now);
  if (v.dozeParams().model == workload::DisconnectModel::kPostQuery &&
      workload::Disconnector::coin(v.dozeParams(), v.dozeRng())) {
    beginDoze(v, now, /*queryAfterWake=*/true);
  } else {
    startThink(v, now, v.drawThink());
  }
}

/// Answers the query's items on partition `p`: a hit is present and not
/// suspect, everything else is fetched. False when the face lost its
/// connection mid-answer (the client is retired; stop).
template <class V, class P>
bool answer(V& v, P p) {
  v.settleOwed(p);
  bool live = true;
  v.forEachQueryItem(p, [&](db::ItemId item) {
    const auto h = v.lookup(p, item);
    if (!v.present(h) || v.suspect(h)) {
      v.miss(p, item);
      return true;
    }
    live = v.hit(p, item, h);
    return live;
  });
  if (live) v.requestFetches(p);
  return live;
}

/// Partition `p` applied a report or validity reply: the answer gate
/// (owed, no salvage pending), then the completion test. Nothing else can
/// settle a query between its answers and fetches, so the test runs only
/// after an answer.
template <class V, class P>
void tryAnswer(V& v, P p, double now) {
  if (v.phase() != Phase::kQuerying || !v.owes(p) || v.salvagePending(p)) {
    return;
  }
  if (answer(v, p) && queryDone(v)) completeQuery(v, now);
}

/// A report was applied on partition `p`. A thinking client flips the
/// interval coin on the coin partition's reports, once per interval.
template <class V, class P>
void onReportHeard(V& v, P p, double now) {
  if (v.phase() == Phase::kQuerying) {
    tryAnswer(v, p, now);
  } else if (v.phase() == Phase::kThinking && v.isCoinPartition(p) &&
             v.dozeParams().model ==
                 workload::DisconnectModel::kIntervalCoin &&
             workload::Disconnector::coin(v.dozeParams(), v.dozeRng())) {
    beginDoze(v, now, /*queryAfterWake=*/false);
  }
}

/// A fetched copy the server read at `readTime` landed on `p`: `keep()`
/// caches it unless the late-copy rule drops it; the fetch retires either
/// way. Returns whether the copy was kept.
template <class V, class P, class T, class Keep>
bool onFetchedCopy(V& v, P p, double now, db::ItemId item, T readTime,
                   Keep&& keep) {
  const bool kept = rule::acceptsFetchedCopy(readTime, v.lastHeard(p));
  if (kept) keep();
  v.retireFetch(p, item);
  if (v.phase() == Phase::kQuerying && queryDone(v)) completeQuery(v, now);
  return kept;
}

/// The in-flight query at an epoch flip (docs/protocols.md, "Resharding"),
/// once the flip has re-keyed the partitions: the query keeps only the
/// items of legs still owed (keepQueryItems; answered legs' fetches stay
/// out), each owed at its owner under the new map (oweQueryItems). Each
/// item is answered exactly once and no answer waits on a retired owner.
template <class V>
void onEpochFlip(V& v, double now) {
  if (v.phase() != Phase::kQuerying) return;
  v.keepQueryItems([&](auto leg) { return v.owes(leg); });
  v.oweQueryItems();
  if (queryDone(v)) completeQuery(v, now);
}

/// The lifecycle fields of an object-per-client face (core::Client,
/// ClientAgent); the swarm keeps them as SwarmState columns.
struct HostLife {
  Phase phase = Phase::kThinking;
  double thinkDeadline = 0;
  bool queryAfterWake = false;
  double dozeStart = 0;
  double queryStart = 0;
  std::uint64_t completed = 0;
};

/// One partition's share of the query in flight: the simulator's only
/// partition, or one ClientAgent shard link.
struct QueryLeg {
  schemes::ClientContext* ctx = nullptr;
  bool owed = false;
  std::vector<db::ItemId> items;
  std::vector<db::ItemId> fetch;  ///< outstanding
};

/// An object-per-client view, partitions keyed by QueryLeg*, with the
/// Collector accounting the sim and ClientAgent share; a face's view
/// derives from it and adds its timers and uplink.
class HostView {
 public:
  HostView(HostLife& life, workload::QueryGenerator& queries,
           workload::Disconnector& disc, metrics::Collector* collector,
           schemes::ClientId id)
      : life_(life),
        queries_(queries),
        disc_(disc),
        collector_(collector),
        id_(id) {}

  Phase phase() const { return life_.phase; }
  void setPhase(Phase p) { life_.phase = p; }
  double thinkDeadline() const { return life_.thinkDeadline; }
  void setThinkDeadline(double t) { life_.thinkDeadline = t; }
  bool queryAfterWake() const { return life_.queryAfterWake; }
  void setQueryAfterWake(bool b) { life_.queryAfterWake = b; }
  const workload::Disconnector::Params& dozeParams() const {
    return disc_.params();
  }
  sim::Rng& dozeRng() { return disc_.rng(); }
  double drawThink() { return queries_.thinkTime(); }

  static bool owes(const QueryLeg* l) { return l->owed; }
  static void settleOwed(QueryLeg* l) { l->owed = false; }
  static bool salvagePending(const QueryLeg* l) {
    return l->ctx->salvagePending();
  }
  static sim::SimTime lastHeard(const QueryLeg* l) {
    return l->ctx->lastHeard();
  }
  template <class F>
  static void forEachQueryItem(const QueryLeg* l, F&& f) {
    for (db::ItemId item : l->items) {
      if (!f(item)) return;
    }
  }
  static cache::Entry* lookup(QueryLeg* l, db::ItemId item) {
    return l->ctx->cache().find(item);
  }
  static bool present(const cache::Entry* e) { return e != nullptr; }
  static bool suspect(const cache::Entry* e) { return e->suspect; }
  static void retireFetch(QueryLeg* l, db::ItemId item) {
    auto it = std::find(l->fetch.begin(), l->fetch.end(), item);
    if (it != l->fetch.end()) l->fetch.erase(it);
  }

  void noteDoze(double now) {
    life_.dozeStart = now;
    if (collector_) collector_->onDisconnect();
  }
  void onWoken(double now) {
    if (collector_) collector_->onReconnect(now - life_.dozeStart);
  }
  bool hit(QueryLeg* l, db::ItemId item, const cache::Entry* e) {
    l->ctx->cache().touch(item);
    if (collector_) {
      collector_->onCacheAnswer(id_, item, e->version, l->ctx->lastHeard());
    }
    return true;
  }
  void miss(QueryLeg* l, db::ItemId item) {
    if (collector_) collector_->onCacheMiss(id_);
    l->fetch.push_back(item);
  }
  void recordCompletion(double now) {
    if (collector_) collector_->onQueryCompleted(id_, now - life_.queryStart);
    ++life_.completed;
  }

 protected:
  HostLife& life_;
  workload::QueryGenerator& queries_;
  workload::Disconnector& disc_;
  metrics::Collector* collector_;
  schemes::ClientId id_;
};

}  // namespace mci::core::lifecycle
