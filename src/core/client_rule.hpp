#pragma once

#include <algorithm>

namespace mci::core::rule {

// The client half of AFW/AAW (Figures 3 and 4), written once over a small
// state view so the simulator and ClientAgent (schemes::ClientContext) and
// the swarm (swarm::PartitionView, one per-(client, shard) slice of the
// SwarmState column arrays) run the same decision branch for branch. A
// view of time type T (sim::SimTime, or the swarm's millisecond Tick)
// provides:
//
//   std::size_t suspectCount() const;
//   T lastHeard() const;            void setLastHeard(T);
//   T suspectAsOf() const;
//   bool checkSent() const;         void setCheckSent(bool);
//                                   void setSalvagePending(bool);
//   T checkDeliveredAt() const;     // "no ack yet" compares above any T
//   void markAllSuspect(T preGapTlb);
//   void salvageAllSuspects(T refTime);
//   void dropSuspects();
//   void clearGapState();           // see ClientContext::clearGapState
//   void restartGapCycle();         // see ClientContext::restartGapCycle
//
// Everything is a header template: each view's calls inline into its
// caller, which matters for the swarm's per-client-per-tick loop.

/// TS branch: IR(w) and AAW's IR(w'). An extended report differs from
/// IR(w) only in its earlier `coverageStart` (announced by the dummy
/// record), so one coverage test serves both. `applyEntries()` applies the
/// report's explicit (item, t) records to the cache (applyTsEntries).
/// `sendCheck()` uplinks the pre-gap Tlb, view.suspectAsOf(), and returns
/// false when nothing could be sent (a swarm endpoint not yet welcomed
/// after a reshard): the flags then stay clear and the next uncovered
/// report retries. Suspects stay unanswerable meanwhile.
template <class View, class T, class ApplyEntries, class SendCheck>
void onTsReport(View& v, T now, T coverageStart, ApplyEntries&& applyEntries,
                SendCheck&& sendCheck) {
  if (v.suspectCount() == 0) {
    if (v.lastHeard() >= coverageStart) {
      applyEntries();
      v.setLastHeard(now);
      return;
    }
    // Gap detected: everything cached becomes suspect as of lastHeard.
    v.markAllSuspect(v.lastHeard());
    if (v.suspectCount() == 0) {
      // Empty cache: nothing to salvage, no reason to bother the uplink.
      applyEntries();
      v.clearGapState();
      v.setLastHeard(now);
      return;
    }
  }

  // Explicit records always apply, suspects included.
  applyEntries();

  if (v.suspectAsOf() >= coverageStart) {
    // The window (possibly w', via the dummy record) reaches back past the
    // gap: every update since the gap was listed, so the remaining
    // suspects are clean.
    v.salvageAllSuspects(now);
    v.clearGapState();
    v.setLastHeard(now);
    return;
  }

  if (!v.checkSent()) {
    // First uncovered report after the gap: uplink the pre-gap Tlb once
    // ("and not yet sent Tlb to server = TRUE").
    if (sendCheck()) {
      v.setCheckSent(true);
      v.setSalvagePending(true);
    }
  } else if (v.checkDeliveredAt() < now) {
    // The server built this report knowing our Tlb and still did not help:
    // our gap predates TS(B_n), so nothing can be salvaged.
    v.dropSuspects();
    v.clearGapState();
  }
  // else: feedback still in flight; keep waiting.
  v.setLastHeard(now);
}

/// Helping-BS branch ("if report type is IR(BS) run BS client cache
/// invalidation algorithm"). `applyDecision(tlb)` runs the BS client
/// algorithm (BsReport::decide plus its drop/invalidate action) against
/// `tlb`.
template <class View, class T, class ApplyDecision>
void onBsReport(View& v, T now, ApplyDecision&& applyDecision) {
  // Salvage decisions must reach back to the pre-gap Tlb, not merely to
  // the last (uncovering) report the client heard while waiting.
  applyDecision(v.suspectCount() > 0 ? v.suspectAsOf() : v.lastHeard());
  if (v.suspectCount() > 0) {
    // Survivors of the BS decision were provably not updated since the
    // chosen level's timestamp, hence current as of this report.
    v.salvageAllSuspects(now);
  }
  v.clearGapState();
  v.setLastHeard(now);
}

/// Wake rule: a salvage in flight when the client dozed off can no longer
/// complete reliably. Suspects restart their gap cycle (any in-flight check
/// or helping report is void, the next heard report triggers a fresh
/// check); without suspects the gap state simply resets.
template <class View>
void onWake(View& v) {
  if (v.suspectCount() > 0) {
    v.restartGapCycle();
  } else {
    v.clearGapState();
  }
}

/// Cross-channel late-copy rule. The fetch reply (TCP) and the report
/// stream (UDP) are unordered: a report applied between the fetch and its
/// reply may have listed an update for the item while it was still absent
/// (a no-op invalidation). A copy the server read before the partition's
/// lastHeard would land behind its consistency point, where a later,
/// legitimately short extended report could wrongly salvage it, so it is
/// dropped rather than cached.
template <class T>
[[nodiscard]] constexpr bool acceptsFetchedCopy(T readTime, T lastHeard) {
  return readTime >= lastHeard;
}

/// The pre-flip consistency point of a cache split across per-shard
/// partitions: the most conservative instant every partition is provably
/// consistent at. That is its lastHeard, or its suspectAsOf where a gap
/// cycle is already running (those suspects are only as current as the
/// pre-gap Tlb). Copies migrated at a reshard re-enter as suspects as of
/// this point, so the epoch switch is handled like a doze that began here.
/// With no partitions added, the point is the epoch, T{}.
template <class T>
class PreFlipPoint {
 public:
  template <class View>
  void add(const View& v) {
    T p = v.lastHeard();
    if (v.suspectCount() > 0) p = std::min(p, v.suspectAsOf());
    point_ = any_ ? std::min(point_, p) : p;
    any_ = true;
  }

  [[nodiscard]] T value() const { return any_ ? point_ : T{}; }

 private:
  T point_{};
  bool any_ = false;
};

/// Epoch-flip rule: a reshard is a doze of the whole cache that began at
/// `preFlip` (the PreFlipPoint over every pre-flip partition). Run on each
/// partition once the flip has moved every copy to its new owner's
/// partition, rebuilt at its new share. All of it goes suspect as of
/// `preFlip` and wakes. A partition the flip creates still has lastHeard
/// at the epoch and starts hearing at `preFlip`; every other partition
/// already heard past it, since its lastHeard went into the point.
template <class View, class T>
void onEpochFlip(View& v, T preFlip) {
  v.setLastHeard(std::max(v.lastHeard(), preFlip));
  v.markAllSuspect(preFlip);
  onWake(v);
}

}  // namespace mci::core::rule
