#include "live/reshard.hpp"

#include <utility>

#include "core/check.hpp"
#include "live/broadcast_server.hpp"

namespace mci::live {

ReshardCoordinator::ReshardCoordinator(Reactor& reactor,
                                       std::vector<BroadcastServer*> members,
                                       ShardMap oldMap, ShardMap newMap,
                                       std::function<void()> onComplete)
    : reactor_(reactor),
      owner_(reactor.makeOwner()),
      members_(std::move(members)),
      oldMap_(std::move(oldMap)),
      newMap_(std::move(newMap)),
      onComplete_(std::move(onComplete)) {
  MCI_CHECK(!members_.empty()) << "reshard with no members";
  MCI_CHECK(oldMap_.valid() && newMap_.valid()) << "reshard needs two maps";
  MCI_CHECK(newMap_.version() > oldMap_.version())
      << "reshard must advance the epoch";
}

ReshardCoordinator::~ReshardCoordinator() {
  if (graceArmed_) {
    MCI_CHECK(reactor_.cancelTimer(graceTimer_))
        << "grace timer vanished before coordinator teardown";
  }
  reactor_.retireOwner(owner_);
}

void ReshardCoordinator::start() {
  MCI_CHECK(phase_ == Phase::kIdle) << "coordinator is single-use";
  // Prepare: freeze before the first handoff byte, on every member — the
  // handed-off snapshots are authoritative only because nothing moves.
  for (BroadcastServer* m : members_) m->beginReshard(oldMap_, newMap_);
  // Backfill. Count down before starting any stream: a member with nothing
  // to migrate completes synchronously inside its startHandoff call.
  phase_ = Phase::kBackfill;
  pendingHandoffs_ = members_.size();
  for (BroadcastServer* m : members_) {
    m->startHandoff([this] { onHandoffDone(); });
  }
}

bool ReshardCoordinator::survives(const BroadcastServer& server) const {
  const ShardEndpoint self = server.selfEndpoint();
  return newMap_.indexOf(self.ipv4, self.tcpPort).has_value();
}

void ReshardCoordinator::onHandoffDone() {
  MCI_CHECK(pendingHandoffs_ > 0) << "handoff completion underflow";
  if (--pendingHandoffs_ == 0) cutover();
}

void ReshardCoordinator::cutover() {
  // Every migrated item now lives (frozen) on its new owner; flip the
  // epoch in one pass so no reactor iteration sees a mixed cluster.
  for (BroadcastServer* m : members_) {
    if (survives(*m)) {
      m->cutoverReshard();
    } else {
      m->retireReshard();
    }
  }
  phase_ = Phase::kGrace;
  graceArmed_ = true;
  graceTimer_ = reactor_.addTimer(
      kGraceWallSeconds, 0,
      [this] {
        graceArmed_ = false;
        finish();
      },
      owner_);
}

void ReshardCoordinator::finish() {
  for (BroadcastServer* m : members_) m->finishReshard();
  phase_ = Phase::kDone;
  if (onComplete_) {
    // The callback may destroy retired members (still in members_) or
    // schedule the next transition; make it the last thing we do.
    std::function<void()> cb = std::move(onComplete_);
    onComplete_ = nullptr;
    cb();
  }
}

}  // namespace mci::live
