#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "live/reactor.hpp"
#include "live/shard_map.hpp"

namespace mci::live {

class BroadcastServer;

/// Drives every member of a cluster through one epoch transition
/// oldMap -> newMap (docs/protocols.md, "Resharding"):
///
///   Prepare   beginReshard on every member, joiners and retirees included:
///             items whose owner changes freeze cluster-wide.
///   Backfill  startHandoff on every member: each streams its migrating
///             items (snapshot + history tail) to their new owners and
///             waits for per-destination acks.
///   Cutover   every acked: survivors install the new map and announce it
///             (kMapUpdate on every uplink + the IR downlink); removed
///             shards announce and refuse new Hellos.
///   Grace     kGraceWallSeconds in which old owners still serve frozen
///             migrated items to the fetches, checks and audits a client
///             sent before it flipped; its owed query legs have moved.
///   Finish    freeze and grace end everywhere; onComplete fires (the
///             cluster installs the map and destroys retired daemons).
///
/// One transition at a time; the coordinator is single-use. All phases run
/// on the caller's reactor thread — "atomic" here means no reactor
/// iteration observes a half-cutover cluster.
class ReshardCoordinator {
 public:
  enum class Phase { kIdle, kBackfill, kGrace, kDone };

  /// Wall seconds of post-cutover grace: how long the previous epoch's
  /// owners keep serving frozen migrated items while clients flip. Sized to
  /// client flip latency (one kMapUpdate round trip), not model time.
  static constexpr double kGraceWallSeconds = 0.5;

  ReshardCoordinator(Reactor& reactor, std::vector<BroadcastServer*> members,
                     ShardMap oldMap, ShardMap newMap,
                     std::function<void()> onComplete);
  ~ReshardCoordinator();

  ReshardCoordinator(const ReshardCoordinator&) = delete;
  ReshardCoordinator& operator=(const ReshardCoordinator&) = delete;

  /// Enters Prepare + Backfill. May run all the way to kGrace synchronously
  /// when nothing migrates (the grace timer still separates cutover from
  /// finish so in-flight client traffic drains).
  void start();

  [[nodiscard]] Phase phase() const { return phase_; }
  [[nodiscard]] const ShardMap& newMap() const { return newMap_; }

 private:
  [[nodiscard]] bool survives(const BroadcastServer& server) const;
  void onHandoffDone();
  void cutover();
  void finish();

  Reactor& reactor_;
  /// Registration-owner generation for the grace timer; retired at the end
  /// of ~ReshardCoordinator.
  Reactor::OwnerId owner_ = 0;
  std::vector<BroadcastServer*> members_;
  ShardMap oldMap_;
  ShardMap newMap_;
  std::function<void()> onComplete_;
  Phase phase_ = Phase::kIdle;
  std::size_t pendingHandoffs_ = 0;
  Reactor::TimerHandle graceTimer_;
  bool graceArmed_ = false;
};

}  // namespace mci::live
