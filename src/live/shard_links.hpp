#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/check.hpp"
#include "live/shard_map.hpp"

namespace mci::live {

/// True when `announced` moves a client at `installed` to a newer epoch.
/// A cutover reaches a client on every uplink and IR downlink; each copy
/// after the first, like any replayed older map, is stale.
[[nodiscard]] inline bool advancesEpoch(const ShardMap& installed,
                                        const ShardMap& announced) {
  return announced.valid() && announced.version() > installed.version();
}

/// A client's membership in a sharded cluster, kept once for ClientAgent
/// and the swarm's UplinkMux: the installed map, one link per slot (before
/// the first map, the lone seed link) and the links a reshard retired.
/// `Link` carries `std::uint32_t shard` (kUnplaced without a slot) and
/// `ShardEndpoint endpoint`, where its sockets were opened. Links never
/// move: reactor handlers capture them, and a flip may run inside a handler
/// of the link it retires, which therefore lives on in retired().
template <class Link>
class ShardLinks {
 public:
  static constexpr std::uint32_t kUnplaced = 0xFFFFFFFFu;

  /// Installs the seed link, dialed before any map is known.
  Link& seed(std::unique_ptr<Link> link) {
    MCI_CHECK(slots_.empty()) << "ShardLinks: one seed link, first";
    link->shard = kUnplaced;
    slots_.push_back(std::move(link));
    return *slots_.back();
  }

  /// The installed map; invalid until the first follow().
  [[nodiscard]] const ShardMap& map() const { return map_; }
  /// Links by slot. An entry is null only after a dial threw.
  [[nodiscard]] const std::vector<std::unique_ptr<Link>>& slots() const {
    return slots_;
  }
  [[nodiscard]] const std::vector<std::unique_ptr<Link>>& retired() const {
    return retired_;
  }
  [[nodiscard]] Link& at(std::uint32_t slot) const {
    MCI_DCHECK(slot < slots_.size() && slots_[slot] != nullptr)
        << "ShardLinks: no link at slot " << slot;
    return *slots_[slot];
  }
  /// Visits every link: placed ones in slot order, then retired ones.
  template <class F>
  void forEach(F&& f) const {
    for (const auto* set : {&slots_, &retired_}) {
      for (const auto& link : *set) {
        if (link != nullptr) f(*link);
      }
    }
  }

  /// Installs `map`. On the first map the seed link takes `seedSlot`, the
  /// slot its Welcome names; on a later one, which must advance the epoch,
  /// each link moves to `map.indexOf` its endpoint (a daemon keeps its
  /// (ipv4, tcpPort) across epochs, not its slot). Then `retire(link)` sees
  /// each link left without a slot or whose slot an earlier link took.
  /// Last, slot by slot, `dial(slot, entry)` returns a link for an empty
  /// slot, and `regroup(link, entry)` sees a placed link whose entry names
  /// a multicast group it has not joined (the seed, dialed before the map
  /// was known). If a hook throws, every link is still reachable from
  /// slots() or retired().
  template <class Dial, class Retire, class Regroup>
  void follow(const ShardMap& map, std::uint32_t seedSlot, Dial&& dial,
              Retire&& retire, Regroup&& regroup) {
    std::vector<std::unique_ptr<Link>> bySlot(map.shardCount());
    const std::size_t firstRetired = retired_.size();
    if (!map_.valid()) {
      MCI_CHECK(slots_.size() == 1 && seedSlot < map.shardCount())
          << "ShardLinks: bad seed slot " << seedSlot;
      bySlot[seedSlot] = std::move(slots_.front());
    } else {
      MCI_DCHECK(advancesEpoch(map_, map)) << "ShardLinks: stale map";
      for (auto& link : slots_) {
        if (link == nullptr) continue;
        const std::optional<std::uint32_t> s =
            map.indexOf(link->endpoint.ipv4, link->endpoint.tcpPort);
        if (s && bySlot[*s] == nullptr) {
          bySlot[*s] = std::move(link);
        } else {
          link->shard = kUnplaced;
          retired_.push_back(std::move(link));
        }
      }
    }
    slots_ = std::move(bySlot);
    map_ = map;

    for (std::size_t i = firstRetired; i < retired_.size(); ++i) {
      retire(*retired_[i]);
    }
    for (std::uint32_t s = 0; s < map.shardCount(); ++s) {
      const ShardEndpoint& ep = map.endpoint(s);
      if (slots_[s] == nullptr) {
        slots_[s] = dial(s, ep);
      } else if (ep.multicastIpv4 != 0 && slots_[s]->endpoint != ep) {
        regroup(*slots_[s], ep);
      }
      slots_[s]->shard = s;
      slots_[s]->endpoint = ep;
    }
  }

 private:
  ShardMap map_;
  std::vector<std::unique_ptr<Link>> slots_;
  std::vector<std::unique_ptr<Link>> retired_;
};

}  // namespace mci::live
