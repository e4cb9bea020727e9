#include "swarm/state.hpp"

#include <algorithm>

namespace mci::swarm {

void SwarmState::configure(std::uint32_t numClients, std::uint32_t numShards,
                           std::uint32_t databaseSize,
                           std::uint32_t cacheCapacity, std::uint64_t seed) {
  MCI_CHECK(numClients >= 1);
  MCI_CHECK(databaseSize >= 1);
  clients = numClients;
  dbSize = databaseSize;

  const std::size_t nc = clients;
  state.assign(nc, ClientState::kThinking);
  thinkDeadline.assign(nc, 0.0);
  dozeEnd.assign(nc, 0.0);
  queryAfterWake.assign(nc, false);
  queryItems.assign(nc * kMaxQueryItems, db::kInvalidItem);
  queryCount.assign(nc, 0);
  needAnswer.assign(nc, 0);
  queryStart.assign(nc, 0.0);

  rngQuery.clear();
  rngDisc.clear();
  rngQuery.reserve(nc);
  rngDisc.reserve(nc);
  const sim::Rng root(seed);
  for (std::uint32_t c = 0; c < clients; ++c) {
    rngQuery.push_back(root.fork("query", c));
    rngDisc.push_back(root.fork("disc", c));
  }

  presenceEnabled =
      static_cast<std::uint64_t>(clients) * dbSize <= kMaxPresenceBits;
  layoutShards(numShards, cacheCapacity);
}

void SwarmState::layoutShards(std::uint32_t numShards,
                              std::uint32_t cacheCapacity) {
  MCI_CHECK(numShards >= 1 && numShards <= 32)
      << "swarm needAnswer mask holds at most 32 shards";
  shards = numShards;

  // The exact capacity split ClientAgent::onWelcome performs: base share
  // plus one extra slot for the first capacity % shards shards, floor 1.
  shardSlotOff.assign(shards + 1, 0);
  for (std::uint32_t s = 0; s < shards; ++s) {
    std::uint32_t share = cacheCapacity / shards +
                          (s < cacheCapacity % shards ? 1u : 0u);
    share = std::max<std::uint32_t>(share, 1);
    MCI_CHECK(share <= 0xFFFF) << "per-shard cache share exceeds uint16";
    shardSlotOff[s + 1] = shardSlotOff[s] + share;
  }
  slotsPerClient = shardSlotOff[shards];

  const std::size_t ncs = static_cast<std::size_t>(clients) * shards;
  const std::size_t nslots = static_cast<std::size_t>(clients) * slotsPerClient;
  slotItem.assign(nslots, kEmptySlot);
  slotRef.assign(nslots, 0);
  slotVersion.assign(nslots, 0);
  slotSuspect.assign(nslots, false);
  slotUsed.assign(nslots, false);
  presence.assign(
      presenceEnabled ? static_cast<std::uint64_t>(clients) * dbSize : 0,
      false);

  clockHand.assign(ncs, 0);
  occupancy.assign(ncs, 0);
  suspectCount.assign(ncs, 0);

  lastHeard.assign(ncs, 0);   // tick 0 == sim::kTimeEpoch
  suspectAsOf.assign(ncs, 0);
  checkDeliveredAt.assign(ncs, kNeverTick);
  salvagePending.assign(ncs, false);
  checkSent.assign(ncs, false);
}

void SwarmState::resizeShards(
    std::uint32_t numShards, std::uint32_t cacheCapacity,
    const std::function<std::uint32_t(db::ItemId)>& ownerOf) {
  const std::uint32_t oldShards = shards;
  const std::uint32_t oldSlots = slotsPerClient;
  std::vector<db::ItemId> oldItem = std::move(slotItem);
  std::vector<Tick> oldRef = std::move(slotRef);
  std::vector<db::Version> oldVersion = std::move(slotVersion);
  std::vector<Tick> oldLastHeard = std::move(lastHeard);

  layoutShards(numShards, cacheCapacity);

  const std::uint32_t survivors = std::min(oldShards, shards);
  for (std::uint32_t c = 0; c < clients; ++c) {
    for (std::uint32_t s = 0; s < survivors; ++s) {
      lastHeard[cs(c, s)] =
          oldLastHeard[static_cast<std::size_t>(c) * oldShards + s];
    }
    const std::size_t base = static_cast<std::size_t>(c) * oldSlots;
    for (std::uint32_t slot = 0; slot < oldSlots; ++slot) {
      const db::ItemId item = oldItem[base + slot];
      if (item == kEmptySlot) continue;
      insert(c, ownerOf(item), item, oldRef[base + slot],
             oldVersion[base + slot]);
    }
  }
}

int SwarmState::findSlot(std::uint32_t c, std::uint32_t s,
                         db::ItemId item) const {
  if (presenceEnabled && !presence.get(presenceIndex(c, item))) return -1;
  const std::uint32_t lo = shardSlotOff[s];
  const std::uint32_t hi = shardSlotOff[s + 1];
  const std::size_t base = slotIndex(c, 0);
  for (std::uint32_t slot = lo; slot < hi; ++slot) {
    if (slotItem[base + slot] == item) return static_cast<int>(slot);
  }
  return -1;
}

void SwarmState::insert(std::uint32_t c, std::uint32_t s, db::ItemId item,
                        Tick ref, db::Version version) {
  const std::size_t base = slotIndex(c, 0);
  const std::uint32_t lo = shardSlotOff[s];
  const std::uint32_t hi = shardSlotOff[s + 1];
  const std::size_t csIdx = cs(c, s);

  int slot = findSlot(c, s, item);
  if (slot < 0) {
    if (occupancy[csIdx] < hi - lo) {
      // Free slot exists; take the first one.
      for (std::uint32_t i = lo; i < hi; ++i) {
        if (slotItem[base + i] == kEmptySlot) {
          slot = static_cast<int>(i);
          break;
        }
      }
      MCI_CHECK(slot >= 0) << "occupancy disagrees with slot scan";
      ++occupancy[csIdx];
    } else {
      // CLOCK eviction: sweep from the hand clearing used bits until an
      // unused slot is found. Bounded by 2 * share iterations.
      const std::uint32_t share = hi - lo;
      std::uint32_t hand = clockHand[csIdx];
      for (std::uint32_t step = 0; step < 2 * share; ++step) {
        const std::size_t idx = base + lo + hand;
        if (!slotUsed.get(idx)) {
          slot = static_cast<int>(lo + hand);
          break;
        }
        slotUsed.clear(idx);
        hand = hand + 1 == share ? 0 : hand + 1;
      }
      if (slot < 0) slot = static_cast<int>(lo + hand);  // all used: evict
      clockHand[csIdx] =
          static_cast<std::uint16_t>((static_cast<std::uint32_t>(slot) - lo +
                                      1) %
                                     share);
      const std::size_t victimIdx = base + static_cast<std::uint32_t>(slot);
      const db::ItemId victim = slotItem[victimIdx];
      if (presenceEnabled && victim != kEmptySlot) {
        presence.clear(presenceIndex(c, victim));
      }
      if (slotSuspect.get(victimIdx)) {
        slotSuspect.clear(victimIdx);
        --suspectCount[csIdx];
      }
    }
  }

  const std::size_t idx = base + static_cast<std::uint32_t>(slot);
  if (slotSuspect.get(idx)) {
    slotSuspect.clear(idx);
    --suspectCount[csIdx];
  }
  slotItem[idx] = item;
  slotRef[idx] = ref;
  slotVersion[idx] = version;
  slotUsed.set(idx);
  if (presenceEnabled) presence.set(presenceIndex(c, item));
}

void SwarmState::invalidateSlot(std::uint32_t c, std::uint32_t s,
                                std::uint32_t slot) {
  const std::size_t idx = slotIndex(c, slot);
  const db::ItemId item = slotItem[idx];
  if (item == kEmptySlot) return;
  const std::size_t csIdx = cs(c, s);
  if (presenceEnabled) presence.clear(presenceIndex(c, item));
  if (slotSuspect.get(idx)) {
    slotSuspect.clear(idx);
    --suspectCount[csIdx];
  }
  slotItem[idx] = kEmptySlot;
  slotUsed.clear(idx);
  --occupancy[csIdx];
}

std::uint32_t SwarmState::markAllSuspectPartition(std::uint32_t c,
                                                  std::uint32_t s) {
  const std::size_t base = slotIndex(c, 0);
  const std::uint32_t lo = shardSlotOff[s];
  const std::uint32_t hi = shardSlotOff[s + 1];
  std::uint32_t marked = 0;
  for (std::uint32_t slot = lo; slot < hi; ++slot) {
    const std::size_t idx = base + slot;
    if (slotItem[idx] == kEmptySlot || slotSuspect.get(idx)) continue;
    slotSuspect.set(idx);
    ++marked;
  }
  suspectCount[cs(c, s)] =
      static_cast<std::uint16_t>(suspectCount[cs(c, s)] + marked);
  return suspectCount[cs(c, s)];
}

void SwarmState::salvagePartition(std::uint32_t c, std::uint32_t s,
                                  Tick refTime) {
  const std::size_t base = slotIndex(c, 0);
  const std::uint32_t lo = shardSlotOff[s];
  const std::uint32_t hi = shardSlotOff[s + 1];
  const std::size_t csIdx = cs(c, s);
  if (suspectCount[csIdx] == 0) return;
  for (std::uint32_t slot = lo; slot < hi; ++slot) {
    const std::size_t idx = base + slot;
    if (!slotSuspect.get(idx)) continue;
    slotSuspect.clear(idx);
    slotRef[idx] = refTime;
  }
  suspectCount[csIdx] = 0;
}

void SwarmState::dropSuspectsPartition(std::uint32_t c, std::uint32_t s) {
  const std::size_t base = slotIndex(c, 0);
  const std::uint32_t lo = shardSlotOff[s];
  const std::uint32_t hi = shardSlotOff[s + 1];
  const std::size_t csIdx = cs(c, s);
  if (suspectCount[csIdx] == 0) return;
  for (std::uint32_t slot = lo; slot < hi; ++slot) {
    const std::size_t idx = base + slot;
    if (!slotSuspect.get(idx)) continue;
    slotSuspect.clear(idx);
    if (presenceEnabled) presence.clear(presenceIndex(c, slotItem[idx]));
    slotItem[idx] = kEmptySlot;
    slotUsed.clear(idx);
    --occupancy[csIdx];
  }
  suspectCount[csIdx] = 0;
}

void SwarmState::dropPartition(std::uint32_t c, std::uint32_t s) {
  const std::size_t base = slotIndex(c, 0);
  const std::uint32_t lo = shardSlotOff[s];
  const std::uint32_t hi = shardSlotOff[s + 1];
  const std::size_t csIdx = cs(c, s);
  for (std::uint32_t slot = lo; slot < hi; ++slot) {
    const std::size_t idx = base + slot;
    if (slotItem[idx] == kEmptySlot) continue;
    if (presenceEnabled) presence.clear(presenceIndex(c, slotItem[idx]));
    slotItem[idx] = kEmptySlot;
    slotUsed.clear(idx);
    slotSuspect.clear(idx);
  }
  occupancy[csIdx] = 0;
  suspectCount[csIdx] = 0;
}

void SwarmState::applyTsEntries(std::uint32_t c, std::uint32_t s,
                                const std::vector<db::ItemId>& items,
                                const std::vector<Tick>& ticks) {
  const std::size_t n = items.size();
  for (std::size_t i = 0; i < n; ++i) {
    const int slot = findSlot(c, s, items[i]);
    if (slot < 0) continue;
    if (ticks[i] > slotRef[slotIndex(c, static_cast<std::uint32_t>(slot))]) {
      invalidateSlot(c, s, static_cast<std::uint32_t>(slot));
    }
  }
}

std::size_t SwarmState::memoryBytes() const {
  std::size_t bytes = 0;
  bytes += state.capacity() * sizeof(ClientState);
  bytes += thinkDeadline.capacity() * sizeof(double);
  bytes += dozeEnd.capacity() * sizeof(double);
  bytes += rngQuery.capacity() * sizeof(sim::Rng);
  bytes += rngDisc.capacity() * sizeof(sim::Rng);
  bytes += queryItems.capacity() * sizeof(db::ItemId);
  bytes += queryCount.capacity();
  bytes += needAnswer.capacity() * sizeof(std::uint32_t);
  bytes += queryStart.capacity() * sizeof(double);
  bytes += slotItem.capacity() * sizeof(db::ItemId);
  bytes += slotRef.capacity() * sizeof(Tick);
  bytes += slotVersion.capacity() * sizeof(db::Version);
  bytes += clockHand.capacity() * sizeof(std::uint16_t);
  bytes += occupancy.capacity() * sizeof(std::uint16_t);
  bytes += suspectCount.capacity() * sizeof(std::uint16_t);
  bytes += lastHeard.capacity() * sizeof(Tick);
  bytes += suspectAsOf.capacity() * sizeof(Tick);
  bytes += checkDeliveredAt.capacity() * sizeof(Tick);
  bytes += queryAfterWake.memoryBytes() + slotSuspect.memoryBytes() +
           slotUsed.memoryBytes() + presence.memoryBytes() +
           salvagePending.memoryBytes() + checkSent.memoryBytes();
  return bytes;
}

}  // namespace mci::swarm
