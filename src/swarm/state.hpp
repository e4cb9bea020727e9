#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/annotations.hpp"
#include "core/check.hpp"
#include "core/client_lifecycle.hpp"
#include "db/item.hpp"
#include "report/codec.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace mci::swarm {

/// Model-time millisecond tick (the sim/time.hpp grid). 32 bits
/// span ~49 days of model time, matching the codec's timestamp field.
using Tick = std::uint32_t;

/// Sentinel for "never": stands in for sim::kTimeInfinity in tick fields
/// (checkDeliveredAt). Strictly greater than any reachable tick.
inline constexpr Tick kNeverTick = ~Tick{0};

/// Flat bit array sized once at configure time; the swarm's per-slot and
/// per-item flags (suspect, clock-used, presence) all live here instead of
/// in per-client objects.
class BitArray {
 public:
  void assign(std::size_t bits, bool value) {
    bits_ = bits;
    words_.assign((bits + 63) / 64, value ? ~std::uint64_t{0} : 0);
  }
  [[nodiscard]] bool get(std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }
  void set(std::size_t i) { words_[i >> 6] |= std::uint64_t{1} << (i & 63); }
  void clear(std::size_t i) {
    words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }
  void put(std::size_t i, bool value) { value ? set(i) : clear(i); }
  [[nodiscard]] std::size_t size() const { return bits_; }
  /// The word holding bit i (prefetch hints).
  [[nodiscard]] const std::uint64_t* wordOf(std::size_t i) const {
    return &words_[i >> 6];
  }
  [[nodiscard]] std::size_t memoryBytes() const {
    return words_.capacity() * sizeof(std::uint64_t);
  }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t bits_ = 0;
};

/// The listed-tick table SwarmState::applyTsEntries reads: per item, the
/// latest tick the current TS report lists it with (0 = unlisted), plus a
/// permanent zero at index dbSize that empty slots read. list() fills it
/// from a report's records (ReportCodec::readTs); clear() with the same
/// records zeroes just those items again, so no report pays for a memset
/// of the whole table.
class ListedTicks {
 public:
  ListedTicks() = default;
  /// dbSize + 1 zero ticks.
  explicit ListedTicks(std::uint32_t dbSize)
      : tick_(static_cast<std::size_t>(dbSize) + 1, 0) {}

  /// Raises every record's item to the latest tick listed for it.
  void list(const std::vector<report::TsRecord>& records);
  /// Zeroes the items `records` listed; must follow every list().
  void clear(const std::vector<report::TsRecord>& records);

  [[nodiscard]] const Tick* data() const { return tick_.data(); }
  [[nodiscard]] Tick operator[](db::ItemId item) const { return tick_[item]; }

 private:
  std::vector<Tick> tick_;
  bool listed_ = false;  ///< list() ran and clear() has not yet
};

/// Struct-of-arrays state for the whole emulated population.
///
/// This is the vectorized analogue of ClientAgent + ClientContext +
/// cache::LruCache: no per-client heap objects, no per-client sockets —
/// every field of every client lives in one flat array indexed by client
/// (or client*shards+shard, or client*slotsPerClient+slot). One report
/// decode is applied across all awake clients by walking these arrays.
///
/// The cache is a per-(client, shard) partition of `slotsPerClient` slots
/// (live::ShardMap::cacheShare, the split ClientAgent uses too)
/// with CLOCK (second-chance) replacement: a per-slot used bit plus a
/// per-partition hand approximates the sim's exact LRU within the parity
/// tolerance while keeping eviction branch-light and allocation-free. An
/// optional per-client presence bitmap over the database lets lookup and
/// insert rule out an uncached item in O(1); when clients*dbSize would
/// exceed the bitmap budget they scan the (small) partition instead. A TS
/// report does not probe it: applyTsEntries makes one pass over each
/// partition's slots against the report's per-item tick table.
struct SwarmState {
  static constexpr std::uint32_t kMaxQueryItems = 16;
  /// needAnswer is a 32-bit mask over shards.
  static constexpr std::uint32_t kMaxShards = 32;
  static constexpr db::ItemId kEmptySlot = ~db::ItemId{0};
  /// Presence bitmap budget: 2^36 bits = 8 GiB of flags at the 10^6-client
  /// x 64k-item corner; beyond that the scan fallback wins on RSS.
  static constexpr std::uint64_t kMaxPresenceBits = std::uint64_t{1} << 36;

  // --- sizing (fixed at configure) ---
  std::uint32_t clients = 0;
  std::uint32_t shards = 0;
  std::uint32_t dbSize = 0;
  std::uint32_t slotsPerClient = 0;        ///< sum of per-shard shares
  std::vector<std::uint32_t> shardSlotOff; ///< shards+1 partition offsets
  bool presenceEnabled = false;

  // --- per-client scalars ---
  /// The lifecycle phase; deadlines are resolved lazily at report ticks.
  std::vector<core::lifecycle::Phase> phase;
  /// Model s; valid while thinking. While dozing: the parked remaining
  /// think of an interval-coin doze.
  std::vector<double> thinkDeadline;
  std::vector<double> dozeEnd;        ///< model s; valid while kDozing
  BitArray queryAfterWake;            ///< post-query doze: query on wake
  std::vector<sim::Rng> rngQuery;     ///< fork("query", c): think + items
  std::vector<sim::Rng> rngDisc;      ///< fork("disc", c): coins + durations
  std::vector<db::ItemId> queryItems; ///< clients * kMaxQueryItems
  std::vector<std::uint8_t> queryCount;
  std::vector<std::uint32_t> needAnswer; ///< bitmask over shards (<= 32)
  std::vector<double> queryStart;        ///< model s the query was issued

  // --- cache slots: clients * slotsPerClient ---
  std::vector<db::ItemId> slotItem;     ///< kEmptySlot when free
  std::vector<Tick> slotRef;            ///< refTime on the ms grid
  std::vector<db::Version> slotVersion; ///< for the stale-read audit
  BitArray slotSuspect;
  BitArray slotUsed; ///< CLOCK reference bit
  BitArray presence; ///< clients * dbSize, when presenceEnabled

  // --- per-(client, shard) cache bookkeeping ---
  std::vector<std::uint16_t> clockHand;    ///< next eviction probe
  std::vector<std::uint16_t> occupancy;    ///< live slots in the partition
  std::vector<std::uint16_t> suspectCount; ///< suspect slots in partition

  // --- per-(client, shard) scheme state (AdaptiveClientScheme fields) ---
  // All three timestamps live on the ms-tick grid, so every comparison the
  // scheme makes (covers(), checkDeliveredAt < broadcastTime, rec.time >
  // refTime) is an exact integer compare — the pool's double comparisons
  // of dequantized values, minus the doubles.
  std::vector<Tick> lastHeard;
  std::vector<Tick> suspectAsOf;
  std::vector<Tick> checkDeliveredAt; ///< kNeverTick = no ack yet
  BitArray salvagePending;
  BitArray checkSent;

  /// Sizes every array for `clients` clients against a `shards`-shard
  /// cluster, splitting `cacheCapacity` slots per client across shards
  /// by live::ShardMap::cacheShare, as ClientAgent does. Seeds client c's
  /// RNG streams as Rng(seed).fork("query", c) / fork("disc", c) — the
  /// simulator's and ClientPool's per-client streams, which is what makes
  /// a swarm run replayable and statistically comparable to a pool run of
  /// equal seed.
  void configure(std::uint32_t numClients, std::uint32_t numShards,
                 std::uint32_t databaseSize, std::uint32_t cacheCapacity,
                 std::uint64_t seed);

  /// Re-partitions for a new shard count mid-run (reshard epoch flip).
  /// Per-client scalars and RNG streams survive untouched; cache slots are
  /// laid out fresh for the new split and every surviving entry is
  /// re-inserted into the partition `ownerOf(item)` names (CLOCK eviction
  /// absorbs overflow into now-smaller shares). Per-(client, shard) scheme
  /// state is zeroed for surviving indices except lastHeard, which carries
  /// over — surviving endpoints keep their indices across every cluster
  /// transition. The caller re-establishes suspect/gap state wholesale.
  /// Cold path (one call per epoch switch); the std::function is fine.
  void resizeShards(std::uint32_t numShards, std::uint32_t cacheCapacity,
                    const std::function<std::uint32_t(db::ItemId)>& ownerOf);

  // --- indexing helpers ---
  [[nodiscard]] std::size_t cs(std::uint32_t c, std::uint32_t s) const {
    return static_cast<std::size_t>(c) * shards + s;
  }
  [[nodiscard]] std::size_t slotIndex(std::uint32_t c,
                                      std::uint32_t slot) const {
    return static_cast<std::size_t>(c) * slotsPerClient + slot;
  }
  [[nodiscard]] std::size_t presenceIndex(std::uint32_t c,
                                          db::ItemId item) const {
    return static_cast<std::size_t>(c) * dbSize + item;
  }
  [[nodiscard]] std::uint32_t shareOf(std::uint32_t s) const {
    return shardSlotOff[s + 1] - shardSlotOff[s];
  }

  // --- cache kernels (the ClientContext operations, vectorizable form) ---

  /// Slot of `item` in client c's shard-s partition, or -1. O(1) presence
  /// test first when the bitmap is enabled.
  [[nodiscard]] MCI_HOT int findSlot(std::uint32_t c, std::uint32_t s,
                                     db::ItemId item) const;

  /// Inserts (item, ref, version) into the partition, evicting via CLOCK
  /// when full. No-op refresh if the item is already cached.
  void insert(std::uint32_t c, std::uint32_t s, db::ItemId item, Tick ref,
              db::Version version);

  /// Invalidates the slot (ClientContext::invalidate of a found entry);
  /// the slot must hold an item.
  MCI_HOT void invalidateSlot(std::uint32_t c, std::uint32_t s,
                              std::uint32_t slot);

  /// Marks every cached entry of the partition suspect; returns the count.
  std::uint32_t markAllSuspectPartition(std::uint32_t c, std::uint32_t s);

  /// Clears all suspect marks, stamping refTime (salvageAllSuspects).
  void salvagePartition(std::uint32_t c, std::uint32_t s, Tick refTime);

  /// Drops every suspect entry of the partition (dropSuspects).
  void dropSuspectsPartition(std::uint32_t c, std::uint32_t s);

  /// Drops the whole partition (the BS kDropAll action).
  void dropPartition(std::uint32_t c, std::uint32_t s);

  /// applyTsEntries for one TS report: invalidates every entry of the
  /// partition whose item the report lists with a tick later than its
  /// refTime. `listedTick` holds dbSize + 1 ticks: per item the latest
  /// tick the report lists it with (0 = unlisted; refTime >= 0, so 0 never
  /// invalidates), and a zero at index dbSize that empty slots read. One
  /// pass over the partition's slots, no presence probe and no search.
  MCI_HOT void applyTsEntries(std::uint32_t c, std::uint32_t s,
                              const Tick* listedTick);

  /// Approximate resident footprint of the arrays (stats/logs).
  [[nodiscard]] std::size_t memoryBytes() const;

 private:
  /// Splits the cache across `numShards` partitions and sizes (zeroed)
  /// every per-slot and per-(client, shard) array for it.
  void layoutShards(std::uint32_t numShards, std::uint32_t cacheCapacity);
};

/// One (client, shard) partition of a SwarmState as the state view the
/// adaptive client rule (core/client_rule.hpp) and schemes::applyBsDecision
/// run over: the calls ClientContext answers for the sim and ClientAgent,
/// served from the column arrays with Tick times. Three words; build one
/// per rule call.
class PartitionView {
 public:
  PartitionView(SwarmState& st, std::uint32_t c, std::uint32_t s)
      : st_(st), c_(c), s_(s), idx_(st.cs(c, s)) {}

  [[nodiscard]] std::size_t suspectCount() const {
    return st_.suspectCount[idx_];
  }
  [[nodiscard]] Tick lastHeard() const { return st_.lastHeard[idx_]; }
  void setLastHeard(Tick t) { st_.lastHeard[idx_] = t; }
  [[nodiscard]] Tick suspectAsOf() const { return st_.suspectAsOf[idx_]; }
  [[nodiscard]] bool salvagePending() const {
    return st_.salvagePending.get(idx_);
  }
  void setSalvagePending(bool v) { st_.salvagePending.put(idx_, v); }
  [[nodiscard]] bool checkSent() const { return st_.checkSent.get(idx_); }
  void setCheckSent(bool v) { st_.checkSent.put(idx_, v); }
  [[nodiscard]] Tick checkDeliveredAt() const {
    return st_.checkDeliveredAt[idx_];
  }
  void setCheckDeliveredAt(Tick t) { st_.checkDeliveredAt[idx_] = t; }

  void markAllSuspect(Tick preGapTlb) {
    st_.suspectAsOf[idx_] = preGapTlb;
    st_.markAllSuspectPartition(c_, s_);
  }
  void salvageAllSuspects(Tick refTime) {
    st_.salvagePartition(c_, s_, refTime);
  }
  void dropSuspects() { st_.dropSuspectsPartition(c_, s_); }
  void dropAll() { st_.dropPartition(c_, s_); }
  void invalidate(db::ItemId item) {
    const int slot = st_.findSlot(c_, s_, item);
    if (slot >= 0) st_.invalidateSlot(c_, s_, static_cast<std::uint32_t>(slot));
  }
  void clearGapState() {
    st_.salvagePending.clear(idx_);
    st_.checkSent.clear(idx_);
    st_.checkDeliveredAt[idx_] = kNeverTick;
    st_.suspectAsOf[idx_] = 0;
  }
  void restartGapCycle() {
    setSalvagePending(suspectCount() > 0);
    st_.checkSent.clear(idx_);
    st_.checkDeliveredAt[idx_] = kNeverTick;
  }

 private:
  SwarmState& st_;
  std::uint32_t c_;
  std::uint32_t s_;
  std::size_t idx_;
};

/// The state half of the lifecycle view (core/client_lifecycle.hpp) over
/// one client row of a SwarmState, partitions keyed by shard index. The
/// emulator's view derives from it and adds the mechanics.
class ClientRow {
 public:
  /// A cache lookup: the slot (-1 when absent) and its flat index.
  struct Slot {
    int slot;
    std::size_t index;
  };

  ClientRow(SwarmState& st, std::uint32_t c) : st_(st), c_(c) {}

  core::lifecycle::Phase phase() const { return st_.phase[c_]; }
  void setPhase(core::lifecycle::Phase p) { st_.phase[c_] = p; }
  double thinkDeadline() const { return st_.thinkDeadline[c_]; }
  void setThinkDeadline(double t) { st_.thinkDeadline[c_] = t; }
  bool queryAfterWake() const { return st_.queryAfterWake.get(c_); }
  void setQueryAfterWake(bool b) { st_.queryAfterWake.put(c_, b); }
  sim::Rng& dozeRng() { return st_.rngDisc[c_]; }

  template <class F>
  void forEachPartition(F&& f) {
    for (std::uint32_t s = 0; s < st_.shards; ++s) {
      PartitionView p(st_, c_, s);
      f(p);
    }
  }
  /// Shard 0's reports mark the broadcast intervals.
  static bool isCoinPartition(std::uint32_t s) { return s == 0; }
  bool owes(std::uint32_t s) const { return (st_.needAnswer[c_] >> s & 1u); }
  void settleOwed(std::uint32_t s) { st_.needAnswer[c_] &= ~(1u << s); }
  bool anyOwed() const { return st_.needAnswer[c_] != 0; }
  /// The query's items: queryCount of them.
  db::ItemId* queryItems() {
    return &st_.queryItems[std::size_t{c_} * SwarmState::kMaxQueryItems];
  }
  /// The query hooks of lifecycle::onEpochFlip, over maps with shardOf.
  /// keepQueryItems compacts the query to the items whose leg under the
  /// pre-flip map passes `owed`, so forEachQueryItem never sees an answered
  /// one; oweQueryItems owes each item at its shard under `map`.
  template <class Map, class Owed>
  void keepQueryItems(const Map& preFlip, Owed&& owed) {
    db::ItemId* items = queryItems();
    std::uint8_t kept = 0;
    for (std::uint8_t i = 0; i < st_.queryCount[c_]; ++i) {
      if (owed(preFlip.shardOf(items[i]))) items[kept++] = items[i];
    }
    st_.queryCount[c_] = kept;
  }
  template <class Map>
  void oweQueryItems(const Map& map) {
    std::uint32_t mask = 0;
    for (std::uint8_t i = 0; i < st_.queryCount[c_]; ++i) {
      mask |= 1u << map.shardOf(queryItems()[i]);
    }
    st_.needAnswer[c_] = mask;
  }
  bool salvagePending(std::uint32_t s) const {
    return st_.salvagePending.get(st_.cs(c_, s));
  }
  Tick lastHeard(std::uint32_t s) const { return st_.lastHeard[st_.cs(c_, s)]; }
  Slot lookup(std::uint32_t s, db::ItemId item) const {
    const int slot = st_.findSlot(c_, s, item);
    const auto u = static_cast<std::uint32_t>(slot);
    return {slot, slot >= 0 ? st_.slotIndex(c_, u) : 0};
  }
  static bool present(Slot h) { return h.slot >= 0; }
  bool suspect(Slot h) const { return st_.slotSuspect.get(h.index); }

 protected:
  SwarmState& st_;
  std::uint32_t c_;
};

}  // namespace mci::swarm
