// Differential test of the swarm's TS report apply. SwarmState::
// applyTsEntries makes one pass over a partition's slots against the
// report's listed-tick table (ListedTicks). The reference below is the
// entry-major loop it replaced: per entry, find the item's slot and
// invalidate it when the entry's tick is later than the slot's refTime.
// Random populations of 1-3 shards, with partial and full partitions,
// suspect and empty slots, duplicate and tick-0 entries, go through both;
// every slot column, bit array and per-partition counter must agree after
// every report.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/random.hpp"
#include "swarm/state.hpp"

namespace mci::swarm {
namespace {

/// The entry-major reference: one findSlot per entry.
void applyEntryMajor(SwarmState& st, std::uint32_t c, std::uint32_t s,
                     const std::vector<report::TsRecord>& entries) {
  for (const report::TsRecord& e : entries) {
    const int slot = st.findSlot(c, s, e.item);
    if (slot < 0) continue;
    const auto u = static_cast<std::uint32_t>(slot);
    if (e.tick > st.slotRef[st.slotIndex(c, u)]) st.invalidateSlot(c, s, u);
  }
}

std::uint32_t draw(sim::Rng& rng, std::uint32_t lo, std::uint32_t hi) {
  return static_cast<std::uint32_t>(rng.uniformInt(lo, hi));
}

void expectSameBits(const BitArray& a, const BitArray& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.get(i), b.get(i)) << what << " bit " << i;
  }
}

void expectSameState(const SwarmState& a, const SwarmState& b) {
  EXPECT_EQ(a.slotItem, b.slotItem);
  EXPECT_EQ(a.slotRef, b.slotRef);
  EXPECT_EQ(a.slotVersion, b.slotVersion);
  expectSameBits(a.slotSuspect, b.slotSuspect, "slotSuspect");
  expectSameBits(a.slotUsed, b.slotUsed, "slotUsed");
  expectSameBits(a.presence, b.presence, "presence");
  EXPECT_EQ(a.clockHand, b.clockHand);
  EXPECT_EQ(a.occupancy, b.occupancy);
  EXPECT_EQ(a.suspectCount, b.suspectCount);
}

/// Fills a random population: item i lives in partition i % shards, refs
/// and versions are small so entry ticks often tie with them, some
/// partitions are marked suspect and then partly refreshed, and some slots
/// are invalidated again to leave holes.
SwarmState randomPopulation(sim::Rng& rng) {
  SwarmState st;
  const std::uint32_t clients = draw(rng, 1, 4);
  const std::uint32_t shards = draw(rng, 1, 3);
  const std::uint32_t dbSize = draw(rng, 8, 120);
  const std::uint32_t capacity = draw(rng, 1, 24);
  st.configure(clients, shards, dbSize, capacity, rng.bits());
  for (std::uint32_t c = 0; c < clients; ++c) {
    const std::uint32_t inserts = draw(rng, 0, 2 * capacity);
    for (std::uint32_t k = 0; k < inserts; ++k) {
      const db::ItemId item = draw(rng, 0, dbSize - 1);
      st.insert(c, item % shards, item, draw(rng, 0, 12), draw(rng, 1, 9));
      if (rng.bernoulli(0.1)) st.markAllSuspectPartition(c, item % shards);
    }
    for (std::uint32_t slot = 0; slot < st.slotsPerClient; ++slot) {
      if (!rng.bernoulli(0.15) ||
          st.slotItem[st.slotIndex(c, slot)] == SwarmState::kEmptySlot) {
        continue;
      }
      std::uint32_t s = 0;
      while (st.shardSlotOff[s + 1] <= slot) ++s;
      st.invalidateSlot(c, s, slot);
    }
  }
  return st;
}

/// A report's entries: ids anywhere in the database (the last item often,
/// since empty slots must not read its tick), ticks in the refs' range
/// with zeros, and repeats of earlier entries with a new tick.
std::vector<report::TsRecord> randomEntries(sim::Rng& rng,
                                            std::uint32_t dbSize) {
  std::vector<report::TsRecord> entries;
  const std::uint32_t n = draw(rng, 0, 2 * dbSize);
  for (std::uint32_t k = 0; k < n; ++k) {
    report::TsRecord e;
    if (!entries.empty() && rng.bernoulli(0.2)) {
      e.item = entries[draw(rng, 0, static_cast<std::uint32_t>(
                                         entries.size() - 1))]
                   .item;
    } else if (rng.bernoulli(0.1)) {
      e.item = dbSize - 1;
    } else {
      e.item = draw(rng, 0, dbSize - 1);
    }
    e.tick = rng.bernoulli(0.15) ? 0 : draw(rng, 0, 14);
    entries.push_back(e);
  }
  return entries;
}

TEST(TsApply, SlotMajorPassMatchesEntryMajorLoop) {
  sim::Rng rng(20260517);
  std::uint64_t invalidated = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    SwarmState slotMajor = randomPopulation(rng);
    SwarmState entryMajor = slotMajor;
    ListedTicks listed(slotMajor.dbSize);
    for (int report = 0; report < 3; ++report) {
      const std::vector<report::TsRecord> entries =
          randomEntries(rng, slotMajor.dbSize);
      const std::uint32_t s = draw(rng, 0, slotMajor.shards - 1);
      listed.list(entries);
      ASSERT_EQ(listed[slotMajor.dbSize], 0u) << "the sentinel must stay zero";
      for (std::uint32_t c = 0; c < slotMajor.clients; ++c) {
        const std::uint16_t before = slotMajor.occupancy[slotMajor.cs(c, s)];
        slotMajor.applyTsEntries(c, s, listed.data());
        applyEntryMajor(entryMajor, c, s, entries);
        invalidated += before - slotMajor.occupancy[slotMajor.cs(c, s)];
      }
      listed.clear(entries);
      expectSameState(slotMajor, entryMajor);
      if (HasFatalFailure() || HasNonfatalFailure()) {
        FAIL() << "diverged at trial " << trial << " report " << report;
      }
    }
  }
  // The inputs must actually exercise the invalidation branch.
  EXPECT_GT(invalidated, 5000u);
}

// Duplicate entries: the latest listed tick decides, wherever it sits in
// the report.
TEST(TsApply, LatestDuplicateTickDecides) {
  SwarmState st;
  st.configure(1, 1, 16, 4, 1);
  st.insert(0, 0, 5, /*ref=*/10, /*version=*/1);
  ListedTicks listed(st.dbSize);
  listed.list({{5, 11}, {5, 3}});
  EXPECT_EQ(listed[5], 11u);
  st.applyTsEntries(0, 0, listed.data());
  EXPECT_EQ(st.findSlot(0, 0, 5), -1) << "the later tick must invalidate";

  // A tick equal to refTime is not later; neither is tick 0.
  st.insert(0, 0, 6, /*ref=*/10, /*version=*/1);
  listed.clear({{5, 11}, {5, 3}});
  EXPECT_EQ(listed[5], 0u);
  listed.list({{6, 10}, {6, 0}});
  st.applyTsEntries(0, 0, listed.data());
  EXPECT_GE(st.findSlot(0, 0, 6), 0);
}

}  // namespace
}  // namespace mci::swarm
