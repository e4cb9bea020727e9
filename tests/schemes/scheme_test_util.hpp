#pragma once

// Shared scaffolding for scheme-level unit tests: a size model, a
// recording metrics sink, and a (clock-free) ClientContext with a small
// cache.

#include <cstdint>
#include <vector>

#include "db/update_history.hpp"
#include "schemes/scheme.hpp"

namespace mci::schemes::testutil {

struct RecordingSink final : CacheEventSink {
  struct Invalidation {
    ClientId client;
    db::ItemId item;
    db::Version version;
  };
  std::vector<Invalidation> invalidations;
  std::uint64_t dropEvents = 0;
  std::uint64_t droppedEntries = 0;
  std::uint64_t salvagedEntries = 0;

  void onInvalidate(ClientId client, db::ItemId item,
                    db::Version version) override {
    invalidations.push_back({client, item, version});
  }
  void onCacheDrop(ClientId, std::size_t entries) override {
    ++dropEvents;
    droppedEntries += entries;
  }
  void onSalvage(ClientId, std::size_t entries) override {
    salvagedEntries += entries;
  }

  [[nodiscard]] bool invalidated(db::ItemId item) const {
    for (const auto& i : invalidations) {
      if (i.item == item) return true;
    }
    return false;
  }
};

struct ClientHarness {
  report::SizeModel sizes;
  RecordingSink sink;
  ClientContext ctx;

  explicit ClientHarness(std::size_t numItems = 1000,
                         std::size_t cacheCapacity = 32)
      : sizes(makeSizes(numItems)), ctx(7, cacheCapacity, sizes, &sink) {}

  static report::SizeModel makeSizes(std::size_t numItems) {
    report::SizeModel m;
    m.numItems = numItems;
    m.numClients = 100;
    return m;
  }

  /// Puts a valid entry into the cache.
  void cacheItem(db::ItemId item, double refTime, db::Version version = 1) {
    cache::Entry e;
    e.item = item;
    e.version = version;
    e.refTime = refTime;
    e.suspect = false;
    ctx.cache().insert(e);
  }
};

}  // namespace mci::schemes::testutil
