#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cache/lru_cache.hpp"
#include "core/annotations.hpp"
#include "db/item.hpp"
#include "net/units.hpp"
#include "report/report.hpp"
#include "report/sizing.hpp"
#include "sim/time.hpp"

namespace mci::schemes {

using ClientId = std::uint32_t;

/// Uplink validity-checking message. Two shapes share this struct:
///  * Tlb feedback (AFW/AAW): `entries` empty, the timestamp is the
///    client's pre-disconnection Tlb. A few dozen bits.
///  * Checking request (TS-with-checking): `entries` lists every suspect
///    cached item with its refTime. Grows with the cache, i.e. with N.
struct CheckMessage {
  ClientId client{0};
  sim::SimTime tlb{0};
  std::vector<db::UpdateRecord> entries;  ///< (item, refTime) pairs
  net::Bits sizeBits{0};
  /// Client-local gap token; a reply is only honoured if the client is
  /// still in the same gap it asked about (guards against replies that
  /// were delayed across a new doze).
  std::uint64_t epoch{0};
};

/// Downlink reply to a checking request: which of the reported entries are
/// stale, as of `asOf` (server time when the check was evaluated).
struct ValidityReply {
  ClientId client{0};
  sim::SimTime asOf{0};
  std::vector<db::ItemId> invalid;
  net::Bits sizeBits{0};
  std::uint64_t epoch{0};  ///< echoed from the CheckMessage
};

/// Observer for cache events, implemented by the metrics collector. The
/// `version` of an invalidated entry lets the collector classify the
/// invalidation as genuine or false (entry was actually still current).
class CacheEventSink {
 public:
  virtual ~CacheEventSink() = default;
  virtual void onInvalidate(ClientId client, db::ItemId item,
                            db::Version version) = 0;
  virtual void onCacheDrop(ClientId client, std::size_t entries) = 0;
  virtual void onSalvage(ClientId client, std::size_t entries) = 0;
};

/// Per-client state shared between the client state machine and the
/// scheme's client half: the cache, the listening timestamps, and the
/// salvage bookkeeping, with metric notifications folded into every
/// mutation. Clock-free: every time it holds arrives as an argument. It is
/// also the object-client view of the adaptive rule (core/client_rule.hpp).
class ClientContext {
 public:
  ClientContext(ClientId id, std::size_t cacheCapacity,
                const report::SizeModel& sizes, CacheEventSink* sink,
                cache::ReplacementPolicy replacement =
                    cache::ReplacementPolicy::kLru);

  [[nodiscard]] ClientId id() const { return id_; }
  [[nodiscard]] cache::LruCache& cache() { return cache_; }
  [[nodiscard]] const cache::LruCache& cache() const { return cache_; }
  [[nodiscard]] const report::SizeModel& sizes() const { return sizes_; }
  [[nodiscard]] std::size_t suspectCount() const {
    return cache_.suspectCount();
  }

  /// Timestamp of the latest invalidation report this client heard (the
  /// paper's Tlb while connected).
  [[nodiscard]] sim::SimTime lastHeard() const { return lastHeard_; }
  void setLastHeard(sim::SimTime t) { lastHeard_ = t; }

  /// The pre-gap validation time: the Tlb the client held when its cache
  /// entries were marked suspect. This — not lastHeard() — is what gets
  /// uplinked to the server and what salvage decisions are made against.
  [[nodiscard]] sim::SimTime suspectAsOf() const { return suspectAsOf_; }

  /// True while queries must not be answered from cache because a salvage
  /// is unresolved (check/Tlb in flight, or awaiting the helping report).
  [[nodiscard]] bool salvagePending() const { return salvagePending_; }
  void setSalvagePending(bool v) { salvagePending_ = v; }

  /// True once the client has uplinked its Tlb/check for the current gap
  /// ("not yet sent Tlb to server" guard of Figures 3/4).
  [[nodiscard]] bool checkSent() const { return checkSent_; }
  void setCheckSent(bool v) { checkSent_ = v; }

  /// When the in-flight check finished crossing the uplink (kTimeInfinity
  /// while unknown). A report broadcast strictly later was built by a
  /// server that had seen the check.
  [[nodiscard]] sim::SimTime checkDeliveredAt() const { return checkDeliveredAt_; }
  void setCheckDeliveredAt(sim::SimTime t) { checkDeliveredAt_ = t; }

  // -- cache mutations (all notify the metrics sink) --

  /// Removes `item` because a report/reply said it is stale.
  void invalidate(db::ItemId item);

  /// Drops the whole cache (TS beyond window, BS beyond TS(B_n)).
  std::size_t dropAll();

  /// Marks every entry suspect and records the pre-gap Tlb.
  std::size_t markAllSuspect(sim::SimTime preGapTlb);

  /// Drops all suspect entries (salvage declined / impossible).
  std::size_t dropSuspects();

  /// Clears the suspect flag of `item` and refreshes its refTime.
  void salvageEntry(db::ItemId item, sim::SimTime refTime);

  /// Salvages every remaining suspect entry at once.
  std::size_t salvageAllSuspects(sim::SimTime refTime);

  /// Resets the gap bookkeeping after a salvage resolves. Also bumps the
  /// check epoch, so replies to checks from the finished gap are ignored.
  void clearGapState();

  /// Token identifying the current gap's check cycle.
  [[nodiscard]] std::uint64_t checkEpoch() const { return checkEpoch_; }

  /// Restarts the salvage cycle for an *extended* gap: the client dozed off
  /// again before its salvage resolved, so any in-flight check or helping
  /// report is void, but the suspects (and suspectAsOf) remain exactly as
  /// conservative as before. The next heard report triggers a fresh check.
  void restartGapCycle();

 private:
  ClientId id_;
  cache::LruCache cache_;
  const report::SizeModel& sizes_;
  CacheEventSink* sink_;
  sim::SimTime lastHeard_ = sim::kTimeEpoch;
  sim::SimTime suspectAsOf_ = sim::kTimeEpoch;
  bool salvagePending_ = false;
  bool checkSent_ = false;
  sim::SimTime checkDeliveredAt_ = sim::kTimeInfinity;
  std::uint64_t checkEpoch_ = 0;
};

/// What the client half of a scheme asks the state machine to do after
/// processing a report.
struct ClientOutcome {
  /// Send `check` on the uplink (class control).
  bool sendCheck = false;
  CheckMessage check;
};

/// Client half of an invalidation scheme: consumes reports and validity
/// replies, mutates the cache through ClientContext. One instance per
/// client (schemes may hold per-client state, e.g. SIG's stored combined
/// signatures).
class ClientScheme {
 public:
  virtual ~ClientScheme() = default;

  /// A report was fully received while connected.
  virtual ClientOutcome onReport(const report::Report& r, ClientContext& ctx) = 0;

  /// A validity reply addressed to this client arrived (TS-checking only).
  virtual void onValidityReply(const ValidityReply& reply, ClientContext& ctx);

  /// This client's check/Tlb message finished crossing the uplink.
  virtual void onCheckDelivered(ClientContext& ctx, sim::SimTime now);
};

/// Server half of an invalidation scheme: builds the periodic report and
/// absorbs uplink checking traffic.
class ServerScheme {
 public:
  virtual ~ServerScheme() = default;

  /// Builds the invalidation report to broadcast at time `now` (= T_i).
  virtual report::ReportPtr buildReport(sim::SimTime now) = 0;

  /// Consumes an uplink check. Returns a reply to transmit (TS-checking)
  /// or nullopt when the scheme answers through future reports (AFW/AAW).
  virtual std::optional<ValidityReply> onCheckMessage(const CheckMessage& msg,
                                                      sim::SimTime now) = 0;
};

/// Applies a TS-style report's explicit records to the cache: every listed
/// (o, t) with t newer than the cached copy's refTime is stale. Shared by
/// TS, AT, TS-checking and the adaptive schemes — the per-report client
/// kernel, hence MCI_HOT (tools/analyze: nothing it reaches may allocate).
MCI_HOT void applyTsEntries(const std::vector<db::UpdateRecord>& entries,
                            ClientContext& ctx);

}  // namespace mci::schemes
