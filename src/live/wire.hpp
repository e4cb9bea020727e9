#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/annotations.hpp"
#include "core/check.hpp"
#include "db/item.hpp"
#include "live/shard_map.hpp"
#include "net/message.hpp"
#include "report/codec.hpp"
#include "sim/time.hpp"

namespace mci::core {
struct SimConfig;
}  // namespace mci::core

namespace mci::live::wire {

/// Versioned frame envelope for the live broadcast protocol. Every message
/// on the UDP downlink and the per-client TCP connections is one frame:
///
///   magic:16  version:8  type:8  scheme:8  class:8  payloadBits:32  crc:32
///   payload bytes...
///
/// 14 header bytes, then ceil(payloadBits / 8) payload bytes. `crc` is
/// CRC-32 (IEEE, reflected) over the header with the crc field zeroed,
/// followed by the payload. For kReport frames the payload is *exactly*
/// the byte sequence report::ReportCodec emits — the simulator's codec and
/// the wire are byte-identical by construction, and a shared test pins it.
/// Full field-by-field documentation lives in docs/protocols.md ("Wire
/// format").
inline constexpr std::uint16_t kMagic = 0x4D43;  // "MC"
inline constexpr std::uint8_t kVersion = 1;
/// `scheme` value for frames not tied to a scheme (control traffic).
inline constexpr std::uint8_t kNoScheme = 0xFF;
inline constexpr std::size_t kHeaderBytes = 14;
/// Sanity bound on ceil(payloadBits/8); a header announcing more is
/// rejected before any allocation (a corrupted length field must not make
/// the receiver buffer gigabytes).
inline constexpr std::size_t kMaxPayloadBytes = 1 << 22;

enum class FrameType : std::uint8_t {
  kHello = 1,       ///< client -> server: my UDP port + flags
  kWelcome = 2,     ///< server -> client: your id + the run configuration
  kReport = 3,      ///< server -> clients (UDP): one codec-encoded IR
  kQueryRequest = 4,///< client -> server: fetch these items
  kDataItem = 5,    ///< server -> client: one query's served items
  kCheck = 6,       ///< client -> server: Tlb feedback / checking request
  kCheckAck = 7,    ///< server -> client: your check was absorbed
  kValidityReply = 8,///< server -> client: which checked entries are stale
  kAudit = 9,       ///< client -> server: a cache answer, for stale audit
  kBye = 10,        ///< client -> server: clean shutdown
  kMapUpdate = 11,  ///< server -> clients: shard map epoch N+1 (reshard)
  kHandoff = 12,    ///< shard -> shard: one migrating item + history tail
  kHandoffAck = 13, ///< shard -> shard: backfill stream fully absorbed
};

struct FrameHeader {
  std::uint8_t version = kVersion;
  FrameType type{FrameType::kBye};
  std::uint8_t scheme = kNoScheme;      ///< schemes::SchemeKind, or kNoScheme
  std::uint8_t trafficClass = 0;        ///< net::TrafficClass
  std::uint32_t payloadBits = 0;        ///< payload length (padded to bytes)
  std::uint32_t checksum = 0;           ///< CRC-32 as described above
};

/// A decoded frame. The payload is not copied: it aliases the caller's
/// (or a FrameBuffer's) storage and is valid only as long as that buffer,
/// so consume it before the next append()/receive. Every endpoint reads
/// frames this way, which is what makes the swarm mux's per-client-tick
/// allocation count zero.
struct FrameView {
  FrameHeader header;
  std::span<const std::uint8_t> payload;
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320). `seed` chains
/// multi-buffer computation: pass a previous call's return value. Computed
/// slice-by-8 (eight bytes per step) from byte loads, so the result does
/// not depend on host byte order or alignment.
[[nodiscard]] std::uint32_t crc32(const std::uint8_t* data, std::size_t len,
                                  std::uint32_t seed = 0);

/// The one frame builder: the header layout lives only in begin() and
/// finish(). begin() starts a frame and hands back a report::BitWriter
/// that appends payload bits directly after the 14 header bytes; finish()
/// patches the length and CRC fields in place. The byte buffer's capacity
/// survives across frames, so a steady-state endpoint allocates nothing,
/// and every destination of one frame (per-client unicast, sendmmsg
/// batches, the multicast group, every uplink of a map announce) shares
/// the same finished bytes.
class FrameArena {
 public:
  /// Starts a frame, discarding any previous one (capacity retained).
  [[nodiscard]] MCI_HOT report::BitWriter begin(
      FrameType type, std::uint8_t scheme, net::TrafficClass trafficClass);

  /// Patches payloadBits and CRC; `w` must be the writer begin() returned.
  /// The frame bytes stay valid until the next begin().
  MCI_HOT void finish(const report::BitWriter& w);

  [[nodiscard]] const std::uint8_t* data() const { return buf_.data(); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] std::span<const std::uint8_t> frame() const { return buf_; }
  /// The unframed payload slice of the finished frame (codec bytes).
  [[nodiscard]] std::span<const std::uint8_t> payload() const;

  /// begin(), `encodeInto(m, w)`, finish(): one whole control frame for
  /// message `m` (scheme kNoScheme). Returns frame().
  template <class Msg, class Encode>
  std::span<const std::uint8_t> build(FrameType type,
                                      net::TrafficClass trafficClass,
                                      const Msg& m, Encode encodeInto) {
    report::BitWriter w = begin(type, kNoScheme, trafficClass);
    encodeInto(m, w);
    finish(w);
    return frame();
  }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Total frame size (header + payload) announced by a header, or 0 when
/// fewer than kHeaderBytes are available or the magic/length is invalid
/// (callers treat 0-with-enough-bytes as a corrupt stream).
[[nodiscard]] std::size_t frameSize(const std::uint8_t* data, std::size_t len);

/// Parses and checksum-verifies one complete frame; the view's payload
/// aliases [data + kHeaderBytes, ...). nullopt on bad magic, unknown
/// version, length mismatch, or checksum failure.
[[nodiscard]] MCI_HOT std::optional<FrameView> decodeFrame(
    const std::uint8_t* data, std::size_t len);

// --- control payload codecs -------------------------------------------
// Field widths are fixed (not SizeModel-derived) so both ends can parse
// before configuration is exchanged. Times travel as raw IEEE-754 bits:
// control timestamps must not lose precision to the report quantizer.
//
// One codec per message: encodeXInto appends the payload to a BitWriter
// (a FrameArena writer on every send path), and decodeX reads a payload
// span in place, typically a FrameView's. A decoder reads only its span,
// so the bytes around it (the rest of a receive buffer) never matter.

struct Hello {
  /// Where this client listens for kReport. 0 opts out of the unicast IR
  /// fan-out entirely: the server skips this connection when broadcasting.
  /// Multiplexing endpoints (the swarm's extra uplink connections, which
  /// share one downlink socket per shard) and multicast shards (where the
  /// group, not the Hello, names the downlink) send 0.
  std::uint16_t udpPort = 0;
  bool audit = false;  ///< echo cache answers as kAudit frames
};

/// Payload-format version of the Welcome handshake. v2 added a leading
/// version byte, the sender's shard index and the embedded cluster shard
/// map; v1 payloads (no version byte) are no longer accepted.
inline constexpr std::uint8_t kWelcomeVersion = 2;

/// Server -> client configuration handshake: everything a ClientAgent
/// needs to build the exact scheme/codec/cache the server simulates with,
/// plus (v2) the cluster shard map so the client can discover and connect
/// to every other shard from this one answer.
struct Welcome {
  std::uint32_t clientId = 0;
  std::uint8_t scheme = 0;  ///< schemes::SchemeKind
  std::uint32_t dbSize = 0;
  std::uint32_t numClients = 0;
  std::uint32_t cacheCapacity = 0;
  std::uint8_t timestampBits = 32;
  std::uint8_t signatureBits = 32;
  std::uint32_t dataItemBytes = 0;
  std::uint32_t controlMessageBytes = 0;
  double broadcastPeriod = 0;
  double timeScale = 1.0;
  std::uint16_t windowIntervals = 0;
  std::uint64_t sigSeed = 0;
  std::uint32_t sigSubsets = 0;
  std::uint8_t sigPerItem = 0;
  std::int32_t sigVotes = 0;
  std::uint32_t gcoreGroupSize = 0;
  std::uint16_t shardIndex = 0;  ///< which shard sent this Welcome
  ShardMap shardMap;             ///< the whole cluster; valid() always
};

struct QueryRequest {
  std::vector<db::ItemId> items;
};

/// One served item. A kDataItem reply frame carries every item the server
/// served for one query (or one run of it: a refused item ends the run) as
/// a list of records. The first record is a whole DataItem; each further
/// record is a DataItemNext, whose copy shares the first record's readTime
/// (the server reads all of a query's items at one instant). The payload
/// length sets the record count: kDataItemBytes + k * kDataItemNextBytes
/// for k >= 0, any other length is a bad frame. So a one-item reply is
/// exactly the lone DataItem payload.
struct DataItem {
  db::ItemId item = 0;
  db::Version version = 0;
  sim::SimTime readTime = 0;  ///< becomes the cache entry's refTime
};

/// Every record of a kDataItem reply after the first.
struct DataItemNext {
  db::ItemId item = 0;
  db::Version version = 0;
};

inline constexpr std::size_t kDataItemBytes = 16;     ///< the first record
inline constexpr std::size_t kDataItemNextBytes = 8;  ///< each further one

/// CheckMessage on the wire (client id is implied by the connection).
struct Check {
  sim::SimTime tlb = 0;
  std::uint64_t epoch = 0;
  double sizeBits = 0;  ///< model airtime bits, for the radio accounting
  std::vector<db::UpdateRecord> entries;
};

struct CheckAck {
  std::uint64_t epoch = 0;
  sim::SimTime asOf = 0;  ///< server model time the check was absorbed
};

struct ValidityReplyMsg {
  sim::SimTime asOf = 0;
  std::uint64_t epoch = 0;
  double sizeBits = 0;
  std::vector<db::ItemId> invalid;
};

/// One cache answer, echoed so the *server* can audit staleness against
/// the authoritative database (out-of-process clients only have a dummy).
struct Audit {
  db::ItemId item = 0;
  db::Version version = 0;
  sim::SimTime validAsOf = 0;
};

/// Epoch announce: the authoritative shard map for the next epoch. Sent on
/// every welcomed uplink at reshard cutover and once on the IR downlink; a
/// client installs it iff `shardMap.version()` exceeds its installed epoch
/// (ClientPool::onMapUpdate, UplinkMux::applyMapUpdate); an older or equal
/// one is a replay or duplicate, counted in staleMapUpdates and ignored.
struct MapUpdate {
  ShardMap shardMap;
};

/// One migrating item of a shard→shard backfill stream: the authoritative
/// snapshot (its full update-time list, ascending; version == count) the
/// new owner installs, and whose tail it splices into its UpdateHistory so
/// Tlb-gap checks for the item keep working across the epoch switch.
/// `last == 1` marks the stream's final frame; the receiver acks the whole
/// stream with one HandoffAck.
struct Handoff {
  std::uint32_t mapVersion = 0;   ///< target epoch (the new map's version)
  std::uint16_t sourceShard = 0;  ///< sender's shard index in the OLD map
  std::uint8_t last = 0;          ///< 1 on the stream's final frame
  db::ItemId item = 0;
  std::vector<sim::SimTime> updateTimes;  ///< ascending update times
};

/// Destination's receipt for one whole backfill stream.
struct HandoffAck {
  std::uint32_t mapVersion = 0;
  std::uint32_t itemsReceived = 0;
};

void encodeHelloInto(const Hello& m, report::BitWriter& w);
[[nodiscard]] std::optional<Hello> decodeHello(
    std::span<const std::uint8_t> payload);

void encodeWelcomeInto(const Welcome& m, report::BitWriter& w);
[[nodiscard]] std::optional<Welcome> decodeWelcome(
    std::span<const std::uint8_t> payload);

/// `base` overlaid with what a Welcome fixes for every client of the
/// cluster: scheme, database and population size, broadcast period,
/// window, timestamp and message sizes, and the SIG/GCORE parameters.
/// The rest (client workload, seed, replacement) stays the caller's own.
[[nodiscard]] core::SimConfig configFromWelcome(core::SimConfig base,
                                                const Welcome& w);

/// Appends the QueryRequest payload for `items` to `w`. Takes the item
/// span rather than a QueryRequest, so the swarm mux encodes slices of its
/// staging buffer with no copy. Requires items.size() <= 65535 (the wire's
/// 16-bit count); callers split larger batches.
MCI_HOT void encodeQueryRequestInto(std::span<const db::ItemId> items,
                                    report::BitWriter& w);
[[nodiscard]] std::optional<QueryRequest> decodeQueryRequest(
    std::span<const std::uint8_t> payload);

/// Appends the first record of a kDataItem reply to `w`. The server
/// encodes each reply into one reused FrameArena, allocating nothing per
/// query.
MCI_HOT void encodeDataItemInto(const DataItem& m, report::BitWriter& w);
/// Appends one further record, after encodeDataItemInto's first.
MCI_HOT void encodeDataItemNextInto(const DataItemNext& m,
                                    report::BitWriter& w);

/// A kDataItem reply payload, read in place: the one decoder of replies,
/// used by ClientAgent and the swarm mux alike. parse() checks the length
/// and reads the first record; next() then hands out the records in wire
/// order, each with the shared readTime. Allocates nothing; the reader
/// aliases the payload, so it is valid only as long as that buffer.
class DataItemReader {
 public:
  /// nullopt unless the payload is kDataItemBytes + k * kDataItemNextBytes.
  [[nodiscard]] MCI_HOT static std::optional<DataItemReader> parse(
      std::span<const std::uint8_t> payload);

  /// Records in the reply (at least one).
  [[nodiscard]] std::size_t size() const { return count_; }
  /// The read time every record of the reply shares.
  [[nodiscard]] sim::SimTime readTime() const { return first_.readTime; }
  /// The next record; at most size() calls.
  [[nodiscard]] DataItem next() {
    MCI_DCHECK(taken_ < count_)
        << "DataItemReader::next past the last of " << count_ << " records";
    return taken_++ == 0 ? first_ : nextRecord();
  }

 private:
  explicit DataItemReader(std::span<const std::uint8_t> payload)
      : r_(payload) {}

  /// Decodes record taken_ - 1 >= 1 at the cursor.
  [[nodiscard]] MCI_HOT DataItem nextRecord();

  report::BitReader r_;
  DataItem first_;
  std::size_t count_ = 0;
  std::size_t taken_ = 0;
};

/// The adaptive Tlb feedback (empty `entries`) is the swarm's steady
/// uplink shape, sent through a FrameArena without allocating.
MCI_HOT void encodeCheckInto(const Check& m, report::BitWriter& w);
[[nodiscard]] std::optional<Check> decodeCheck(
    std::span<const std::uint8_t> payload);

void encodeCheckAckInto(const CheckAck& m, report::BitWriter& w);
[[nodiscard]] std::optional<CheckAck> decodeCheckAck(
    std::span<const std::uint8_t> payload);

void encodeValidityReplyInto(const ValidityReplyMsg& m, report::BitWriter& w);
[[nodiscard]] std::optional<ValidityReplyMsg> decodeValidityReply(
    std::span<const std::uint8_t> payload);

void encodeAuditInto(const Audit& m, report::BitWriter& w);
[[nodiscard]] std::optional<Audit> decodeAudit(
    std::span<const std::uint8_t> payload);

void encodeMapUpdateInto(const MapUpdate& m, report::BitWriter& w);
[[nodiscard]] std::optional<MapUpdate> decodeMapUpdate(
    std::span<const std::uint8_t> payload);

void encodeHandoffInto(const Handoff& m, report::BitWriter& w);
[[nodiscard]] std::optional<Handoff> decodeHandoff(
    std::span<const std::uint8_t> payload);

void encodeHandoffAckInto(const HandoffAck& m, report::BitWriter& w);
[[nodiscard]] std::optional<HandoffAck> decodeHandoffAck(
    std::span<const std::uint8_t> payload);

/// Incremental reassembler for the TCP byte stream: append whatever the
/// socket produced, pop complete frames. A frame that fails its checksum is
/// counted and skipped (the stream stays framed — the length field already
/// passed the magic check); a byte position where no frame can start marks
/// the stream corrupt() for good, since framing is lost.
class FrameBuffer {
 public:
  void append(const std::uint8_t* data, std::size_t len);

  /// Next complete, verified frame; nullopt when more bytes are needed or
  /// the stream is corrupt. The view aliases the internal buffer and stays
  /// valid until the next append() (next() only advances the cursor).
  [[nodiscard]] MCI_HOT std::optional<FrameView> next();

  [[nodiscard]] bool corrupt() const { return corrupt_; }
  [[nodiscard]] std::uint64_t badFrames() const { return badFrames_; }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t off_ = 0;
  bool corrupt_ = false;
  std::uint64_t badFrames_ = 0;
};

}  // namespace mci::live::wire
