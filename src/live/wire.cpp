#include "live/wire.hpp"

#include <array>
#include <bit>
#include <cmath>

#include "core/check.hpp"
#include "core/config.hpp"
#include "report/codec.hpp"

namespace mci::live::wire {
namespace {

/// Slice-by-8 tables for the reflected CRC-32 polynomial 0xEDB88320:
/// kCrcTables[0] is the classic byte table, and kCrcTables[k][b] is the CRC
/// of byte b followed by k zero bytes, so eight table lookups fold eight
/// input bytes into the running CRC at once.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables makeCrcTables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = makeCrcTables();

/// Four bytes as a little-endian word, by byte loads: no unaligned access,
/// and the same value on any host byte order.
std::uint32_t loadLe32(const std::uint8_t* p) {
  // MCI-ANALYZE-ALLOW(codec-bounds): envelope CRC, caller bounds p[0..3]
  return p[0] | p[1] << 8 | p[2] << 16 | std::uint32_t{p[3]} << 24;
}

std::uint64_t doubleBits(double v) { return std::bit_cast<std::uint64_t>(v); }
double bitsDouble(std::uint64_t b) { return std::bit_cast<double>(b); }

std::size_t payloadBytes(std::uint32_t payloadBits) {
  return (static_cast<std::size_t>(payloadBits) + 7) / 8;
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t len,
                    std::uint32_t seed) {
  const CrcTables& t = kCrcTables;
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  std::size_t i = 0;
  for (; len - i >= 8; i += 8) {
    // MCI-ANALYZE-ALLOW(codec-bounds): envelope CRC, i + 8 <= len by loop bound
    const std::uint32_t lo = c ^ loadLe32(data + i);
    // MCI-ANALYZE-ALLOW(codec-bounds): envelope CRC, i + 8 <= len by loop bound
    const std::uint32_t hi = loadLe32(data + i + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; i < len; ++i) {
    // MCI-ANALYZE-ALLOW(codec-bounds): envelope CRC, i < len by loop bound
    c = t[0][(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

report::BitWriter FrameArena::begin(FrameType type, std::uint8_t scheme,
                                    net::TrafficClass trafficClass) {
  buf_.clear();
  // buf_ keeps its capacity across begin()/finish() cycles, so
  // steady-state ticks allocate nothing.
  // MCI-ANALYZE-ALLOW(hot-path-alloc): reused arena, high-water only
  buf_.reserve(kHeaderBytes);
  buf_.push_back(static_cast<std::uint8_t>(kMagic >> 8));
  buf_.push_back(static_cast<std::uint8_t>(kMagic & 0xFF));
  buf_.push_back(kVersion);
  buf_.push_back(static_cast<std::uint8_t>(type));
  buf_.push_back(scheme);
  buf_.push_back(static_cast<std::uint8_t>(trafficClass));
  // payloadBits and crc are zero until finish() patches them; the crc
  // zeros are exactly what the CRC is computed over (see decodeFrame).
  buf_.insert(buf_.end(), 8, 0);
  return report::BitWriter(buf_);
}

void FrameArena::finish(const report::BitWriter& w) {
  MCI_CHECK(buf_.size() >= kHeaderBytes) << "finish() before begin()";
  MCI_CHECK((w.bitCount() + 7) / 8 == buf_.size() - kHeaderBytes)
      << "finish() with a writer not produced by begin()";
  // The length field counts the zero-padded whole bytes the writer emitted
  // (not the raw bit count): a frame's payload is always whole bytes.
  const auto payloadBits =
      static_cast<std::uint32_t>((buf_.size() - kHeaderBytes) * 8);
  for (int i = 0; i < 4; ++i) {
    buf_[6 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(payloadBits >> (24 - 8 * i));
  }
  const std::uint32_t crc = crc32(buf_.data(), buf_.size());
  for (int i = 0; i < 4; ++i) {
    buf_[10 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(crc >> (24 - 8 * i));
  }
}

std::span<const std::uint8_t> FrameArena::payload() const {
  MCI_CHECK(buf_.size() >= kHeaderBytes) << "payload() before begin()";
  return {buf_.data() + kHeaderBytes, buf_.size() - kHeaderBytes};
}

std::size_t frameSize(const std::uint8_t* data, std::size_t len) {
  if (len < kHeaderBytes) return 0;
  // The header envelope reads through the same bounded cursor as every
  // payload codec: the BitReader span is the first kHeaderBytes, so no raw
  // pointer arithmetic survives in this layer (PR 5's be16/be32 helpers and
  // their codec-bounds ALLOWs are gone).
  report::BitReader hdr({data, kHeaderBytes});
  if (hdr.read(16) != kMagic) return 0;
  hdr.skip(32);  // version, type, scheme, trafficClass
  const auto payloadBits = static_cast<std::uint32_t>(hdr.read(32));
  const std::size_t bytes = payloadBytes(payloadBits);
  if (bytes > kMaxPayloadBytes) return 0;
  return kHeaderBytes + bytes;
}

std::optional<FrameView> decodeFrame(const std::uint8_t* data,
                                     std::size_t len) {
  const std::size_t total = frameSize(data, len);
  if (total == 0 || len < total) return std::nullopt;
  FrameView f;
  report::BitReader hdr({data, kHeaderBytes});
  hdr.skip(16);  // magic, already validated by frameSize()
  f.header.version = static_cast<std::uint8_t>(hdr.read(8));
  if (f.header.version != kVersion) return std::nullopt;
  f.header.type = static_cast<FrameType>(hdr.read(8));
  f.header.scheme = static_cast<std::uint8_t>(hdr.read(8));
  f.header.trafficClass = static_cast<std::uint8_t>(hdr.read(8));
  f.header.payloadBits = static_cast<std::uint32_t>(hdr.read(32));
  f.header.checksum = static_cast<std::uint32_t>(hdr.read(32));

  // Verify over the frame with the checksum field zeroed, matching the
  // encoder (header prefix, four zero bytes, payload).
  static constexpr std::uint8_t kZeros[4] = {0, 0, 0, 0};
  std::uint32_t crc = crc32(data, 10);
  crc = crc32(kZeros, 4, crc);
  // No ALLOW needed: the interprocedural taint proof discharges these raw
  // accesses — frameSize's summary shows its return value is bounded by
  // its own kMaxPayloadBytes check, and len >= total was checked on entry.
  crc = crc32(data + kHeaderBytes, total - kHeaderBytes, crc);
  if (crc != f.header.checksum) return std::nullopt;

  f.payload = std::span<const std::uint8_t>(data + kHeaderBytes,
                                            total - kHeaderBytes);
  return f;
}

// --- control payloads --------------------------------------------------
// All use report::BitWriter/BitReader so the whole protocol shares one
// serialization substrate with the IR codecs.

void encodeHelloInto(const Hello& m, report::BitWriter& w) {
  w.write(m.udpPort, 16);
  w.write(m.audit ? 1 : 0, 8);
}

std::optional<Hello> decodeHello(std::span<const std::uint8_t> payload) {
  report::BitReader r(payload);
  Hello m;
  m.udpPort = static_cast<std::uint16_t>(r.read(16));
  m.audit = r.read(8) != 0;
  if (!r.ok()) return std::nullopt;
  return m;
}

void encodeWelcomeInto(const Welcome& m, report::BitWriter& w) {
  w.write(kWelcomeVersion, 8);
  w.write(m.clientId, 32);
  w.write(m.scheme, 8);
  w.write(m.dbSize, 32);
  w.write(m.numClients, 32);
  w.write(m.cacheCapacity, 32);
  w.write(m.timestampBits, 8);
  w.write(m.signatureBits, 8);
  w.write(m.dataItemBytes, 32);
  w.write(m.controlMessageBytes, 32);
  w.write(doubleBits(m.broadcastPeriod), 64);
  w.write(doubleBits(m.timeScale), 64);
  w.write(m.windowIntervals, 16);
  w.write(m.sigSeed, 64);
  w.write(m.sigSubsets, 32);
  w.write(m.sigPerItem, 8);
  w.write(static_cast<std::uint32_t>(m.sigVotes), 32);
  w.write(m.gcoreGroupSize, 32);
  w.write(m.shardIndex, 16);
  m.shardMap.encodeTo(w);
}

std::optional<Welcome> decodeWelcome(std::span<const std::uint8_t> payload) {
  report::BitReader r(payload);
  Welcome m;
  if (r.read(8) != kWelcomeVersion) return std::nullopt;
  m.clientId = static_cast<std::uint32_t>(r.read(32));
  m.scheme = static_cast<std::uint8_t>(r.read(8));
  m.dbSize = static_cast<std::uint32_t>(r.read(32));
  m.numClients = static_cast<std::uint32_t>(r.read(32));
  m.cacheCapacity = static_cast<std::uint32_t>(r.read(32));
  m.timestampBits = static_cast<std::uint8_t>(r.read(8));
  m.signatureBits = static_cast<std::uint8_t>(r.read(8));
  m.dataItemBytes = static_cast<std::uint32_t>(r.read(32));
  m.controlMessageBytes = static_cast<std::uint32_t>(r.read(32));
  m.broadcastPeriod = bitsDouble(r.read(64));
  m.timeScale = bitsDouble(r.read(64));
  // The client's clock turns every model delay into a timer by this scale.
  if (!std::isfinite(m.timeScale) || m.timeScale <= 0) return std::nullopt;
  m.windowIntervals = static_cast<std::uint16_t>(r.read(16));
  m.sigSeed = r.read(64);
  m.sigSubsets = static_cast<std::uint32_t>(r.read(32));
  m.sigPerItem = static_cast<std::uint8_t>(r.read(8));
  m.sigVotes = static_cast<std::int32_t>(static_cast<std::uint32_t>(r.read(32)));
  m.gcoreGroupSize = static_cast<std::uint32_t>(r.read(32));
  m.shardIndex = static_cast<std::uint16_t>(r.read(16));
  // The shard index must name a shard of the embedded map; decodeFrom
  // enforces that against the decoded count before it parses a single
  // endpoint, so a hostile Welcome cannot make us build a map the index
  // then escapes.
  std::optional<ShardMap> map = ShardMap::decodeFrom(r, m.shardIndex);
  if (!map || !r.ok()) return std::nullopt;
  m.shardMap = std::move(*map);
  return m;
}

core::SimConfig configFromWelcome(core::SimConfig base, const Welcome& w) {
  base.scheme = static_cast<schemes::SchemeKind>(w.scheme);
  base.dbSize = w.dbSize;
  base.numClients = w.numClients;
  base.broadcastPeriod = w.broadcastPeriod;
  base.windowIntervals = w.windowIntervals;
  base.timestampBits = w.timestampBits;
  base.dataItemBytes = w.dataItemBytes;
  base.controlMessageBytes = w.controlMessageBytes;
  base.sigSubsets = w.sigSubsets;
  base.sigPerItem = w.sigPerItem;
  base.sigVotes = w.sigVotes;
  base.gcoreGroupSize = w.gcoreGroupSize;
  return base;
}

void encodeQueryRequestInto(std::span<const db::ItemId> items,
                            report::BitWriter& w) {
  MCI_DCHECK(items.size() <= 0xFFFF)
      << "QueryRequest overflows the 16-bit count: " << items.size();
  w.write(items.size(), 16);
  for (db::ItemId item : items) w.write(item, 32);
}

std::optional<QueryRequest> decodeQueryRequest(
    std::span<const std::uint8_t> payload) {
  report::BitReader r(payload);
  QueryRequest m;
  const std::uint64_t count = r.read(16);
  if (!r.fits(count, 32)) return std::nullopt;
  m.items.reserve(count);
  for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
    m.items.push_back(static_cast<db::ItemId>(r.read(32)));
  }
  if (!r.ok()) return std::nullopt;
  return m;
}

void encodeDataItemInto(const DataItem& m, report::BitWriter& w) {
  w.write(m.item, 32);
  w.write(m.version, 32);
  w.write(doubleBits(m.readTime), 64);
}

void encodeDataItemNextInto(const DataItemNext& m, report::BitWriter& w) {
  w.write(m.item, 32);
  w.write(m.version, 32);
}

namespace {

// Record decoders of a kDataItem reply, the mirrors of encodeDataItemInto
// and encodeDataItemNextInto. DataItemReader runs them at its cursor.
std::optional<DataItem> decodeDataItem(report::BitReader& r) {
  DataItem m;
  m.item = static_cast<db::ItemId>(r.read(32));
  m.version = static_cast<db::Version>(r.read(32));
  m.readTime = bitsDouble(r.read(64));
  if (!r.ok()) return std::nullopt;
  return m;
}

std::optional<DataItemNext> decodeDataItemNext(report::BitReader& r) {
  DataItemNext m;
  m.item = static_cast<db::ItemId>(r.read(32));
  m.version = static_cast<db::Version>(r.read(32));
  if (!r.ok()) return std::nullopt;
  return m;
}

}  // namespace

std::optional<DataItemReader> DataItemReader::parse(
    std::span<const std::uint8_t> payload) {
  if (payload.size() < kDataItemBytes ||
      (payload.size() - kDataItemBytes) % kDataItemNextBytes != 0) {
    return std::nullopt;
  }
  DataItemReader reader(payload);
  const std::optional<DataItem> first = decodeDataItem(reader.r_);
  if (!first) return std::nullopt;
  reader.first_ = *first;
  reader.count_ =
      1 + (payload.size() - kDataItemBytes) / kDataItemNextBytes;
  return reader;
}

DataItem DataItemReader::nextRecord() {
  // parse() admitted exactly count_ records, so this read cannot underrun.
  const std::optional<DataItemNext> m = decodeDataItemNext(r_);
  MCI_CHECK(m.has_value()) << "DataItemReader: record " << taken_ - 1
                           << " of " << count_ << " underran the payload";
  return DataItem{.item = m->item, .version = m->version,
                  .readTime = first_.readTime};
}

void encodeCheckInto(const Check& m, report::BitWriter& w) {
  w.write(doubleBits(m.tlb), 64);
  w.write(m.epoch, 64);
  w.write(doubleBits(m.sizeBits), 64);
  w.write(m.entries.size(), 24);
  for (const db::UpdateRecord& e : m.entries) {
    w.write(e.item, 32);
    w.write(doubleBits(e.time), 64);
  }
}

std::optional<Check> decodeCheck(std::span<const std::uint8_t> payload) {
  report::BitReader r(payload);
  Check m;
  m.tlb = bitsDouble(r.read(64));
  m.epoch = r.read(64);
  m.sizeBits = bitsDouble(r.read(64));
  const std::uint64_t count = r.read(24);
  if (!r.fits(count, 32 + 64)) return std::nullopt;
  m.entries.reserve(count);
  for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
    db::UpdateRecord e;
    e.item = static_cast<db::ItemId>(r.read(32));
    e.time = bitsDouble(r.read(64));
    m.entries.push_back(e);
  }
  if (!r.ok()) return std::nullopt;
  return m;
}

void encodeCheckAckInto(const CheckAck& m, report::BitWriter& w) {
  w.write(m.epoch, 64);
  w.write(doubleBits(m.asOf), 64);
}

std::optional<CheckAck> decodeCheckAck(std::span<const std::uint8_t> payload) {
  report::BitReader r(payload);
  CheckAck m;
  m.epoch = r.read(64);
  m.asOf = bitsDouble(r.read(64));
  if (!r.ok()) return std::nullopt;
  return m;
}

void encodeValidityReplyInto(const ValidityReplyMsg& m,
                             report::BitWriter& w) {
  w.write(doubleBits(m.asOf), 64);
  w.write(m.epoch, 64);
  w.write(doubleBits(m.sizeBits), 64);
  w.write(m.invalid.size(), 24);
  for (db::ItemId item : m.invalid) w.write(item, 32);
}

std::optional<ValidityReplyMsg> decodeValidityReply(
    std::span<const std::uint8_t> payload) {
  report::BitReader r(payload);
  ValidityReplyMsg m;
  m.asOf = bitsDouble(r.read(64));
  m.epoch = r.read(64);
  m.sizeBits = bitsDouble(r.read(64));
  const std::uint64_t count = r.read(24);
  if (!r.fits(count, 32)) return std::nullopt;
  m.invalid.reserve(count);
  for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
    m.invalid.push_back(static_cast<db::ItemId>(r.read(32)));
  }
  if (!r.ok()) return std::nullopt;
  return m;
}

void encodeAuditInto(const Audit& m, report::BitWriter& w) {
  w.write(m.item, 32);
  w.write(m.version, 32);
  w.write(doubleBits(m.validAsOf), 64);
}

std::optional<Audit> decodeAudit(std::span<const std::uint8_t> payload) {
  report::BitReader r(payload);
  Audit m;
  m.item = static_cast<db::ItemId>(r.read(32));
  m.version = static_cast<db::Version>(r.read(32));
  m.validAsOf = bitsDouble(r.read(64));
  if (!r.ok()) return std::nullopt;
  return m;
}

void encodeMapUpdateInto(const MapUpdate& m, report::BitWriter& w) {
  m.shardMap.encodeTo(w);
}

std::optional<MapUpdate> decodeMapUpdate(
    std::span<const std::uint8_t> payload) {
  report::BitReader r(payload);
  MapUpdate m;
  auto map = ShardMap::decodeFrom(r);
  if (!map || !r.ok()) return std::nullopt;
  m.shardMap = std::move(*map);
  return m;
}

void encodeHandoffInto(const Handoff& m, report::BitWriter& w) {
  w.write(m.mapVersion, 32);
  w.write(m.sourceShard, 16);
  w.write(m.last, 8);
  w.write(m.item, 32);
  w.write(m.updateTimes.size(), 32);
  for (const sim::SimTime t : m.updateTimes) w.write(doubleBits(t), 64);
}

std::optional<Handoff> decodeHandoff(std::span<const std::uint8_t> payload) {
  report::BitReader r(payload);
  Handoff m;
  m.mapVersion = static_cast<std::uint32_t>(r.read(32));
  m.sourceShard = static_cast<std::uint16_t>(r.read(16));
  m.last = static_cast<std::uint8_t>(r.read(8));
  m.item = static_cast<db::ItemId>(r.read(32));
  const std::uint64_t count = r.read(32);
  if (!r.fits(count, 64)) return std::nullopt;
  m.updateTimes.reserve(count);
  for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
    m.updateTimes.push_back(bitsDouble(r.read(64)));
  }
  if (!r.ok()) return std::nullopt;
  return m;
}

void encodeHandoffAckInto(const HandoffAck& m, report::BitWriter& w) {
  w.write(m.mapVersion, 32);
  w.write(m.itemsReceived, 32);
}

std::optional<HandoffAck> decodeHandoffAck(
    std::span<const std::uint8_t> payload) {
  report::BitReader r(payload);
  HandoffAck m;
  m.mapVersion = static_cast<std::uint32_t>(r.read(32));
  m.itemsReceived = static_cast<std::uint32_t>(r.read(32));
  if (!r.ok()) return std::nullopt;
  return m;
}

void FrameBuffer::append(const std::uint8_t* data, std::size_t len) {
  // Compact before growing so a long-lived connection's buffer does not
  // creep: everything before off_ is already consumed.
  if (off_ > 0) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(off_));
    off_ = 0;
  }
  // MCI-ANALYZE-ALLOW(codec-bounds): [data, data+len) is the caller's span
  buf_.insert(buf_.end(), data, data + len);
}

std::optional<FrameView> FrameBuffer::next() {
  MCI_DCHECK(off_ <= buf_.size())
      << "FrameBuffer cursor past end: off=" << off_ << " size="
      << buf_.size();
  while (!corrupt_) {
    const std::size_t avail = buf_.size() - off_;
    if (avail < kHeaderBytes) return std::nullopt;
    // MCI-ANALYZE-ALLOW(codec-bounds): off_ <= buf_.size(), avail-bounded
    const std::size_t total = frameSize(buf_.data() + off_, avail);
    if (total == 0) {
      corrupt_ = true;
      return std::nullopt;
    }
    if (avail < total) return std::nullopt;
    // frameSize() promised a full frame no shorter than its header and no
    // longer than what we buffered; the decoder reads exactly [off_, total).
    MCI_CHECK(total >= kHeaderBytes && off_ + total <= buf_.size())
        << "frame length " << total << " escapes buffer: off=" << off_
        << " size=" << buf_.size();
    // MCI-ANALYZE-ALLOW(codec-bounds): off_ + total <= buf_.size() here
    std::optional<FrameView> f = decodeFrame(buf_.data() + off_, total);
    off_ += total;
    if (!f) {
      ++badFrames_;
      continue;  // checksum failure: skip this frame, framing is intact
    }
    return f;
  }
  return std::nullopt;
}

}  // namespace mci::live::wire
