// Frame envelope and control codecs: round-trips, checksum rejection, and
// the FrameBuffer reassembler under split/corrupted TCP delivery.

#include "live/wire.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "live/wire_bytes.hpp"

namespace mci::live::wire {
namespace {

using wiretest::encoded;
using wiretest::framed;

std::vector<std::uint8_t> somePayload() { return {0xDE, 0xAD, 0xBE, 0xEF}; }

TEST(Crc32, MatchesKnownVector) {
  // "123456789" -> 0xCBF43926 is the canonical CRC-32/IEEE check value.
  const char* s = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(s), 9), 0xCBF43926u);
}

TEST(Crc32, SeedChainsAcrossBuffers) {
  const char* s = "123456789";
  const auto* b = reinterpret_cast<const std::uint8_t*>(s);
  EXPECT_EQ(crc32(b + 4, 5, crc32(b, 4)), crc32(b, 9));
}

/// Byte-at-a-time CRC-32 over the reflected polynomial, one shift per bit:
/// the reference the slice-by-8 envelope checksum must reproduce.
std::uint32_t referenceCrc32(const std::uint8_t* data, std::size_t len,
                             std::uint32_t seed) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    c ^= data[i];
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, SliceBy8MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  // Lengths 0..300 cover no full slice, exact multiples of 8 and every
  // tail; offsets 0..7 cover every start alignment of the byte loads.
  std::vector<std::uint8_t> buf(300 + 8);
  std::uint32_t x = 0x9E3779B9u;
  for (std::uint8_t& b : buf) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  for (std::size_t off = 0; off < 8; ++off) {
    const std::uint8_t* data = buf.data() + off;
    for (std::size_t len = 0; len <= 300; ++len) {
      for (const std::uint32_t seed :
           {0u, 0xFFFFFFFFu, 0x12345678u, referenceCrc32(buf.data(), off, 0)}) {
        ASSERT_EQ(crc32(data, len, seed), referenceCrc32(data, len, seed))
            << "off=" << off << " len=" << len << " seed=" << seed;
      }
      // Chaining at any split point equals one pass over the whole run.
      const std::size_t split = len / 3;
      ASSERT_EQ(crc32(data + split, len - split, crc32(data, split)),
                referenceCrc32(data, len, 0))
          << "off=" << off << " len=" << len << " split=" << split;
    }
  }
}

TEST(Frame, RoundTripsHeaderAndPayload) {
  const auto bytes = framed(FrameType::kReport, 3,
                            net::TrafficClass::kInvalidationReport,
                            somePayload());
  ASSERT_EQ(bytes.size(), kHeaderBytes + 4);
  EXPECT_EQ(frameSize(bytes.data(), bytes.size()), bytes.size());

  const auto frame = decodeFrame(bytes.data(), bytes.size());
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->header.type, FrameType::kReport);
  EXPECT_EQ(frame->header.scheme, 3);
  EXPECT_EQ(std::vector<std::uint8_t>(frame->payload.begin(),
                                      frame->payload.end()),
            somePayload());
}

TEST(Frame, EveryFlippedBitFailsTheChecksum) {
  const auto bytes = framed(FrameType::kCheck, kNoScheme,
                            net::TrafficClass::kControl, somePayload());
  for (std::size_t i = 0; i < bytes.size() * 8; ++i) {
    auto bad = bytes;
    bad[i / 8] ^= static_cast<std::uint8_t>(1u << (i % 8));
    // A flip may break the magic/version/length (decode fails early) or
    // only the body (checksum fails); either way nothing decodes.
    EXPECT_FALSE(decodeFrame(bad.data(), bad.size()).has_value())
        << "bit " << i;
  }
}

TEST(Frame, TruncationNeverDecodes) {
  const auto bytes = framed(FrameType::kHello, kNoScheme,
                            net::TrafficClass::kControl, somePayload());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(decodeFrame(bytes.data(), len).has_value()) << "len " << len;
  }
}

TEST(Frame, OversizedLengthFieldIsRejected) {
  auto bytes = framed(FrameType::kBye, kNoScheme,
                      net::TrafficClass::kControl, {});
  // Patch payloadBits (bytes 6..9, big-endian) to announce > kMaxPayloadBytes.
  bytes[6] = 0xFF;
  bytes[7] = 0xFF;
  bytes[8] = 0xFF;
  bytes[9] = 0xFF;
  EXPECT_EQ(frameSize(bytes.data(), bytes.size()), 0u);
}

TEST(ControlCodecs, HelloRoundTrip) {
  const Hello m{.udpPort = 40123, .audit = true};
  const auto back = decodeHello(encoded(encodeHelloInto, m));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->udpPort, m.udpPort);
  EXPECT_EQ(back->audit, m.audit);
}

TEST(ControlCodecs, WelcomeRoundTripPreservesEveryField) {
  Welcome m;
  m.clientId = 17;
  m.scheme = 6;
  m.dbSize = 1000;
  m.numClients = 250;
  m.cacheCapacity = 100;
  m.timestampBits = 32;
  m.signatureBits = 24;
  m.dataItemBytes = 1024;
  m.controlMessageBytes = 64;
  m.broadcastPeriod = 20.0;
  m.timeScale = 312.5;
  m.windowIntervals = 10;
  m.sigSeed = 0xDEADBEEFCAFEF00Dull;
  m.sigSubsets = 16;
  m.sigPerItem = 4;
  m.sigVotes = -3;
  m.gcoreGroupSize = 50;
  m.shardIndex = 2;
  m.shardMap = ShardMap(
      7, 0x1234'5678'9ABC'DEF0ull,
      {ShardEndpoint{0x7F000001u, 4242, 0, 0},
       ShardEndpoint{0x7F000001u, 4243, 0xEFFF2A63u, 5000},
       ShardEndpoint{0x0A000001u, 4244, 0, 0}});
  const auto back = decodeWelcome(encoded(encodeWelcomeInto, m));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->clientId, m.clientId);
  EXPECT_EQ(back->scheme, m.scheme);
  EXPECT_EQ(back->dbSize, m.dbSize);
  EXPECT_EQ(back->numClients, m.numClients);
  EXPECT_EQ(back->cacheCapacity, m.cacheCapacity);
  EXPECT_EQ(back->timestampBits, m.timestampBits);
  EXPECT_EQ(back->signatureBits, m.signatureBits);
  EXPECT_EQ(back->dataItemBytes, m.dataItemBytes);
  EXPECT_EQ(back->controlMessageBytes, m.controlMessageBytes);
  EXPECT_DOUBLE_EQ(back->broadcastPeriod, m.broadcastPeriod);
  EXPECT_DOUBLE_EQ(back->timeScale, m.timeScale);
  EXPECT_EQ(back->windowIntervals, m.windowIntervals);
  EXPECT_EQ(back->sigSeed, m.sigSeed);
  EXPECT_EQ(back->sigSubsets, m.sigSubsets);
  EXPECT_EQ(back->sigPerItem, m.sigPerItem);
  EXPECT_EQ(back->sigVotes, m.sigVotes);
  EXPECT_EQ(back->gcoreGroupSize, m.gcoreGroupSize);
  EXPECT_EQ(back->shardIndex, m.shardIndex);
  EXPECT_EQ(back->shardMap, m.shardMap);
}

TEST(ControlCodecs, WelcomeRejectsWrongVersionByte) {
  Welcome m;
  m.shardMap = ShardMap::single(ShardEndpoint{0x7F000001u, 4242, 0, 0});
  std::vector<std::uint8_t> bytes = encoded(encodeWelcomeInto, m);
  ASSERT_FALSE(bytes.empty());
  bytes[0] ^= 0xFF;  // the version byte leads the payload
  EXPECT_FALSE(decodeWelcome(bytes).has_value());
}

TEST(ControlCodecs, WelcomeRejectsANonFiniteOrNonPositiveTimeScale) {
  Welcome m;
  m.shardMap = ShardMap::single(ShardEndpoint{0x7F000001u, 4242, 0, 0});
  for (const double scale : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(), 0.0,
                             -60.0}) {
    m.timeScale = scale;
    EXPECT_FALSE(decodeWelcome(encoded(encodeWelcomeInto, m)).has_value())
        << scale;
  }
}

TEST(ControlCodecs, WelcomeRejectsShardIndexOutsideTheMap) {
  Welcome m;
  m.shardIndex = 3;  // but the map only names one shard
  m.shardMap = ShardMap::single(ShardEndpoint{0x7F000001u, 4242, 0, 0});
  EXPECT_FALSE(decodeWelcome(encoded(encodeWelcomeInto, m)).has_value());
}

TEST(ControlCodecs, QueryAndDataItemRoundTrip) {
  const QueryRequest q{.items = {0, 7, 999, 12345}};
  const auto qb = decodeQueryRequest(
      encoded(encodeQueryRequestInto, std::span<const db::ItemId>(q.items)));
  ASSERT_TRUE(qb.has_value());
  EXPECT_EQ(qb->items, q.items);

  const DataItem d{.item = 42, .version = 1234567, .readTime = 199.999};
  const std::vector<std::uint8_t> payload = encoded(encodeDataItemInto, d);
  EXPECT_EQ(payload.size(), kDataItemBytes);
  auto reply = DataItemReader::parse(payload);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->size(), 1u);
  const DataItem db = reply->next();
  EXPECT_EQ(db.item, d.item);
  EXPECT_EQ(db.version, d.version);
  EXPECT_DOUBLE_EQ(db.readTime, d.readTime);  // raw bits, no quantizer
}

// --- kDataItem replies: one frame per query ----------------------------

std::string hex(std::span<const std::uint8_t> bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string s;
  for (const std::uint8_t b : bytes) {
    s.push_back(kDigits[b >> 4]);
    s.push_back(kDigits[b & 0xF]);
  }
  return s;
}

/// The server's reply encode: the first record whole, the rest as
/// (item, version) pairs sharing its readTime.
void encodeReply(FrameArena& arena, const std::vector<DataItem>& items) {
  report::BitWriter w = arena.begin(FrameType::kDataItem, kNoScheme,
                                    net::TrafficClass::kBulk);
  encodeDataItemInto(items.front(), w);
  for (std::size_t i = 1; i < items.size(); ++i) {
    encodeDataItemNextInto({.item = items[i].item, .version = items[i].version},
                           w);
  }
  arena.finish(w);
}

const std::vector<DataItem> kThreeItems = {
    {.item = 42, .version = 1234567, .readTime = 199.999},
    {.item = 7, .version = 3, .readTime = 199.999},
    {.item = 65535, .version = 0x01020304, .readTime = 199.999},
};

TEST(DataItemReply, OneItemFrameIsTheLoneDataItemFrame) {
  FrameArena arena;
  encodeReply(arena, {kThreeItems.front()});
  const std::vector<std::uint8_t> lone =
      framed(FrameType::kDataItem, kNoScheme, net::TrafficClass::kBulk,
             encoded(encodeDataItemInto, kThreeItems.front()));
  EXPECT_EQ(std::vector<std::uint8_t>(arena.frame().begin(),
                                      arena.frame().end()),
            lone);
  EXPECT_EQ(hex(arena.frame()),
            "4d430105ff0200000080772cd99f"
            "0000002a0012d6874068fff7ced91687");
}

TEST(DataItemReply, GoldenThreeRecordFrameHexPin) {
  FrameArena arena;
  encodeReply(arena, kThreeItems);
  EXPECT_EQ(arena.frame().size(),
            kHeaderBytes + kDataItemBytes + 2 * kDataItemNextBytes);
  EXPECT_EQ(hex(arena.frame()),
            "4d430105ff0200000100995f094e"
            "0000002a0012d6874068fff7ced91687"
            "0000000700000003"
            "0000ffff01020304");
}

TEST(DataItemReply, RecordsComeBackInOrderWithTheSharedReadTime) {
  FrameArena arena;
  encodeReply(arena, kThreeItems);
  const auto f = decodeFrame(arena.data(), arena.size());
  ASSERT_TRUE(f.has_value());
  auto reply = DataItemReader::parse(f->payload);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->size(), kThreeItems.size());
  EXPECT_DOUBLE_EQ(reply->readTime(), 199.999);
  for (const DataItem& want : kThreeItems) {
    const DataItem got = reply->next();
    EXPECT_EQ(got.item, want.item);
    EXPECT_EQ(got.version, want.version);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.readTime),
              std::bit_cast<std::uint64_t>(want.readTime));
  }
}

TEST(DataItemReply, EveryLengthButSixteenPlusEightKIsRefused) {
  FrameArena arena;
  encodeReply(arena, kThreeItems);
  const std::span<const std::uint8_t> payload = arena.payload();
  ASSERT_EQ(payload.size(), 32u);
  // Every truncation of the 3-record payload: only the whole-record
  // prefixes (16, 24 bytes) parse, as the 1- and 2-record replies.
  for (std::size_t len = 0; len < payload.size(); ++len) {
    const auto reply = DataItemReader::parse(payload.first(len));
    if (len == 16 || len == 24) {
      ASSERT_TRUE(reply.has_value()) << len;
      EXPECT_EQ(reply->size(), 1 + (len - 16) / 8) << len;
    } else {
      EXPECT_FALSE(reply.has_value()) << len;
    }
  }
  // A trailing partial record is refused too.
  std::vector<std::uint8_t> longer(payload.begin(), payload.end());
  for (int extra = 1; extra < 8; ++extra) {
    longer.push_back(0);
    EXPECT_FALSE(DataItemReader::parse(longer).has_value()) << extra;
  }
  // And every truncation of the framed bytes fails the envelope.
  for (std::size_t len = 0; len < arena.size(); ++len) {
    EXPECT_FALSE(decodeFrame(arena.data(), len).has_value()) << len;
  }
}

TEST(ControlCodecs, CheckRoundTrip) {
  Check c;
  c.tlb = 123.456;
  c.epoch = 9;
  c.sizeBits = 512.0;
  c.entries = {{.item = 3, .time = 1.25}, {.item = 8, .time = 99.0}};
  const auto back = decodeCheck(encoded(encodeCheckInto, c));
  ASSERT_TRUE(back.has_value());
  EXPECT_DOUBLE_EQ(back->tlb, c.tlb);
  EXPECT_EQ(back->epoch, c.epoch);
  EXPECT_DOUBLE_EQ(back->sizeBits, c.sizeBits);
  ASSERT_EQ(back->entries.size(), 2u);
  EXPECT_EQ(back->entries[1].item, 8u);
  EXPECT_DOUBLE_EQ(back->entries[1].time, 99.0);
}

TEST(ControlCodecs, CheckAckValidityReplyAuditRoundTrip) {
  const CheckAck a{.epoch = 4, .asOf = 260.0};
  const auto ab = decodeCheckAck(encoded(encodeCheckAckInto, a));
  ASSERT_TRUE(ab.has_value());
  EXPECT_EQ(ab->epoch, a.epoch);
  EXPECT_DOUBLE_EQ(ab->asOf, a.asOf);

  const ValidityReplyMsg v{
      .asOf = 300.0, .epoch = 5, .sizeBits = 96.0, .invalid = {1, 5, 9}};
  const auto vb = decodeValidityReply(encoded(encodeValidityReplyInto, v));
  ASSERT_TRUE(vb.has_value());
  EXPECT_DOUBLE_EQ(vb->asOf, v.asOf);
  EXPECT_EQ(vb->epoch, v.epoch);
  EXPECT_EQ(vb->invalid, v.invalid);

  const Audit au{.item = 77, .version = 3, .validAsOf = 280.0};
  const auto aub = decodeAudit(encoded(encodeAuditInto, au));
  ASSERT_TRUE(aub.has_value());
  EXPECT_EQ(aub->item, au.item);
  EXPECT_EQ(aub->version, au.version);
  EXPECT_DOUBLE_EQ(aub->validAsOf, au.validAsOf);
}

TEST(ReshardCodecs, MapUpdateRoundTripAndTruncationRefusal) {
  MapUpdate m;
  m.shardMap = ShardMap(
      4, 0xFEED'FACE'CAFE'BEEFull,
      {ShardEndpoint{0x7F000001u, 4000, 0, 0},
       ShardEndpoint{0x7F000001u, 4001, 0xEFFF2A63u, 5001},
       ShardEndpoint{0x0A00002Au, 4002, 0, 0}});
  const std::vector<std::uint8_t> bytes = encoded(encodeMapUpdateInto, m);

  const auto back = decodeMapUpdate(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->shardMap, m.shardMap);

  for (std::size_t cut = 0; cut + 1 < bytes.size(); cut += 5) {
    const std::vector<std::uint8_t> shorter(bytes.begin(),
                                            bytes.begin() + cut);
    EXPECT_FALSE(decodeMapUpdate(shorter).has_value()) << "cut=" << cut;
  }
}

TEST(ReshardCodecs, HandoffRoundTripPreservesTheHistoryTail) {
  Handoff m;
  m.mapVersion = 7;
  m.sourceShard = 3;
  m.last = 1;
  m.item = 424242;
  m.updateTimes = {1.5, 99.25, 1203.0625};  // ascending, version == count
  const auto back = decodeHandoff(encoded(encodeHandoffInto, m));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->mapVersion, m.mapVersion);
  EXPECT_EQ(back->sourceShard, m.sourceShard);
  EXPECT_EQ(back->last, m.last);
  EXPECT_EQ(back->item, m.item);
  ASSERT_EQ(back->updateTimes.size(), 3u);
  EXPECT_DOUBLE_EQ(back->updateTimes[0], 1.5);
  EXPECT_DOUBLE_EQ(back->updateTimes[2], 1203.0625);

  // A never-updated item migrates as an empty stream entry: count == 0.
  Handoff empty;
  empty.mapVersion = 7;
  empty.item = 9;
  const auto eb = decodeHandoff(encoded(encodeHandoffInto, empty));
  ASSERT_TRUE(eb.has_value());
  EXPECT_TRUE(eb->updateTimes.empty());
  EXPECT_EQ(eb->last, 0);
}

TEST(ReshardCodecs, HandoffRejectsTruncationAndLyingCount) {
  Handoff m;
  m.mapVersion = 2;
  m.item = 5;
  m.updateTimes = {10.0, 20.0};
  const std::vector<std::uint8_t> bytes = encoded(encodeHandoffInto, m);
  for (std::size_t cut = 0; cut + 1 < bytes.size(); ++cut) {
    const std::vector<std::uint8_t> shorter(bytes.begin(),
                                            bytes.begin() + cut);
    EXPECT_FALSE(decodeHandoff(shorter).has_value()) << "cut=" << cut;
  }

  // Patch the 32-bit count (after mapVersion:32 + sourceShard:16 + last:8
  // + item:32 = 11 bytes) to announce far more doubles than the payload
  // holds: the fits() guard must refuse before reserving anything.
  auto lying = bytes;
  lying[11] = 0xFF;
  lying[12] = 0xFF;
  lying[13] = 0xFF;
  lying[14] = 0xFF;
  EXPECT_FALSE(decodeHandoff(lying).has_value());
}

TEST(ReshardCodecs, HandoffAckRoundTrip) {
  const HandoffAck a{.mapVersion = 9, .itemsReceived = 123456};
  const auto back = decodeHandoffAck(encoded(encodeHandoffAckInto, a));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->mapVersion, a.mapVersion);
  EXPECT_EQ(back->itemsReceived, a.itemsReceived);

  const std::vector<std::uint8_t> cut = {0x01, 0x02};
  EXPECT_FALSE(decodeHandoffAck(cut).has_value());
}

TEST(FrameBuffer, ReassemblesByteAtATimeDelivery) {
  const auto f1 = framed(FrameType::kHello, kNoScheme,
                         net::TrafficClass::kControl, somePayload());
  const auto f2 = framed(FrameType::kBye, kNoScheme,
                         net::TrafficClass::kControl, {});
  std::vector<std::uint8_t> stream = f1;
  stream.insert(stream.end(), f2.begin(), f2.end());

  FrameBuffer buf;
  std::vector<FrameType> seen;
  for (const std::uint8_t byte : stream) {
    buf.append(&byte, 1);
    while (auto frame = buf.next()) seen.push_back(frame->header.type);
  }
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], FrameType::kHello);
  EXPECT_EQ(seen[1], FrameType::kBye);
  EXPECT_FALSE(buf.corrupt());
  EXPECT_EQ(buf.badFrames(), 0u);
}

TEST(FrameBuffer, ChecksumFailureSkipsTheFrameButKeepsFraming) {
  auto f1 = framed(FrameType::kHello, kNoScheme,
                   net::TrafficClass::kControl, somePayload());
  const auto f2 = framed(FrameType::kBye, kNoScheme,
                         net::TrafficClass::kControl, {});
  f1.back() ^= 0x01;  // corrupt f1's payload; its length field is intact
  std::vector<std::uint8_t> stream = f1;
  stream.insert(stream.end(), f2.begin(), f2.end());

  FrameBuffer buf;
  buf.append(stream.data(), stream.size());
  const auto frame = buf.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->header.type, FrameType::kBye);
  EXPECT_EQ(buf.badFrames(), 1u);
  EXPECT_FALSE(buf.corrupt());
}

TEST(FrameBuffer, GarbageWhereAFrameMustStartIsStickyCorruption) {
  FrameBuffer buf;
  const std::uint8_t garbage[kHeaderBytes] = {0x00, 0x01, 0x02, 0x03};
  buf.append(garbage, sizeof garbage);
  EXPECT_FALSE(buf.next().has_value());
  EXPECT_TRUE(buf.corrupt());

  // Even a pristine frame appended afterwards stays unreadable: framing is
  // gone and the connection should be dropped.
  const auto good = framed(FrameType::kBye, kNoScheme,
                           net::TrafficClass::kControl, {});
  buf.append(good.data(), good.size());
  EXPECT_FALSE(buf.next().has_value());
  EXPECT_TRUE(buf.corrupt());
}

}  // namespace
}  // namespace mci::live::wire
