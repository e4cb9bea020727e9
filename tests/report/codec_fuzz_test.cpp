// Deterministic fuzz for the bit-packing layer and every report codec:
// fixed Xoshiro seeds generate random reports whose encodings must round
// trip byte for byte, and random truncation/corruption must be rejected
// cleanly (BitReader::ok(), codec nullptr/nullopt, frame checksum) rather
// than crash or return garbage as if valid.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "db/update_history.hpp"
#include "live/wire.hpp"
#include "live/wire_bytes.hpp"
#include "report/codec.hpp"
#include "sim/random.hpp"

namespace mci::report {
namespace {

constexpr std::uint64_t kFuzzSeed = 0xF022CAFE;
constexpr int kRounds = 50;

/// Times on the codec's millisecond tick grid round trip exactly.
sim::SimTime randomTickTime(sim::Rng& rng, std::uint64_t maxTick) {
  return static_cast<double>(rng.uniformInt(0, static_cast<std::int64_t>(
                                                   maxTick))) *
         1e-3;
}

SizeModel smallSizes() {
  core::SimConfig cfg;
  cfg.dbSize = 512;
  return cfg.sizeModel();
}

TEST(BitPackingFuzz, RandomWriteSequencesReadBackExactly) {
  sim::Rng rng(kFuzzSeed);
  for (int round = 0; round < kRounds; ++round) {
    BitWriter w;
    std::vector<std::pair<std::uint64_t, int>> writes;
    const int n = static_cast<int>(rng.uniformInt(1, 200));
    for (int i = 0; i < n; ++i) {
      const int bits = static_cast<int>(rng.uniformInt(1, 64));
      const std::uint64_t value = rng.bits();
      writes.emplace_back(value, bits);
      w.write(value, bits);
    }
    const std::vector<std::uint8_t> bytes = w.finish();
    EXPECT_EQ(bytes.size(), (w.bitCount() + 7) / 8);

    BitReader r(bytes);
    for (const auto& [value, bits] : writes) {
      const std::uint64_t mask =
          bits == 64 ? ~0ull : ((1ull << bits) - 1);
      EXPECT_EQ(r.read(bits), value & mask);
      EXPECT_TRUE(r.ok());
    }
    EXPECT_EQ(r.bitsRead(), w.bitCount());
  }
}

TEST(BitPackingFuzz, ReadingPastTheEndClearsOkInsteadOfCrashing) {
  sim::Rng rng(kFuzzSeed + 1);
  for (int round = 0; round < kRounds; ++round) {
    BitWriter w;
    const int n = static_cast<int>(rng.uniformInt(0, 20));
    for (int i = 0; i < n; ++i) w.write(rng.bits(), 13);
    const std::vector<std::uint8_t> bytes = w.finish();

    BitReader r(bytes);
    // Read more 13-bit fields than were written: the overrun read returns 0
    // and ok() latches false.
    for (int i = 0; i < n + 3; ++i) (void)r.read(13);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.read(13), 0u);  // still safe after failure
  }
}

TEST(BitPackingFuzz, BulkBitVecWritesInterleavedWithScalarsRoundTrip) {
  // The word-at-a-time writeBitVec/readBitVec paths, at every alignment the
  // scalar writes before them can produce: random interleavings of scalar
  // fields and bit vectors of random width/density must read back exactly,
  // and the byte stream must be what the per-bit path would have emitted
  // (codec_word_test pins that; here we shake the alignment space).
  sim::Rng rng(kFuzzSeed + 8);
  for (int round = 0; round < kRounds; ++round) {
    BitWriter w;
    struct Op {
      bool isVec;
      std::uint64_t value;
      int bits;
      BitVec vec;
    };
    std::vector<Op> ops;
    const int n = static_cast<int>(rng.uniformInt(1, 30));
    for (int i = 0; i < n; ++i) {
      Op op;
      op.isVec = rng.bernoulli(0.5);
      if (op.isVec) {
        const auto len =
            static_cast<std::size_t>(rng.uniformInt(0, 300));
        const double density = rng.uniform01();
        op.vec.assign(len);
        for (std::size_t b = 0; b < len; ++b) {
          if (rng.uniform01() < density) op.vec.set(b);
        }
        w.writeBitVec(op.vec);
      } else {
        op.bits = static_cast<int>(rng.uniformInt(1, 64));
        op.value = rng.bits();
        w.write(op.value, op.bits);
      }
      ops.push_back(std::move(op));
    }
    const std::vector<std::uint8_t> bytes = w.finish();

    BitReader r(bytes);
    for (const Op& op : ops) {
      if (op.isVec) {
        BitVec back;
        r.readBitVec(back, op.vec.size());
        ASSERT_TRUE(r.ok()) << "round " << round;
        ASSERT_EQ(back.size(), op.vec.size());
        for (std::size_t b = 0; b < back.size(); ++b) {
          ASSERT_EQ(back.test(b), op.vec.test(b))
              << "round " << round << " bit " << b;
        }
      } else {
        const std::uint64_t mask =
            op.bits == 64 ? ~0ull : ((1ull << op.bits) - 1);
        ASSERT_EQ(r.read(op.bits), op.value & mask) << "round " << round;
      }
    }
    EXPECT_EQ(r.bitsRead(), w.bitCount());

    // Asking for one bit past the padded byte stream must fail cleanly
    // from whatever alignment the round ended on.
    BitVec overrun;
    r.readBitVec(overrun, bytes.size() * 8 - r.bitsRead() + 1);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(overrun.size(), 0u);
  }
}

TEST(CodecFuzz, TsReportsRoundTripByteForByte) {
  sim::Rng rng(kFuzzSeed + 2);
  const SizeModel sizes = smallSizes();
  const ReportCodec codec(sizes);
  for (int round = 0; round < kRounds; ++round) {
    const std::uint64_t nowTick = 1000 + 2000 * static_cast<std::uint64_t>(
                                             rng.uniformInt(1, 1000));
    const sim::SimTime now = static_cast<double>(nowTick) * 1e-3;
    const sim::SimTime coverage = randomTickTime(rng, nowTick / 2);
    std::vector<db::UpdateRecord> entries;
    const int n = static_cast<int>(rng.uniformInt(0, 40));
    for (int i = 0; i < n; ++i) {
      entries.push_back(
          {.item = static_cast<db::ItemId>(rng.uniformInt(0, 511)),
           .time = coverage +
                   randomTickTime(rng, nowTick / 2)});
    }
    const bool extended = rng.bernoulli(0.5);
    const auto r =
        extended ? TsReport::fromParts(ReportKind::kTsExtended, sizes, now,
                                       coverage, entries)
                 : TsReport::fromParts(ReportKind::kTsWindow, sizes, now,
                                       coverage, entries);

    const std::vector<std::uint8_t> bytes = codec.encode(*r);
    const auto decoded = codec.decodeTs(bytes);
    ASSERT_NE(decoded, nullptr) << "round " << round;
    EXPECT_EQ(decoded->kind, r->kind);
    EXPECT_EQ(decoded->entries().size(), r->entries().size());
    EXPECT_EQ(codec.encode(*decoded), bytes) << "round " << round;

    const auto any = codec.decodeAny(bytes);
    ASSERT_NE(any, nullptr);
    EXPECT_EQ(any->kind, r->kind);
  }
}

TEST(CodecFuzz, BsReportsRoundTripByteForByte) {
  sim::Rng rng(kFuzzSeed + 3);
  const SizeModel sizes = smallSizes();
  const ReportCodec codec(sizes);
  for (int round = 0; round < kRounds; ++round) {
    db::UpdateHistory history(512);
    const int updates = static_cast<int>(rng.uniformInt(0, 300));
    std::uint64_t tick = 0;
    for (int i = 0; i < updates; ++i) {
      tick += static_cast<std::uint64_t>(rng.uniformInt(1, 50));
      history.record(static_cast<db::ItemId>(rng.uniformInt(0, 511)),
                     static_cast<double>(tick) * 1e-3);
    }
    const sim::SimTime now = static_cast<double>(tick + 1000) * 1e-3;
    const auto r = BsReport::build(history, sizes, now);

    const std::vector<std::uint8_t> bytes = codec.encode(*r);
    const auto decoded = codec.decodeBs(bytes);
    ASSERT_TRUE(decoded.has_value()) << "round " << round;
    const auto lifted =
        BsReport::fromWire(decoded->wire, sizes, decoded->broadcastTime);
    ASSERT_NE(lifted, nullptr);
    EXPECT_EQ(codec.encode(*lifted), bytes) << "round " << round;
  }
}

TEST(CodecFuzz, SigReportsRoundTripByteForByte) {
  sim::Rng rng(kFuzzSeed + 4);
  const SizeModel sizes = smallSizes();
  const ReportCodec codec(sizes);
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::uint64_t> combined;
    const int n = static_cast<int>(rng.uniformInt(0, 64));
    // Raw 64-bit values: the encoder keeps only signatureBits of each, so
    // the byte-level round trip must still be exact.
    for (int i = 0; i < n; ++i) combined.push_back(rng.bits());
    const sim::SimTime now = randomTickTime(rng, 1u << 30);
    const auto r = SigReport::fromParts(sizes, now, std::move(combined));

    const std::vector<std::uint8_t> bytes = codec.encode(*r);
    const auto decoded = codec.decodeSig(bytes);
    ASSERT_NE(decoded, nullptr) << "round " << round;
    EXPECT_EQ(codec.encode(*decoded), bytes) << "round " << round;
  }
}

TEST(CodecFuzz, TruncatedFramesAreRejectedNotMisread) {
  sim::Rng rng(kFuzzSeed + 5);
  const SizeModel sizes = smallSizes();
  const ReportCodec codec(sizes);
  std::vector<db::UpdateRecord> entries;
  for (int i = 0; i < 20; ++i) {
    entries.push_back({.item = static_cast<db::ItemId>(i),
                       .time = 1.0 + 0.001 * i});
  }
  const auto r =
      TsReport::fromParts(ReportKind::kTsWindow, sizes, 100.0, 0.5, entries);
  const std::vector<std::uint8_t> bytes = codec.encode(*r);

  for (int round = 0; round < kRounds; ++round) {
    const auto cut = static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(bytes.size()) - 1));
    const std::vector<std::uint8_t> truncated(bytes.begin(),
                                              bytes.begin() + cut);
    // Either rejected outright or decoded from the bits that survived; it
    // must never read past the buffer (ASan-checked) nor fabricate more
    // entries than the original had.
    if (const auto decoded = codec.decodeTs(truncated)) {
      EXPECT_LE(decoded->entries().size(), entries.size());
    }
    EXPECT_EQ(codec.decodeAny({}), nullptr);
  }
}

TEST(CodecFuzz, WelcomeV2ShardMapsRoundTripAndRejectDamage) {
  sim::Rng rng(kFuzzSeed + 7);
  for (int round = 0; round < kRounds; ++round) {
    live::wire::Welcome m;
    m.clientId = static_cast<std::uint32_t>(rng.bits());
    m.scheme = static_cast<std::uint8_t>(rng.uniformInt(0, 8));
    m.dbSize = static_cast<std::uint32_t>(rng.uniformInt(1, 1 << 20));
    m.cacheCapacity = static_cast<std::uint32_t>(rng.uniformInt(1, 4096));
    m.broadcastPeriod = randomTickTime(rng, 1u << 20);
    m.timeScale = 1.0 + static_cast<double>(rng.uniformInt(0, 1000));
    m.sigSeed = rng.bits();

    const auto shards = static_cast<std::uint32_t>(rng.uniformInt(1, 12));
    std::vector<live::ShardEndpoint> eps;
    for (std::uint32_t s = 0; s < shards; ++s) {
      live::ShardEndpoint ep;
      ep.ipv4 = static_cast<std::uint32_t>(rng.bits());
      ep.tcpPort = static_cast<std::uint16_t>(rng.uniformInt(1, 65535));
      if (rng.bernoulli(0.5)) {
        ep.multicastIpv4 = 0xE0000000u | (static_cast<std::uint32_t>(rng.bits()) &
                                          0x0FFFFFFFu);
        ep.multicastPort = static_cast<std::uint16_t>(rng.uniformInt(1, 65535));
      }
      eps.push_back(ep);
    }
    m.shardMap = live::ShardMap(static_cast<std::uint32_t>(rng.bits()),
                                rng.bits(), std::move(eps));
    m.shardIndex = static_cast<std::uint16_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(shards) - 1));

    const std::vector<std::uint8_t> bytes =
        live::wire::wiretest::encoded(live::wire::encodeWelcomeInto, m);
    const auto back = live::wire::decodeWelcome(bytes);
    ASSERT_TRUE(back.has_value()) << "round " << round;
    EXPECT_EQ(back->shardIndex, m.shardIndex);
    EXPECT_EQ(back->shardMap, m.shardMap);
    EXPECT_EQ(
        live::wire::wiretest::encoded(live::wire::encodeWelcomeInto, *back),
        bytes)
        << "round " << round;

    // Any truncation loses shard-map tail bytes and must be refused — a
    // client configuring its whole link set from a half map would route
    // queries to daemons that do not own them.
    const auto cut = static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(bytes.size()) - 1));
    const std::vector<std::uint8_t> truncated(bytes.begin(),
                                              bytes.begin() + cut);
    EXPECT_FALSE(live::wire::decodeWelcome(truncated).has_value())
        << "cut=" << cut;

    // A corrupted shard count must be bounded by kMaxShards, not allocated.
    auto bad = bytes;
    const auto bit = static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(bad.size()) * 8 - 1));
    bad[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    if (const auto damaged = live::wire::decodeWelcome(bad)) {
      EXPECT_LE(damaged->shardMap.shardCount(), live::ShardMap::kMaxShards);
      EXPECT_LT(damaged->shardIndex, damaged->shardMap.shardCount());
    }
  }
}

TEST(CodecFuzz, FrameBufferResyncsPastACorruptFrameSplitAcrossReads) {
  const SizeModel sizes = smallSizes();
  const ReportCodec codec(sizes);
  const auto r = TsReport::fromParts(ReportKind::kTsWindow, sizes, 60.0, 10.0,
                                     {{.item = 7, .time = 20.0}});
  const auto payload = codec.encode(*r);
  const auto good =
      live::wire::wiretest::framed(live::wire::FrameType::kReport, 0,
                                   net::TrafficClass::kInvalidationReport,
                                   payload);
  auto corrupt = good;
  ASSERT_FALSE(corrupt.empty());
  corrupt.back() ^= 0x5A;  // payload damage: checksum fails

  // TCP hands the receiver the corrupt frame in two arbitrary pieces, the
  // split landing inside the frame; the buffer must hold state across the
  // reads, reject the reassembled frame on checksum, then resync onto the
  // good frame that follows.
  for (std::size_t split = 1; split < corrupt.size(); ++split) {
    live::wire::FrameBuffer buf;
    buf.append(corrupt.data(), split);
    EXPECT_FALSE(buf.next().has_value()) << "half a frame decoded";
    buf.append(corrupt.data() + split, corrupt.size() - split);
    buf.append(good.data(), good.size());

    const auto frame = buf.next();
    ASSERT_TRUE(frame.has_value()) << "split=" << split;
    EXPECT_EQ(frame->header.type, live::wire::FrameType::kReport);
    EXPECT_TRUE(std::ranges::equal(frame->payload, payload));
    EXPECT_EQ(buf.badFrames(), 1u);
    EXPECT_FALSE(buf.corrupt()) << "checksum skip must not poison the stream";
    EXPECT_FALSE(buf.next().has_value());
  }
}

TEST(CodecFuzz, CorruptedWireFramesFailTheHeaderChecksum) {
  sim::Rng rng(kFuzzSeed + 6);
  const SizeModel sizes = smallSizes();
  const ReportCodec codec(sizes);
  const auto r = TsReport::fromParts(ReportKind::kTsWindow, sizes, 60.0, 10.0,
                                     {{.item = 1, .time = 20.0}});
  const auto frame =
      live::wire::wiretest::framed(live::wire::FrameType::kReport, 0,
                                   net::TrafficClass::kInvalidationReport,
                                   codec.encode(*r));
  ASSERT_TRUE(live::wire::decodeFrame(frame.data(), frame.size()).has_value());

  for (int round = 0; round < kRounds; ++round) {
    auto bad = frame;
    const auto bit = static_cast<std::size_t>(rng.uniformInt(
        0, static_cast<std::int64_t>(bad.size()) * 8 - 1));
    bad[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(live::wire::decodeFrame(bad.data(), bad.size()).has_value())
        << "flipped bit " << bit;
  }
}

// --- decoder slices -----------------------------------------------------
// Decoders read a span inside a larger buffer (a FrameView payload in a
// receive buffer), where ASan sees no over-read past the span's end. So
// every decoder is held to its span directly: given its payload inside a
// buffer padded with non-zero bytes it returns what it returns on the
// exact payload, and every strict prefix, taken over the same buffer so
// the rest of the payload lies right behind it, is refused.

/// One decoder under test: `decode` runs it over a span and returns the
/// canonical bytes of what it decoded (re-encoded through the one
/// encoder), or nullopt when it refused.
struct SliceCase {
  std::string name;
  std::vector<std::uint8_t> payload;
  std::function<std::optional<std::vector<std::uint8_t>>(
      std::span<const std::uint8_t>)>
      decode;
};

/// decodeX then encodeXInto: the canonical bytes of the decoded message.
template <class Decode, class Encode>
auto reencoded(Decode decode, Encode encodeInto) {
  return [decode, encodeInto](std::span<const std::uint8_t> bytes)
             -> std::optional<std::vector<std::uint8_t>> {
    const auto m = decode(bytes);
    if (!m) return std::nullopt;
    return live::wire::wiretest::encoded(encodeInto, *m);
  };
}

std::vector<std::uint8_t> reportBytes(const ReportCodec& codec,
                                      const Report& r) {
  switch (r.kind) {
    case ReportKind::kTsWindow:
    case ReportKind::kTsExtended:
      return codec.encode(static_cast<const TsReport&>(r));
    case ReportKind::kBitSeq:
      return codec.encode(static_cast<const BsReport&>(r));
    case ReportKind::kSignature:
      return codec.encode(static_cast<const SigReport&>(r));
  }
  return {};
}

std::vector<SliceCase> sliceCases(const ReportCodec& codec,
                                  const SizeModel& sizes) {
  namespace wire = live::wire;
  using wire::wiretest::encoded;
  std::vector<SliceCase> cases;
  const auto add = [&](std::string name, std::vector<std::uint8_t> payload,
                       auto decode) {
    cases.push_back({std::move(name), std::move(payload), decode});
  };

  const live::ShardMap map(
      3, 0x1234'5678'9ABC'DEF0ull,
      {live::ShardEndpoint{0x7F000001u, 4242, 0, 0},
       live::ShardEndpoint{0x7F000001u, 4243, 0xEFFF2A63u, 5000}});
  const wire::Hello hello{.udpPort = 40123, .audit = true};
  add("Hello", encoded(wire::encodeHelloInto, hello),
      reencoded(wire::decodeHello, wire::encodeHelloInto));
  wire::Welcome welcome;
  welcome.clientId = 17;
  welcome.dbSize = 512;
  welcome.broadcastPeriod = 20.0;
  welcome.shardIndex = 1;
  welcome.shardMap = map;
  add("Welcome", encoded(wire::encodeWelcomeInto, welcome),
      reencoded(wire::decodeWelcome, wire::encodeWelcomeInto));
  const std::vector<db::ItemId> items = {0, 7, 511, 12345};
  add("QueryRequest",
      encoded(wire::encodeQueryRequestInto, std::span(items)),
      [](std::span<const std::uint8_t> b)
          -> std::optional<std::vector<std::uint8_t>> {
        const auto m = wire::decodeQueryRequest(b);
        if (!m) return std::nullopt;
        return encoded(wire::encodeQueryRequestInto, std::span(m->items));
      });
  // One record: a longer reply's whole-record prefixes are valid shorter
  // replies (DataItemReply.EveryLengthButSixteenPlusEightKIsRefused).
  const wire::DataItem item{.item = 42, .version = 9, .readTime = 199.5};
  add("DataItemReader", encoded(wire::encodeDataItemInto, item),
      [](std::span<const std::uint8_t> b)
          -> std::optional<std::vector<std::uint8_t>> {
        auto reply = wire::DataItemReader::parse(b);
        if (!reply || reply->size() != 1) return std::nullopt;
        return encoded(wire::encodeDataItemInto, reply->next());
      });
  const wire::Check check{.tlb = 12.5,
                          .epoch = 3,
                          .sizeBits = 96.0,
                          .entries = {{.item = 3, .time = 1.25},
                                      {.item = 8, .time = 9.0}}};
  add("Check", encoded(wire::encodeCheckInto, check),
      reencoded(wire::decodeCheck, wire::encodeCheckInto));
  const wire::CheckAck ack{.epoch = 4, .asOf = 260.0};
  add("CheckAck", encoded(wire::encodeCheckAckInto, ack),
      reencoded(wire::decodeCheckAck, wire::encodeCheckAckInto));
  const wire::ValidityReplyMsg validity{
      .asOf = 300.0, .epoch = 5, .sizeBits = 96.0, .invalid = {1, 5, 9}};
  add("ValidityReply", encoded(wire::encodeValidityReplyInto, validity),
      reencoded(wire::decodeValidityReply, wire::encodeValidityReplyInto));
  const wire::Audit audit{.item = 77, .version = 3, .validAsOf = 280.0};
  add("Audit", encoded(wire::encodeAuditInto, audit),
      reencoded(wire::decodeAudit, wire::encodeAuditInto));
  add("MapUpdate",
      encoded(wire::encodeMapUpdateInto, wire::MapUpdate{.shardMap = map}),
      reencoded([](std::span<const std::uint8_t> b) {
                  return wire::decodeMapUpdate(b);
                },
                wire::encodeMapUpdateInto));
  const wire::Handoff handoff{.mapVersion = 7,
                              .sourceShard = 1,
                              .last = 1,
                              .item = 424242,
                              .updateTimes = {1.5, 99.25}};
  add("Handoff", encoded(wire::encodeHandoffInto, handoff),
      reencoded(wire::decodeHandoff, wire::encodeHandoffInto));
  const wire::HandoffAck handoffAck{.mapVersion = 9, .itemsReceived = 12};
  add("HandoffAck", encoded(wire::encodeHandoffAckInto, handoffAck),
      reencoded(wire::decodeHandoffAck, wire::encodeHandoffAckInto));
  add("Frame",
      wire::wiretest::framed(wire::FrameType::kAudit, wire::kNoScheme,
                             net::TrafficClass::kControl,
                             encoded(wire::encodeAuditInto, audit)),
      [](std::span<const std::uint8_t> b)
          -> std::optional<std::vector<std::uint8_t>> {
        const auto f = wire::decodeFrame(b.data(), b.size());
        if (!f) return std::nullopt;
        return wire::wiretest::framed(
            f->header.type, f->header.scheme,
            static_cast<net::TrafficClass>(f->header.trafficClass),
            f->payload);
      });

  db::UpdateHistory history(512);
  for (db::ItemId i = 0; i < 40; ++i) history.record(i * 11, 1.0 + i);
  const auto ts = TsReport::build(history, sizes, 60.0, 10.0);
  const auto extended = TsReport::buildExtended(history, sizes, 60.0, 5.0);
  const auto bs = BsReport::build(history, sizes, 60.0);
  const auto sig = SigReport::fromParts(
      sizes, 60.0, {0x123456789ABCDEF0ull, 0xFFFFull, 0ull, 42ull});
  const auto decodeTs = [&codec](std::span<const std::uint8_t> b)
      -> std::optional<std::vector<std::uint8_t>> {
    const auto r = codec.decodeTs(b);
    if (r == nullptr) return std::nullopt;
    return codec.encode(*r);
  };
  add("decodeTs/window", codec.encode(*ts), decodeTs);
  add("decodeTs/extended", codec.encode(*extended), decodeTs);
  // The one TS reader hands back raw ticks: laid out again field by field
  // they must give the payload's bytes.
  const auto readTs = [&codec, &sizes](std::span<const std::uint8_t> b)
      -> std::optional<std::vector<std::uint8_t>> {
    std::vector<TsRecord> records;
    const std::optional<TsHeader> h = codec.readTs(b, records);
    if (!h) return std::nullopt;
    BitWriter w;
    w.write(0, 2);  // kind: TS
    w.write(h->kind == ReportKind::kTsExtended ? 1 : 0, 1);
    w.write(h->now, sizes.timestampBits);
    w.write(h->coverage, sizes.timestampBits);
    w.write(records.size(), 24);
    for (const TsRecord& r : records) {
      w.write(r.item, sizes.itemIdBits());
      w.write(r.tick, sizes.timestampBits);
    }
    return w.finish();
  };
  add("readTs/window", codec.encode(*ts), readTs);
  add("readTs/extended", codec.encode(*extended), readTs);
  add("decodeBs", codec.encode(*bs),
      [&codec](std::span<const std::uint8_t> b)
          -> std::optional<std::vector<std::uint8_t>> {
        const auto d = codec.decodeBs(b);
        if (!d) return std::nullopt;
        BitWriter w;
        codec.encodeWire(d->wire, d->broadcastTime, w);
        return w.finish();
      });
  add("decodeSig", codec.encode(*sig),
      [&codec](std::span<const std::uint8_t> b)
          -> std::optional<std::vector<std::uint8_t>> {
        const auto r = codec.decodeSig(b);
        if (r == nullptr) return std::nullopt;
        return codec.encode(*r);
      });
  const auto decodeAny = [&codec](std::span<const std::uint8_t> b)
      -> std::optional<std::vector<std::uint8_t>> {
    const ReportPtr r = codec.decodeAny(b);
    if (r == nullptr) return std::nullopt;
    return reportBytes(codec, *r);
  };
  add("decodeAny/ts", codec.encode(*extended), decodeAny);
  add("decodeAny/bs", codec.encode(*bs), decodeAny);
  add("decodeAny/sig", codec.encode(*sig), decodeAny);
  return cases;
}

TEST(DecoderSlices, EveryDecoderReadsOnlyItsSpan) {
  const SizeModel sizes = smallSizes();
  const ReportCodec codec(sizes);
  constexpr std::size_t kPad = 32;
  for (const SliceCase& c : sliceCases(codec, sizes)) {
    SCOPED_TRACE(c.name);
    ASSERT_FALSE(c.payload.empty());
    const std::optional<std::vector<std::uint8_t>> exact = c.decode(c.payload);
    ASSERT_TRUE(exact.has_value());
    EXPECT_EQ(*exact, c.payload) << "decode and encode disagree";

    // The payload at kPad inside a buffer of non-zero bytes; either side
    // of it is garbage a decoder must never read.
    std::vector<std::uint8_t> buffer(kPad, 0xA5);
    buffer.insert(buffer.end(), c.payload.begin(), c.payload.end());
    buffer.insert(buffer.end(), kPad, 0x5A);
    const std::span<const std::uint8_t> inside(buffer.data() + kPad,
                                               c.payload.size());
    EXPECT_EQ(c.decode(inside), exact);
    for (std::size_t len = 0; len < c.payload.size(); ++len) {
      EXPECT_FALSE(c.decode(inside.first(len)).has_value())
          << "prefix of " << len << " of " << c.payload.size() << " bytes";
    }
  }
}

// peekKind reads only the leading kind bits, so a one-byte prefix of any
// report already names its kind; it must still read only its span.
TEST(DecoderSlices, PeekKindReadsOnlyItsSpan) {
  const SizeModel sizes = smallSizes();
  const ReportCodec codec(sizes);
  db::UpdateHistory history(512);
  history.record(3, 1.0);
  const auto extended = TsReport::buildExtended(history, sizes, 60.0, 5.0);
  const auto sig = SigReport::fromParts(sizes, 60.0, {7ull});
  for (const std::vector<std::uint8_t>& payload :
       {codec.encode(*extended), codec.encode(*sig)}) {
    std::vector<std::uint8_t> buffer(8, 0xFF);
    buffer.insert(buffer.end(), payload.begin(), payload.end());
    const std::span<const std::uint8_t> inside(buffer.data() + 8,
                                               payload.size());
    const std::optional<ReportKind> kind = codec.peekKind(payload);
    ASSERT_TRUE(kind.has_value());
    EXPECT_EQ(codec.peekKind(inside), kind);
    EXPECT_EQ(codec.peekKind(inside.first(1)), kind);
    // 0xFF behind an empty span would read as kind 3 (refused) or, for a
    // TS report, as extended: only the span's own bits may count.
    EXPECT_FALSE(codec.peekKind(inside.first(0)).has_value());
  }
}

}  // namespace
}  // namespace mci::report
