#include "report/codec.hpp"

#include <gtest/gtest.h>

#include <random>

#include "sim/random.hpp"
#include "sim/time.hpp"

namespace mci::report {
namespace {

SizeModel model(std::size_t n = 1000) {
  SizeModel m;
  m.numItems = n;
  return m;
}

// ---------------- BitWriter / BitReader ----------------

TEST(BitIo, RoundTripsAssortedWidths) {
  BitWriter w;
  w.write(0b101, 3);
  w.write(0xDEADBEEF, 32);
  w.write(1, 1);
  w.write(0x123456789ABCDEFull, 64);
  const auto frame = w.finish();
  EXPECT_EQ(w.bitCount(), 3u + 32 + 1 + 64);
  EXPECT_EQ(frame.size(), (w.bitCount() + 7) / 8);

  BitReader r(frame);
  EXPECT_EQ(r.read(3), 0b101u);
  EXPECT_EQ(r.read(32), 0xDEADBEEFu);
  EXPECT_EQ(r.read(1), 1u);
  EXPECT_EQ(r.read(64), 0x123456789ABCDEFull);
  EXPECT_TRUE(r.ok());
}

TEST(BitIo, UnderrunFlagsNotOk) {
  BitWriter w;
  w.write(7, 3);
  const auto frame = w.finish();
  BitReader r(frame);
  (void)r.read(3);
  EXPECT_TRUE(r.ok());
  (void)r.read(8);  // only padding left
  EXPECT_FALSE(r.ok());
}

TEST(BitIo, SpanConstructorReadsRawBuffers) {
  // The live wire layer runs the cursor straight over framed bytes
  // (header slices) without copying into a vector first.
  const std::uint8_t raw[] = {0x4D, 0x43, 0xA5};
  BitReader r(raw);
  EXPECT_EQ(r.read(16), 0x4D43u);
  EXPECT_EQ(r.read(8), 0xA5u);
  EXPECT_TRUE(r.ok());
  (void)r.read(1);
  EXPECT_FALSE(r.ok());
}

TEST(BitIo, SkipAdvancesWithoutDecodingAndUnderrunsLikeRead) {
  BitWriter w;
  w.write(0xFFFF, 16);
  w.write(0x2A, 8);
  const auto frame = w.finish();
  BitReader r(frame);
  r.skip(16);
  EXPECT_EQ(r.bitsRead(), 16u);
  EXPECT_EQ(r.read(8), 0x2Au);
  EXPECT_TRUE(r.ok());
  r.skip(1);
  EXPECT_FALSE(r.ok());
}

TEST(BitIo, FitsBoundsCountsByRemainingBits) {
  BitWriter w;
  w.write(3, 16);        // a count field
  w.write(0, 3 * 10);    // three 10-bit elements
  const auto frame = w.finish();
  BitReader r(frame);
  const std::uint64_t count = r.read(16);
  EXPECT_TRUE(r.fits(count, 10));
  EXPECT_FALSE(r.fits(count + 1, 10));  // 32 bits left: no 4th element
  EXPECT_FALSE(r.fits(~std::uint64_t{0}, 64));  // no overflow on huge counts
  (void)r.read(64);  // underrun
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.fits(0, 1)) << "a dead cursor fits nothing";
}

TEST(BitIo, UnderrunParksTheCursorAtTheEnd) {
  BitWriter w;
  w.write(1, 8);
  const auto frame = w.finish();
  BitReader r(frame);
  (void)r.read(64);  // underrun: returns 0, ok() false
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.bitsRead(), 8u);  // parked, not pushed past the span
  EXPECT_EQ(r.read(8), 0u);     // and it stays failed
  EXPECT_FALSE(r.ok());
}

TEST(BitIo, RandomizedRoundTrip) {
  std::mt19937_64 rng(3);
  for (int round = 0; round < 20; ++round) {
    std::vector<std::pair<std::uint64_t, int>> fields;
    BitWriter w;
    for (int i = 0; i < 100; ++i) {
      const int bits = 1 + static_cast<int>(rng() % 64);
      const std::uint64_t value =
          bits == 64 ? rng() : rng() & ((std::uint64_t{1} << bits) - 1);
      fields.emplace_back(value, bits);
      w.write(value, bits);
    }
    const auto frame = w.finish();
    BitReader r(frame);
    for (const auto& [value, bits] : fields) {
      EXPECT_EQ(r.read(bits), value);
    }
    EXPECT_TRUE(r.ok());
  }
}

// ---------------- timestamp quantization ----------------

TEST(ReportCodec, QuantizationIsMillisecondAccurate) {
  const auto sizes = model();
  ReportCodec codec(sizes);
  for (double t : {0.0, 0.1234, 99.999, 100000.0}) {
    EXPECT_NEAR(sim::tickTime(codec.quantize(t)), t, 1e-3) << t;
  }
}

TEST(ReportCodec, QuantizationSaturatesInsteadOfWrapping) {
  SizeModel sizes = model();
  sizes.timestampBits = 8;  // tiny field: 255 ticks max
  ReportCodec codec(sizes);
  EXPECT_EQ(codec.quantize(0.254), 254u);
  EXPECT_EQ(codec.quantize(0.255), 255u);
  EXPECT_EQ(codec.quantize(0.256), 255u);
  EXPECT_EQ(codec.quantize(1e9), 255u);
  EXPECT_EQ(codec.quantize(-5.0), 0u);
}

// ---------------- TS reports ----------------

TEST(ReportCodec, TsReportRoundTrip) {
  const auto sizes = model();
  ReportCodec codec(sizes);
  db::UpdateHistory h(1000);
  h.record(17, 55.5);
  h.record(444, 70.25);
  const auto original = TsReport::build(h, sizes, 100.0, 40.0);

  const auto frame = codec.encode(*original);
  EXPECT_EQ(codec.peekKind(frame), ReportKind::kTsWindow);
  const auto decoded = codec.decodeTs(frame);
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(decoded->kind, ReportKind::kTsWindow);
  EXPECT_NEAR(decoded->broadcastTime, 100.0, 1e-3);
  EXPECT_NEAR(decoded->coverageStart(), 40.0, 1e-3);
  ASSERT_EQ(decoded->entries().size(), 2u);
  EXPECT_EQ(decoded->entries()[0].item, 444u);
  EXPECT_NEAR(decoded->entries()[0].time, 70.25, 1e-3);
  EXPECT_EQ(decoded->entries()[1].item, 17u);
  EXPECT_NEAR(decoded->entries()[1].time, 55.5, 1e-3);
}

TEST(ReportCodec, ExtendedReportKeepsDummySemantics) {
  const auto sizes = model();
  ReportCodec codec(sizes);
  db::UpdateHistory h(1000);
  h.record(1, 50.0);
  const auto original = TsReport::buildExtended(h, sizes, 100.0, 30.0);
  const auto frame = codec.encode(*original);
  EXPECT_EQ(codec.peekKind(frame), ReportKind::kTsExtended);
  const auto decoded = codec.decodeTs(frame);
  ASSERT_NE(decoded, nullptr);
  EXPECT_TRUE(decoded->extended());
  EXPECT_NEAR(decoded->dummyTlb(), 30.0, 1e-3);
  EXPECT_TRUE(decoded->covers(30.001));
  EXPECT_FALSE(decoded->covers(29.0));
}

// readTs hands back the header in codec ticks and the records in wire
// order, and reuses the caller's scratch: once it has grown, reading a
// smaller report keeps the same storage.
TEST(ReportCodec, ReadTsReturnsTicksInPlace) {
  const auto sizes = model();
  ReportCodec codec(sizes);
  db::UpdateHistory h(1000);
  h.record(17, 55.5);
  h.record(444, 70.25);
  std::vector<TsRecord> records;
  const std::optional<TsHeader> extended = codec.readTs(
      codec.encode(*TsReport::buildExtended(h, sizes, 100.0, 40.0)), records);
  ASSERT_TRUE(extended.has_value());
  EXPECT_EQ(extended->kind, ReportKind::kTsExtended);
  EXPECT_EQ(extended->now, 100000u);
  EXPECT_EQ(extended->coverage, 40000u);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].item, 444u);
  EXPECT_EQ(records[0].tick, 70250u);
  EXPECT_EQ(records[1].item, 17u);
  EXPECT_EQ(records[1].tick, 55500u);

  const TsRecord* storage = records.data();
  const std::optional<TsHeader> window =
      codec.readTs(codec.encode(*TsReport::build(h, sizes, 100.0, 60.0)),
                   records);
  ASSERT_TRUE(window.has_value());
  EXPECT_EQ(window->kind, ReportKind::kTsWindow);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].item, 444u);
  EXPECT_EQ(records.data(), storage);
}

TEST(ReportCodec, TsFrameSizeTracksTheBitModel) {
  const auto sizes = model(10000);
  ReportCodec codec(sizes);
  db::UpdateHistory h(10000);
  for (db::ItemId i = 0; i < 50; ++i) h.record(i, 10.0 + i);
  const auto r = TsReport::build(h, sizes, 100.0, 5.0);
  const auto frame = codec.encode(*r);
  const double actualBits = static_cast<double>(frame.size()) * 8;
  EXPECT_GE(actualBits, r->sizeBits);
  EXPECT_LE(actualBits, r->sizeBits + ReportCodec::kCodecHeaderSlackBits);
}

// ---------------- BS reports ----------------

TEST(ReportCodec, BsReportRoundTripPreservesDecisions) {
  const auto sizes = model(256);
  ReportCodec codec(sizes);
  db::UpdateHistory h(256);
  sim::Rng rng(4);
  double t = 0;
  for (int i = 0; i < 300; ++i) {
    t += rng.exponential(3.0);
    h.record(static_cast<db::ItemId>(rng.uniformInt(0, 255)), t);
  }
  const auto original = BsReport::build(h, sizes, t + 1);
  const auto frame = codec.encode(*original);
  EXPECT_EQ(codec.peekKind(frame), ReportKind::kBitSeq);
  const auto decoded = codec.decodeBs(frame);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_NEAR(decoded->broadcastTime, t + 1, 1e-3);

  // The decoded wire must make the same decision as the original for any
  // Tlb (up to the timestamp quantum, so probe mid-interval points).
  const BsWire direct = BsWire::encode(*original);
  for (double probe = 0.5; probe < t; probe += t / 17.0) {
    const auto a = direct.decode(probe);
    const auto b = decoded->wire.decode(probe);
    EXPECT_EQ(a.action, b.action) << probe;
    EXPECT_EQ(a.items, b.items) << probe;
  }
}

TEST(ReportCodec, BsFrameSizeTracksTheWireModel) {
  const auto sizes = model(1024);
  ReportCodec codec(sizes);
  db::UpdateHistory h(1024);
  for (db::ItemId i = 0; i < 600; ++i) h.record(i, 1.0 + i);
  const auto r = BsReport::build(h, sizes, 1000.0);
  const BsWire wire = BsWire::encode(*r);
  const auto frame = codec.encode(*r);
  const double actualBits = static_cast<double>(frame.size()) * 8;
  EXPECT_GE(actualBits, wire.wireBits(sizes.timestampBits) - 8);
  EXPECT_LE(actualBits, wire.wireBits(sizes.timestampBits) +
                            ReportCodec::kCodecHeaderSlackBits);
}

// ---------------- SIG reports ----------------

TEST(ReportCodec, SigReportRoundTripsTruncatedSignatures) {
  const auto sizes = model(100);
  ReportCodec codec(sizes);
  SignatureTable table(100, 16, 3, 5);
  const auto original = SigReport::build(table, sizes, 60.0);
  const auto frame = codec.encode(*original);
  EXPECT_EQ(codec.peekKind(frame), ReportKind::kSignature);
  const auto decoded = codec.decodeSig(frame);
  ASSERT_NE(decoded, nullptr);
  ASSERT_EQ(decoded->combined().size(), 16u);
  const std::uint64_t mask = (std::uint64_t{1} << sizes.signatureBits) - 1;
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(decoded->combined()[i], original->combined()[i] & mask);
  }
}

// ---------------- robustness ----------------

TEST(ReportCodec, RejectsWrongKindAndTruncation) {
  const auto sizes = model();
  ReportCodec codec(sizes);
  db::UpdateHistory h(1000);
  h.record(1, 5.0);
  const auto ts = TsReport::build(h, sizes, 100.0, 40.0);
  auto frame = codec.encode(*ts);

  EXPECT_FALSE(codec.decodeBs(frame).has_value());
  EXPECT_EQ(codec.decodeSig(frame), nullptr);

  frame.resize(frame.size() / 2);  // truncated mid-record
  EXPECT_EQ(codec.decodeTs(frame), nullptr);

  const std::vector<std::uint8_t> empty;
  EXPECT_FALSE(codec.peekKind(empty).has_value());
}

/// A TS window payload laid out field by field (kind 0, not extended,
/// broadcast time, coverage start, no records), so the two times can say
/// what no encoder would.
std::vector<std::uint8_t> tsPayload(const ReportCodec& codec,
                                    const SizeModel& sizes, double now,
                                    double coverageStart) {
  BitWriter w;
  w.write(0, 2);  // kind: TS
  w.write(0, 1);  // not extended
  w.write(codec.quantize(now), sizes.timestampBits);
  w.write(codec.quantize(coverageStart), sizes.timestampBits);
  w.write(0, 24);  // record count
  return w.finish();
}

// Coverage that starts after the broadcast time is forged or corrupt: no
// encoder writes it and TsReport refuses to be built from it, so both
// decoders refuse the frame rather than abort on it.
TEST(ReportCodec, RefusesCoverageStartingAfterTheBroadcastTime) {
  const auto sizes = model();
  ReportCodec codec(sizes);
  const std::vector<std::uint8_t> honest = tsPayload(codec, sizes, 5.0, 1.0);
  ASSERT_NE(codec.decodeTs(honest), nullptr) << "layout control";
  EXPECT_NE(codec.decodeAny(honest), nullptr);

  const std::vector<std::uint8_t> forged = tsPayload(codec, sizes, 1.0, 5.0);
  EXPECT_EQ(codec.peekKind(forged), ReportKind::kTsWindow);
  std::vector<TsRecord> records;
  EXPECT_FALSE(codec.readTs(forged, records).has_value());
  EXPECT_EQ(codec.decodeTs(forged), nullptr);
  EXPECT_EQ(codec.decodeAny(forged), nullptr);
}

// The id field is wider than the database: 500 items take 9 bits, so a
// frame can name ids up to 511. No encoder lists such an id; a report that
// does is refused whole by the TS reader and both decoders built on it.
TEST(ReportCodec, RefusesItemIdsPastTheDatabase) {
  const auto sizes = model(500);
  ASSERT_EQ(sizes.itemIdBits(), 9);
  ReportCodec codec(sizes);
  const auto frameListing = [&](db::ItemId id) {
    return codec.encode(*TsReport::fromParts(
        ReportKind::kTsWindow, sizes, 110.0, 10.0,
        {{3, 101.0}, {id, 102.0}, {7, 103.0}}));
  };
  std::vector<TsRecord> records;
  for (const db::ItemId forged : {500u, 511u}) {
    const std::vector<std::uint8_t> frame = frameListing(forged);
    EXPECT_EQ(codec.peekKind(frame), ReportKind::kTsWindow);
    EXPECT_FALSE(codec.readTs(frame, records).has_value()) << "id " << forged;
    EXPECT_EQ(codec.decodeTs(frame), nullptr) << "id " << forged;
    EXPECT_EQ(codec.decodeAny(frame), nullptr) << "id " << forged;
  }
  const std::vector<std::uint8_t> last = frameListing(499);
  ASSERT_TRUE(codec.readTs(last, records).has_value());
  EXPECT_EQ(records.size(), 3u);
  EXPECT_NE(codec.decodeTs(last), nullptr);
  EXPECT_NE(codec.decodeAny(last), nullptr);
}

TEST(ReportCodec, GarbageFramesNeverCrash) {
  const auto sizes = model(500);
  ReportCodec codec(sizes);
  std::mt19937_64 rng(77);
  for (int round = 0; round < 200; ++round) {
    std::vector<std::uint8_t> garbage(rng() % 200);
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng());
    // Whatever the bytes say, the decoders must return cleanly.
    (void)codec.peekKind(garbage);
    (void)codec.decodeTs(garbage);
    (void)codec.decodeBs(garbage);
    (void)codec.decodeSig(garbage);
  }
  SUCCEED();
}

TEST(ReportCodec, TruncationSweepIsSafe) {
  const auto sizes = model(128);
  ReportCodec codec(sizes);
  db::UpdateHistory h(128);
  for (db::ItemId i = 0; i < 40; ++i) h.record(i, 1.0 + i);
  const auto r = BsReport::build(h, sizes, 100.0);
  const auto full = codec.encode(*r);
  ASSERT_TRUE(codec.decodeBs(full).has_value());
  for (std::size_t cut = 0; cut < full.size(); cut += 3) {
    std::vector<std::uint8_t> frame(full.begin(),
                                    full.begin() + static_cast<long>(cut));
    EXPECT_FALSE(codec.decodeBs(frame).has_value()) << "cut=" << cut;
  }
}

}  // namespace
}  // namespace mci::report
