// Golden-frame coverage for the word-at-a-time codec serialization. The
// BitWriter/BitReader bulk BitVec paths replaced single-bit loops; these
// tests hold them byte-identical to an in-file single-bit reference writer
// across every alignment, width class (0, 1, word-1, word, word+1, 10k)
// and density, pin the exact wire bytes of each report family as hex, and
// hold the FrameArena to the documented frame envelope.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "db/update_history.hpp"
#include "live/wire.hpp"
#include "net/message.hpp"
#include "report/codec.hpp"
#include "sim/random.hpp"

namespace mci::report {
namespace {

// ---------------------------------------------------------------------------
// Reference single-bit writer: the serialization loop as it was before the
// word-at-a-time rewrite — one append per bit, MSB-first within each byte.
// ---------------------------------------------------------------------------

struct BitLoopWriter {
  std::vector<std::uint8_t> out;
  std::size_t bitCount = 0;

  void writeBit(std::uint64_t bit) {
    if (bitCount % 8 == 0) out.push_back(0);
    out[bitCount / 8] |=
        static_cast<std::uint8_t>((bit & 1) << (7 - bitCount % 8));
    ++bitCount;
  }
  void write(std::uint64_t value, int bits) {
    for (int b = bits - 1; b >= 0; --b) writeBit((value >> b) & 1);
  }
  void writeBitVec(const BitVec& bits) {
    for (std::size_t i = 0; i < bits.size(); ++i) {
      writeBit(bits.test(i) ? 1 : 0);
    }
  }
};

std::string hex(const std::vector<std::uint8_t>& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string s;
  s.reserve(bytes.size() * 2);
  for (const std::uint8_t b : bytes) {
    s.push_back(kDigits[b >> 4]);
    s.push_back(kDigits[b & 0xF]);
  }
  return s;
}

BitVec randomVec(sim::Rng& rng, std::size_t n, double density) {
  BitVec v;
  v.assign(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.uniform01() < density) v.set(i);
  }
  return v;
}

bool sameBits(const BitVec& a, const BitVec& b) {
  return a.size() == b.size() &&
         std::ranges::equal(a.words(), b.words());
}

constexpr std::size_t kWidths[] = {0, 1, 63, 64, 65, 10000};
constexpr double kDensities[] = {0.0, 0.01, 0.5, 0.99, 1.0};

// ---------------------------------------------------------------------------
// Bulk writer/reader vs the bit loop
// ---------------------------------------------------------------------------

TEST(WordCodec, WriteBitVecMatchesBitLoopAcrossWidthsAndDensities) {
  sim::Rng rng(0xC0DEC);
  for (const std::size_t n : kWidths) {
    for (const double density : kDensities) {
      const BitVec v = randomVec(rng, n, density);
      // prefix 0 = byte-aligned fast path; 3 = the unaligned word path.
      for (const int prefixBits : {0, 3}) {
        BitWriter w;
        BitLoopWriter ref;
        if (prefixBits != 0) {
          w.write(0b101, prefixBits);
          ref.write(0b101, prefixBits);
        }
        w.writeBitVec(v);
        ref.writeBitVec(v);
        EXPECT_EQ(w.bitCount(), ref.bitCount)
            << "n=" << n << " density=" << density
            << " prefix=" << prefixBits;
        EXPECT_EQ(w.finish(), ref.out)
            << "n=" << n << " density=" << density
            << " prefix=" << prefixBits;
      }
    }
  }
}

TEST(WordCodec, ReadBitVecRoundTripsEveryWidthAndAlignment) {
  sim::Rng rng(0xC0DEC + 1);
  for (const std::size_t n : kWidths) {
    for (const double density : {0.01, 0.5, 0.99}) {
      const BitVec v = randomVec(rng, n, density);
      for (const int prefixBits : {0, 5}) {
        BitWriter w;
        if (prefixBits != 0) w.write(0b10110, prefixBits);
        w.writeBitVec(v);
        const std::vector<std::uint8_t> frame = w.finish();

        BitReader r(frame);
        if (prefixBits != 0) {
          EXPECT_EQ(r.read(prefixBits), 0b10110u);
        }
        BitVec back;
        r.readBitVec(back, n);
        EXPECT_TRUE(r.ok()) << "n=" << n << " prefix=" << prefixBits;
        EXPECT_TRUE(sameBits(v, back))
            << "n=" << n << " density=" << density
            << " prefix=" << prefixBits;
      }
    }
  }
}

TEST(WordCodec, ReadBitVecUnderrunLeavesOutputEmpty) {
  BitWriter w;
  w.write(0xAB, 8);
  const std::vector<std::uint8_t> frame = w.finish();

  BitVec out;
  out.assign(5);  // stale content must not survive a failed read
  BitReader r(frame);
  r.readBitVec(out, 9);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(out.size(), 0u);
  EXPECT_EQ(r.bitsRead(), 8u) << "cursor parks at the end";

  // A length near SIZE_MAX must fail the bound check, not overflow it.
  BitReader r2(frame);
  out.assign(5);
  r2.readBitVec(out, std::numeric_limits<std::size_t>::max() - 3);
  EXPECT_FALSE(r2.ok());
  EXPECT_EQ(out.size(), 0u);
}

// ---------------------------------------------------------------------------
// Scalar write/read: the whole-byte path vs the bit loop
// ---------------------------------------------------------------------------

/// Single-bit reader: the mirror of BitLoopWriter.
std::uint64_t bitLoopRead(const std::vector<std::uint8_t>& bytes,
                          std::size_t pos, int bits) {
  std::uint64_t v = 0;
  for (int b = 0; b < bits; ++b, ++pos) {
    v = (v << 1) | ((bytes[pos / 8] >> (7 - pos % 8)) & 1u);
  }
  return v;
}

TEST(WordCodec, ScalarWriteMatchesBitLoopAtEveryOffsetAndWidth) {
  // Offsets 0 and whole-byte widths take the whole-byte path; every other
  // pair takes the chunked loop. The value carries bits above the width,
  // which neither path may emit, and a trailing field checks the cursor.
  sim::Rng rng(0xC0DEC + 7);
  for (int offset = 0; offset < 8; ++offset) {
    for (int width = 1; width <= 64; ++width) {
      const std::uint64_t value = rng.bits();
      BitWriter w;
      BitLoopWriter ref;
      for (int i = 0; i < offset; ++i) {
        w.write(i & 1, 1);
        ref.write(i & 1, 1);
      }
      w.write(value, width);
      ref.write(value, width);
      w.write(0xA5, 8);
      ref.write(0xA5, 8);
      ASSERT_EQ(w.bitCount(), ref.bitCount)
          << "offset=" << offset << " width=" << width;
      ASSERT_EQ(w.finish(), ref.out)
          << "offset=" << offset << " width=" << width;
    }
  }
}

TEST(WordCodec, ScalarReadMatchesBitLoopAtEveryOffsetAndWidth) {
  sim::Rng rng(0xC0DEC + 8);
  std::vector<std::uint8_t> bytes(24);
  for (std::uint8_t& b : bytes) {
    b = static_cast<std::uint8_t>(rng.bits() & 0xFF);
  }
  for (int offset = 0; offset < 8; ++offset) {
    for (int width = 1; width <= 64; ++width) {
      BitReader r(bytes);
      if (offset != 0) r.skip(offset);
      const auto at = static_cast<std::size_t>(offset);
      ASSERT_EQ(r.read(width), bitLoopRead(bytes, at, width))
          << "offset=" << offset << " width=" << width;
      ASSERT_EQ(r.bitsRead(), at + static_cast<std::size_t>(width));
      // The next field starts exactly where the last one ended.
      const std::size_t next = at + static_cast<std::size_t>(width);
      ASSERT_EQ(r.read(8), bitLoopRead(bytes, next, 8))
          << "offset=" << offset << " width=" << width;
      ASSERT_TRUE(r.ok());
    }
  }
}

TEST(WordCodec, AlignedReadUnderrunReturnsZeroAndParks) {
  // 5 bytes: an aligned 32-bit read fits, the aligned 16-bit read after it
  // does not. It must fail the bound before touching a byte.
  const std::vector<std::uint8_t> bytes = {0xDE, 0xAD, 0xBE, 0xEF, 0x42};
  BitReader r(bytes);
  EXPECT_EQ(r.read(32), 0xDEADBEEFu);
  EXPECT_EQ(r.read(16), 0u);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.bitsRead(), 40u) << "cursor parks at the end";
  EXPECT_EQ(r.read(8), 0u) << "a parked cursor keeps failing";
  EXPECT_FALSE(r.ok());

  // A whole-word read one byte short of the span fails the same way.
  BitReader r2{std::span<const std::uint8_t>(bytes).first(4)};
  EXPECT_EQ(r2.read(64), 0u);
  EXPECT_FALSE(r2.ok());
  EXPECT_EQ(r2.bitsRead(), 32u);
}

TEST(WordCodec, ExternalBufferWriterAppendsAfterExistingBytes) {
  sim::Rng rng(0xC0DEC + 2);
  const BitVec v = randomVec(rng, 130, 0.5);

  BitWriter internal;
  internal.write(0x4D43, 16);
  internal.writeBitVec(v);
  const std::vector<std::uint8_t> expected = internal.finish();

  std::vector<std::uint8_t> buf = {0xDE, 0xAD, 0xBE};
  BitWriter external(buf);
  external.write(0x4D43, 16);
  external.writeBitVec(v);
  EXPECT_EQ(external.bitCount(), internal.bitCount());
  ASSERT_EQ(buf.size(), 3 + expected.size());
  EXPECT_EQ(buf[0], 0xDE);
  EXPECT_EQ(buf[1], 0xAD);
  EXPECT_EQ(buf[2], 0xBE);
  EXPECT_TRUE(std::equal(expected.begin(), expected.end(), buf.begin() + 3));
}

// ---------------------------------------------------------------------------
// Codec-level identity: reference encoders replaying the frame layouts of
// report/codec.cpp with the single-bit writer.
// ---------------------------------------------------------------------------

constexpr int kKindBits = 2;
constexpr int kCountBits = 24;
constexpr int kSigCountBits = 16;
constexpr int kLevelCountBits = 6;

std::vector<std::uint8_t> refEncode(const ReportCodec& codec,
                                    const SizeModel& s, const TsReport& r) {
  BitLoopWriter w;
  w.write(0, kKindBits);
  w.write(r.extended() ? 1 : 0, 1);
  w.write(codec.quantize(r.broadcastTime), s.timestampBits);
  w.write(codec.quantize(r.coverageStart()), s.timestampBits);
  w.write(r.entries().size(), kCountBits);
  for (const db::UpdateRecord& rec : r.entries()) {
    w.write(rec.item, s.itemIdBits());
    w.write(codec.quantize(rec.time), s.timestampBits);
  }
  return w.out;
}

std::vector<std::uint8_t> refEncode(const ReportCodec& codec,
                                    const SizeModel& s, const BsReport& r) {
  const BsWire wire = BsWire::encode(r);
  BitLoopWriter w;
  w.write(1, kKindBits);
  w.write(codec.quantize(r.broadcastTime), s.timestampBits);
  w.write(codec.quantize(wire.tsB0()), s.timestampBits);
  w.write(wire.levels().size(), kLevelCountBits);
  for (const BsWire::WireLevel& level : wire.levels()) {
    w.write(codec.quantize(level.ts), s.timestampBits);
    w.writeBitVec(level.bits);
  }
  return w.out;
}

std::vector<std::uint8_t> refEncode(const ReportCodec& codec,
                                    const SizeModel& s, const SigReport& r) {
  BitLoopWriter w;
  w.write(2, kKindBits);
  w.write(codec.quantize(r.broadcastTime), s.timestampBits);
  w.write(r.combined().size(), kSigCountBits);
  const std::uint64_t mask = s.signatureBits >= 64
                                 ? ~std::uint64_t{0}
                                 : ((std::uint64_t{1} << s.signatureBits) - 1);
  for (std::uint64_t sig : r.combined()) {
    w.write(sig & mask, s.signatureBits);
  }
  return w.out;
}

SizeModel model(std::size_t n) {
  SizeModel m;
  m.numItems = n;
  return m;
}

TEST(WordCodec, TsFramesMatchBitLoopReference) {
  sim::Rng rng(0xC0DEC + 3);
  for (const std::size_t items : {64u, 10000u}) {
    const SizeModel sizes = model(items);
    const ReportCodec codec(sizes);
    for (int round = 0; round < 10; ++round) {
      db::UpdateHistory h(items);
      double t = 0;
      const int n = static_cast<int>(rng.uniformInt(0, 200));
      for (int i = 0; i < n; ++i) {
        t += rng.exponential(0.5);
        h.record(static_cast<db::ItemId>(
                     rng.uniformInt(0, static_cast<int>(items) - 1)),
                 t);
      }
      const auto r = TsReport::build(h, sizes, t + 1, 0.0);
      EXPECT_EQ(codec.encode(*r), refEncode(codec, sizes, *r))
          << "items=" << items << " round=" << round;
    }
  }
}

TEST(WordCodec, BsFramesMatchBitLoopReference) {
  sim::Rng rng(0xC0DEC + 4);
  // Width classes around the word boundary plus a large report, at sparse
  // through saturated update densities.
  for (const std::size_t items : {1u, 63u, 64u, 65u, 10000u}) {
    const SizeModel sizes = model(items);
    const ReportCodec codec(sizes);
    for (const double density : {0.02, 0.5, 1.0}) {
      db::UpdateHistory h(items);
      double t = 0;
      const auto updates =
          static_cast<int>(static_cast<double>(items) * density * 3);
      for (int i = 0; i < updates; ++i) {
        t += rng.exponential(0.5);
        h.record(static_cast<db::ItemId>(
                     rng.uniformInt(0, static_cast<int>(items) - 1)),
                 t);
      }
      const auto r = BsReport::build(h, sizes, t + 1);
      const auto fast = codec.encode(*r);
      EXPECT_EQ(fast, refEncode(codec, sizes, *r))
          << "items=" << items << " density=" << density;

      // And the decoder's bulk readBitVec reproduces the encoder's input.
      const auto decoded = codec.decodeBs(fast);
      ASSERT_TRUE(decoded.has_value()) << "items=" << items;
      EXPECT_EQ(codec.encode(*BsReport::fromWire(decoded->wire, sizes,
                                                 decoded->broadcastTime)),
                fast)
          << "items=" << items << " density=" << density;
    }
  }
}

TEST(WordCodec, SigFramesMatchBitLoopReference) {
  sim::Rng rng(0xC0DEC + 5);
  const SizeModel sizes = model(1000);
  const ReportCodec codec(sizes);
  for (int round = 0; round < 10; ++round) {
    std::vector<std::uint64_t> combined;
    const int n = static_cast<int>(rng.uniformInt(0, 100));
    for (int i = 0; i < n; ++i) combined.push_back(rng.bits());
    const auto r = SigReport::fromParts(sizes, 60.0, std::move(combined));
    EXPECT_EQ(codec.encode(*r), refEncode(codec, sizes, *r)) << round;
  }
}

// ---------------------------------------------------------------------------
// Golden hex pins: the exact bytes of one deterministic frame per family.
// A failure here means the wire layout changed — docs/wire_schema.json and
// every deployed decoder change with it, so this must be deliberate.
// ---------------------------------------------------------------------------

TEST(WordCodec, GoldenTsFrameHexPin) {
  const SizeModel sizes = model(512);
  const ReportCodec codec(sizes);
  const auto r = TsReport::fromParts(
      ReportKind::kTsWindow, sizes, 2.0, 1.0,
      {{.item = 3, .time = 1.5}, {.item = 7, .time = 1.75}});
  EXPECT_EQ(hex(codec.encode(*r)),
            "000000fa0000007d000000403000005dc038000036b0");
}

TEST(WordCodec, GoldenBsFrameHexPin) {
  const SizeModel sizes = model(64);
  const ReportCodec codec(sizes);
  db::UpdateHistory h(64);
  h.record(0, 1.0);
  h.record(63, 2.0);
  h.record(32, 3.0);
  const auto r = BsReport::build(h, sizes, 4.0);
  EXPECT_EQ(hex(codec.encode(*r)),
            "400003e8000002ee0600000000800000008000000100000000e0000000"
            "1c00000003800001f43000007d08");
}

TEST(WordCodec, GoldenSigFrameHexPin) {
  const SizeModel sizes = model(512);
  const ReportCodec codec(sizes);
  const auto r = SigReport::fromParts(
      sizes, 1.0, {0x123456789ABCDEF0ull, 0xFFFFull, 0ull});
  EXPECT_EQ(hex(codec.encode(*r)),
            "800000fa0000e6af37bc00003fffc000000000");
}

// ---------------------------------------------------------------------------
// FrameArena: the one frame builder vs the documented envelope.
// ---------------------------------------------------------------------------

TEST(FrameArena, MatchesTheDocumentedEnvelopeByteForByte) {
  const SizeModel sizes = model(512);
  const ReportCodec codec(sizes);
  const auto r = TsReport::fromParts(ReportKind::kTsWindow, sizes, 9.0, 2.0,
                                     {{.item = 11, .time = 5.0}});
  const std::vector<std::uint8_t> payload = codec.encode(*r);
  // magic:16 version:8 type:8 scheme:8 class:8 payloadBits:32 crc:32, the
  // crc over the frame with its own field zeroed (docs/protocols.md).
  std::vector<std::uint8_t> expected = {
      0x4D, 0x43, live::wire::kVersion,
      static_cast<std::uint8_t>(live::wire::FrameType::kReport), 2,
      static_cast<std::uint8_t>(net::TrafficClass::kInvalidationReport)};
  const auto payloadBits = static_cast<std::uint32_t>(payload.size() * 8);
  for (int shift = 24; shift >= 0; shift -= 8) {
    expected.push_back(static_cast<std::uint8_t>(payloadBits >> shift));
  }
  expected.insert(expected.end(), 4, 0);
  expected.insert(expected.end(), payload.begin(), payload.end());
  const std::uint32_t crc =
      live::wire::crc32(expected.data(), expected.size());
  for (std::size_t i = 0; i < 4; ++i) {
    expected[10 + i] = static_cast<std::uint8_t>(crc >> (24 - 8 * i));
  }

  live::wire::FrameArena arena;
  report::BitWriter w = arena.begin(live::wire::FrameType::kReport, 2,
                                    net::TrafficClass::kInvalidationReport);
  codec.encodeInto(*r, w);
  arena.finish(w);

  const std::vector<std::uint8_t> got(arena.data(),
                                      arena.data() + arena.size());
  EXPECT_EQ(got, expected);
  EXPECT_TRUE(std::ranges::equal(arena.payload(), payload));

  const auto decoded = live::wire::decodeFrame(arena.data(), arena.size());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->header.type, live::wire::FrameType::kReport);
  EXPECT_TRUE(std::ranges::equal(decoded->payload, payload));
}

TEST(FrameArena, ReuseAcrossTicksPatchesLengthAndCrcCorrectly) {
  const SizeModel sizes = model(512);
  const ReportCodec codec(sizes);
  live::wire::FrameArena arena;

  // Tick 1: a large frame fills the buffer.
  db::UpdateHistory h(512);
  for (db::ItemId i = 0; i < 100; ++i) h.record(i, 1.0 + i);
  const auto big = TsReport::build(h, sizes, 200.0, 0.0);
  {
    report::BitWriter w =
        arena.begin(live::wire::FrameType::kReport, 0,
                    net::TrafficClass::kInvalidationReport);
    codec.encodeInto(*big, w);
    arena.finish(w);
  }
  const std::vector<std::uint8_t> first(arena.data(),
                                       arena.data() + arena.size());

  // Tick 2: a much smaller frame — stale tail bytes from tick 1 must not
  // leak into the length, CRC, or payload.
  const auto small = TsReport::fromParts(ReportKind::kTsWindow, sizes, 9.0,
                                         2.0, {{.item = 1, .time = 5.0}});
  {
    report::BitWriter w =
        arena.begin(live::wire::FrameType::kReport, 0,
                    net::TrafficClass::kInvalidationReport);
    codec.encodeInto(*small, w);
    arena.finish(w);
  }
  const auto decoded = live::wire::decodeFrame(arena.data(), arena.size());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(std::ranges::equal(decoded->payload, codec.encode(*small)));

  // Tick 3: re-encoding tick 1's report reproduces tick 1's bytes exactly.
  {
    report::BitWriter w =
        arena.begin(live::wire::FrameType::kReport, 0,
                    net::TrafficClass::kInvalidationReport);
    codec.encodeInto(*big, w);
    arena.finish(w);
  }
  const std::vector<std::uint8_t> third(arena.data(),
                                       arena.data() + arena.size());
  EXPECT_EQ(third, first);
}

}  // namespace
}  // namespace mci::report
