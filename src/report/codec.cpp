#include "report/codec.hpp"

#include <algorithm>
#include <array>

#include "core/check.hpp"

namespace mci::report {
namespace {

constexpr int kKindBits = 2;
constexpr int kCountBits = 24;
constexpr int kSigCountBits = 16;
constexpr int kLevelCountBits = 6;

std::uint64_t kindCode(ReportKind k) {
  switch (k) {
    case ReportKind::kTsWindow: return 0;
    case ReportKind::kTsExtended: return 0;  // flagged separately
    case ReportKind::kBitSeq: return 1;
    case ReportKind::kSignature: return 2;
  }
  return 3;
}

/// kBitReverse[b] is b with its 8 bits mirrored. The wire is MSB-first
/// within each byte while BitVec packs LSB-first within each word, so
/// moving a word of packed bits to or from the wire in ascending position
/// order is a per-byte bit reversal — no byte swap, no shifting loop.
constexpr std::array<std::uint8_t, 256> kBitReverse = [] {
  std::array<std::uint8_t, 256> table{};
  for (int b = 0; b < 256; ++b) {
    std::uint8_t r = 0;
    for (int i = 0; i < 8; ++i) {
      r = static_cast<std::uint8_t>((r << 1) | ((b >> i) & 1));
    }
    table[static_cast<std::size_t>(b)] = r;
  }
  return table;
}();

/// Mirrors all 64 bits of `w` (bit 0 <-> bit 63). Eight table lookups.
std::uint64_t bitReverse64(std::uint64_t w) {
  std::uint64_t r = 0;
  for (int b = 0; b < 8; ++b) {
    r = (r << 8) | kBitReverse[(w >> (8 * b)) & 0xFF];
  }
  return r;
}

}  // namespace

void BitWriter::write(std::uint64_t value, int bits) {
  MCI_DCHECK(bits >= 1 && bits <= 64);
  std::vector<std::uint8_t>& out = target();
  // Frame buffers are reused across ticks (arena / lastReportPayload_ keep
  // capacity), so both appends below grow to a high-water mark only.
  if (((bitCount_ | static_cast<std::size_t>(bits)) & 7) == 0) {
    // Whole-byte path: a byte-aligned cursor and a whole-byte field (every
    // envelope, DataItem, QueryRequest and Check field) append the field's
    // low bits/8 bytes big-endian, with no per-byte shift or mask.
    for (int shift = bits - 8; shift >= 0; shift -= 8) {
      // MCI-ANALYZE-ALLOW(hot-path-alloc): reused frame buffer, high-water
      out.push_back(static_cast<std::uint8_t>(value >> shift));
    }
    bitCount_ += static_cast<std::size_t>(bits);
    return;
  }
  if (bits < 64) value &= (std::uint64_t{1} << bits) - 1;
  while (bits > 0) {
    // MCI-ANALYZE-ALLOW(hot-path-alloc): reused frame buffer, high-water only
    if (bitCount_ % 8 == 0) out.push_back(0);
    const int avail = 8 - static_cast<int>(bitCount_ % 8);
    const int chunk = std::min(avail, bits);
    // The top `chunk` remaining bits land just below the byte's write
    // cursor (MSB-first), exactly where the old single-bit loop put them.
    const auto piece = static_cast<std::uint8_t>(
        (value >> (bits - chunk)) & ((std::uint64_t{1} << chunk) - 1));
    out.back() |= static_cast<std::uint8_t>(piece << (avail - chunk));
    bitCount_ += static_cast<std::size_t>(chunk);
    bits -= chunk;
  }
}

void BitWriter::writeBitVec(const BitVec& bits) {
  const std::size_t n = bits.size();
  if (n == 0) return;
  const std::span<const std::uint64_t> words = bits.words();
  const std::size_t fullWords = n / 64;
  const std::size_t tailBits = n % 64;
  if (bitCount_ % 8 == 0) {
    // Byte-aligned fast path: each source word becomes eight output bytes,
    // each the bit-reversal of the corresponding word byte (ascending
    // positions are LSB-first in the word, MSB-first on the wire).
    std::vector<std::uint8_t>& out = target();
    // Grows the reused frame buffer to its high-water mark only, same as
    // the write() appends.
    // MCI-ANALYZE-ALLOW(hot-path-alloc): reused frame buffer, high-water only
    out.reserve(out.size() + (n + 7) / 8);
    for (std::size_t wi = 0; wi < fullWords; ++wi) {
      const std::uint64_t w = words[wi];
      for (int b = 0; b < 8; ++b) {
        // MCI-ANALYZE-ALLOW(hot-path-alloc): within the reserve above.
        out.push_back(kBitReverse[(w >> (8 * b)) & 0xFF]);
      }
    }
    bitCount_ += fullWords * 64;
    if (tailBits != 0) {
      // First-emitted bit must be the MSB of the written field.
      write(bitReverse64(words[fullWords]) >> (64 - tailBits),
            static_cast<int>(tailBits));
    }
  } else {
    // Unaligned writer: write() is byte-chunked, so a reversed whole word
    // is still <= 9 byte ops instead of 64 single-bit appends.
    for (std::size_t wi = 0; wi < fullWords; ++wi) {
      write(bitReverse64(words[wi]), 64);
    }
    if (tailBits != 0) {
      write(bitReverse64(words[fullWords]) >> (64 - tailBits),
            static_cast<int>(tailBits));
    }
  }
}

std::uint64_t BitReader::read(int bits) {
  MCI_DCHECK(bits >= 1 && bits <= 64);
  if (pos_ + static_cast<std::size_t>(bits) > bits_) {
    ok_ = false;
    pos_ = bits_;  // park at the end: later reads keep failing cheaply
    return 0;
  }
  // The cursor IS the bounds enforcement: pos_ + bits <= bits_ was checked
  // above, so no byte read below reaches past the constructor's span.
  std::uint64_t value = 0;
  if (((pos_ | static_cast<std::size_t>(bits)) & 7) == 0) {
    // Whole-byte path: a byte-aligned cursor and a whole-byte field read
    // bits/8 big-endian bytes with no per-byte shift or mask.
    // MCI-ANALYZE-ALLOW(codec-bounds): pos_ + bits <= bits_ checked above
    const std::uint8_t* src = data_ + pos_ / 8;
    for (int i = 0; i < bits / 8; ++i) {
      // MCI-ANALYZE-ALLOW(codec-bounds): i < bits / 8, inside the check
      value = (value << 8) | src[i];
    }
    pos_ += static_cast<std::size_t>(bits);
    return value;
  }
  int remaining = bits;
  while (remaining > 0) {
    const int avail = 8 - static_cast<int>(pos_ % 8);
    const int chunk = std::min(avail, remaining);
    // MCI-ANALYZE-ALLOW(codec-bounds): pos_ + bits <= bits_ checked above
    const std::uint8_t byte = data_[pos_ / 8];
    const std::uint64_t piece =
        (byte >> (avail - chunk)) & ((std::uint64_t{1} << chunk) - 1);
    value = (value << chunk) | piece;
    pos_ += static_cast<std::size_t>(chunk);
    remaining -= chunk;
  }
  return value;
}

void BitReader::readBitVec(BitVec& out, std::size_t bits) {
  // Overflow-safe underrun check before the resize: `bits` is typically an
  // attacker-reachable length, so it must be bounded by the physical frame
  // before it sizes anything.
  if (!ok_ || bits > bits_ - pos_) {
    ok_ = false;
    pos_ = bits_;
    out.assign(0);
    return;
  }
  out.assign(bits);
  const std::size_t fullWords = bits / 64;
  const std::size_t tailBits = bits % 64;
  if (pos_ % 8 == 0) {
    // Byte-aligned fast path: mirror of writeBitVec — reassemble each
    // word from eight bit-reversed wire bytes. bits <= bits_ - pos_ was
    // checked above, so src stays inside the constructor's span.
    // MCI-ANALYZE-ALLOW(codec-bounds): bits <= bits_ - pos_ checked above
    const std::uint8_t* src = data_ + pos_ / 8;
    for (std::size_t wi = 0; wi < fullWords; ++wi) {
      std::uint64_t w = 0;
      for (int b = 0; b < 8; ++b) {
        // MCI-ANALYZE-ALLOW(codec-bounds): same span bound as above.
        w |= static_cast<std::uint64_t>(kBitReverse[src[8 * wi + b]])
             << (8 * b);
      }
      out.words_[wi] = w;
    }
    pos_ += fullWords * 64;
    if (tailBits != 0) {
      // read() returns the first wire bit as the field's MSB; shifting it
      // to bit 63 and mirroring puts wire bit i at word bit i.
      out.words_[fullWords] =
          bitReverse64(read(static_cast<int>(tailBits)) << (64 - tailBits));
    }
  } else {
    for (std::size_t wi = 0; wi < fullWords; ++wi) {
      out.words_[wi] = bitReverse64(read(64));
    }
    if (tailBits != 0) {
      out.words_[fullWords] =
          bitReverse64(read(static_cast<int>(tailBits)) << (64 - tailBits));
    }
  }
}

void BitReader::skip(int bits) {
  MCI_DCHECK(bits >= 1);
  if (pos_ + static_cast<std::size_t>(bits) > bits_) {
    ok_ = false;
    pos_ = bits_;
    return;
  }
  pos_ += static_cast<std::size_t>(bits);
}

bool BitReader::fits(std::uint64_t count, int bitsEach) const {
  MCI_DCHECK(bitsEach >= 1);
  if (!ok_) return false;
  return count <= (bits_ - pos_) / static_cast<std::size_t>(bitsEach);
}

std::uint64_t ReportCodec::quantize(sim::SimTime t) const {
  const int bits = sizes_.timestampBits;
  const std::uint64_t cap =
      bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
  return std::min(sim::toTick(t), cap);  // saturate, don't wrap
}

std::vector<std::uint8_t> ReportCodec::encode(const TsReport& r) const {
  BitWriter w;
  encodeInto(r, w);
  return w.finish();
}

void ReportCodec::encodeInto(const TsReport& r, BitWriter& w) const {
  w.write(kindCode(r.kind), kKindBits);
  w.write(r.extended() ? 1 : 0, 1);
  w.write(quantize(r.broadcastTime), sizes_.timestampBits);
  w.write(quantize(r.coverageStart()), sizes_.timestampBits);
  w.write(r.entries().size(), kCountBits);
  for (const db::UpdateRecord& rec : r.entries()) {
    w.write(rec.item, sizes_.itemIdBits());
    w.write(quantize(rec.time), sizes_.timestampBits);
  }
}

std::optional<TsHeader> ReportCodec::readTs(
    std::span<const std::uint8_t> frame,
    std::vector<TsRecord>& records) const {
  BitReader reader(frame);
  if (reader.read(kKindBits) != kindCode(ReportKind::kTsWindow))
    return std::nullopt;
  TsHeader h;
  h.kind = reader.read(1) != 0 ? ReportKind::kTsExtended
                               : ReportKind::kTsWindow;
  h.now = reader.read(sizes_.timestampBits);
  h.coverage = reader.read(sizes_.timestampBits);
  if (h.coverage > h.now) return std::nullopt;
  const auto count = reader.read(kCountBits);
  if (!reader.fits(count, sizes_.itemIdBits() + sizes_.timestampBits))
    return std::nullopt;
  records.clear();
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t item = reader.read(sizes_.itemIdBits());
    const std::uint64_t tick = reader.read(sizes_.timestampBits);
    if (item >= sizes_.numItems) return std::nullopt;
    // No reserve(count): report sizes creep up between reports, and an
    // exact reserve would reallocate at every new high-water mark, where
    // push_back's geometric growth reaches it in a few steps.
    // MCI-ANALYZE-ALLOW(hot-path-alloc): record scratch, high-water only
    records.push_back({static_cast<db::ItemId>(item), tick});
  }
  if (!reader.ok()) return std::nullopt;
  return h;
}

std::shared_ptr<const TsReport> ReportCodec::decodeTs(
    std::span<const std::uint8_t> frame) const {
  std::vector<TsRecord> records;
  const std::optional<TsHeader> h = readTs(frame, records);
  if (!h) return nullptr;
  std::vector<db::UpdateRecord> entries;
  entries.reserve(records.size());
  for (const TsRecord& rec : records) {
    entries.push_back({rec.item, sim::tickTime(rec.tick)});
  }
  return TsReport::fromParts(h->kind, sizes_, sim::tickTime(h->now),
                             sim::tickTime(h->coverage), std::move(entries));
}

std::vector<std::uint8_t> ReportCodec::encode(const BsReport& r) const {
  BitWriter w;
  BsWire scratch;
  encodeInto(r, scratch, w);
  return w.finish();
}

void ReportCodec::encodeInto(const BsReport& r, BsWire& scratch,
                             BitWriter& w) const {
  BsWire::encodeInto(r, scratch);
  encodeWire(scratch, r.broadcastTime, w);
}

void ReportCodec::encodeWire(const BsWire& wire, sim::SimTime broadcastTime,
                             BitWriter& w) const {
  w.write(kindCode(ReportKind::kBitSeq), kKindBits);
  w.write(quantize(broadcastTime), sizes_.timestampBits);
  w.write(quantize(wire.tsB0()), sizes_.timestampBits);
  w.write(wire.levels().size(), kLevelCountBits);
  for (const BsWire::WireLevel& level : wire.levels()) {
    w.write(quantize(level.ts), sizes_.timestampBits);
    w.writeBitVec(level.bits);
  }
}

std::optional<ReportCodec::DecodedBs> ReportCodec::decodeBs(
    std::span<const std::uint8_t> frame) const {
  BitReader reader(frame);
  if (reader.read(kKindBits) != kindCode(ReportKind::kBitSeq))
    return std::nullopt;
  DecodedBs out;
  out.broadcastTime = sim::tickTime(reader.read(sizes_.timestampBits));
  const sim::SimTime tsB0 = sim::tickTime(reader.read(sizes_.timestampBits));
  const auto levels = reader.read(kLevelCountBits);
  if (!reader.fits(levels, sizes_.timestampBits)) return std::nullopt;

  std::vector<BsWire::WireLevel> wireLevels;
  std::size_t nextLen = sizes_.numItems;  // first sequence: one bit per item
  for (std::uint64_t li = 0; li < levels && reader.ok(); ++li) {
    BsWire::WireLevel level;
    level.ts = sim::tickTime(reader.read(sizes_.timestampBits));
    if (!reader.fits(nextLen, 1)) return std::nullopt;
    reader.readBitVec(level.bits, nextLen);
    nextLen = level.bits.count();  // next sequence's length
    wireLevels.push_back(std::move(level));
  }
  if (!reader.ok()) return std::nullopt;
  out.wire = BsWire::fromParts(std::move(wireLevels), tsB0);
  return out;
}

std::vector<std::uint8_t> ReportCodec::encode(const SigReport& r) const {
  BitWriter w;
  encodeInto(r, w);
  return w.finish();
}

void ReportCodec::encodeInto(const SigReport& r, BitWriter& w) const {
  w.write(kindCode(ReportKind::kSignature), kKindBits);
  w.write(quantize(r.broadcastTime), sizes_.timestampBits);
  w.write(r.combined().size(), kSigCountBits);
  for (std::uint64_t sig : r.combined()) {
    // Truncate to the wire width (a real deployment's signature size).
    w.write(sig & ((sizes_.signatureBits >= 64)
                       ? ~std::uint64_t{0}
                       : ((std::uint64_t{1} << sizes_.signatureBits) - 1)),
            sizes_.signatureBits);
  }
}

std::shared_ptr<const SigReport> ReportCodec::decodeSig(
    std::span<const std::uint8_t> frame) const {
  BitReader reader(frame);
  if (reader.read(kKindBits) != kindCode(ReportKind::kSignature))
    return nullptr;
  const sim::SimTime now = sim::tickTime(reader.read(sizes_.timestampBits));
  const auto count = reader.read(kSigCountBits);
  if (!reader.fits(count, sizes_.signatureBits)) return nullptr;
  std::vector<std::uint64_t> sigs;
  sigs.reserve(count);
  for (std::uint64_t i = 0; i < count && reader.ok(); ++i) {
    sigs.push_back(reader.read(sizes_.signatureBits));
  }
  if (!reader.ok()) return nullptr;
  return SigReport::fromParts(sizes_, now, std::move(sigs));
}

ReportPtr ReportCodec::decodeAny(
    std::span<const std::uint8_t> frame) const {
  const std::optional<ReportKind> kind = peekKind(frame);
  if (!kind) return nullptr;
  switch (*kind) {
    case ReportKind::kTsWindow:
    case ReportKind::kTsExtended:
      return decodeTs(frame);
    case ReportKind::kBitSeq: {
      std::optional<DecodedBs> bs = decodeBs(frame);
      if (!bs) return nullptr;
      return BsReport::fromWire(bs->wire, sizes_, bs->broadcastTime);
    }
    case ReportKind::kSignature:
      return decodeSig(frame);
  }
  return nullptr;
}

std::optional<ReportKind> ReportCodec::peekKind(
    std::span<const std::uint8_t> frame) const {
  BitReader reader(frame);
  const std::uint64_t code = reader.read(kKindBits);
  if (!reader.ok()) return std::nullopt;
  switch (code) {
    case 0: {
      const bool extended = reader.read(1) != 0;
      if (!reader.ok()) return std::nullopt;
      return extended ? ReportKind::kTsExtended : ReportKind::kTsWindow;
    }
    case 1: return ReportKind::kBitSeq;
    case 2: return ReportKind::kSignature;
  }
  return std::nullopt;
}

}  // namespace mci::report
