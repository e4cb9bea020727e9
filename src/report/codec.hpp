#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/annotations.hpp"
#include "report/bs_report.hpp"
#include "report/sig_report.hpp"
#include "report/sizing.hpp"
#include "report/ts_report.hpp"
#include "sim/time.hpp"

namespace mci::report {

/// Bit-granular serialization buffer (MSB-first within each byte). The
/// invalidation reports are bit-packed on the air — item ids are
/// ceil(log2 N) bits, not whole bytes — so the codec works at bit
/// granularity and the byte vector is the padded frame.
///
/// write() moves whole bytes per iteration (<= 9 byte ops for a 64-bit
/// field, not 64 single-bit ops) and appends a whole-byte field at a
/// byte-aligned cursor in one insert; writeBitVec() moves whole 64-bit
/// words of a packed bit vector with one masked tail — the BS wire levels
/// serialize at memory bandwidth instead of a bit at a time. Both paths
/// emit the exact byte stream the original single-bit loop produced
/// (golden-frame tests pin this).
class BitWriter {
 public:
  /// Appends to internal storage; finish() returns the frame.
  BitWriter() = default;

  /// Appends to `external` instead (starting at its current end). The live
  /// frame arena uses this to encode a payload directly after the frame
  /// header with no intermediate payload vector. finish() must not be
  /// called in this mode; the external buffer IS the output.
  explicit BitWriter(std::vector<std::uint8_t>& external)
      : out_(&external) {}

  /// Appends the low `bits` bits of `value` (1..64).
  MCI_HOT void write(std::uint64_t value, int bits);

  /// Appends all `bits.size()` bits of `bits` in ascending position order,
  /// word-at-a-time (byte-identical to `for i: write(bits.test(i), 1)`).
  MCI_HOT void writeBitVec(const BitVec& bits);

  /// Number of bits written so far.
  [[nodiscard]] std::size_t bitCount() const { return bitCount_; }

  /// The frame, zero-padded to a whole byte (internal mode only).
  [[nodiscard]] std::vector<std::uint8_t> finish() const { return own_; }

 private:
  [[nodiscard]] std::vector<std::uint8_t>& target() {
    return out_ != nullptr ? *out_ : own_;
  }

  std::vector<std::uint8_t> own_;
  std::vector<std::uint8_t>* out_ = nullptr;  ///< external mode when set
  std::size_t bitCount_ = 0;
};

/// Mirror of BitWriter. Reading past the end is reported via ok().
///
/// The cursor is span-based so the live wire layer can run it directly
/// over a framed buffer (header bytes, payload slices) without copying
/// into a vector first. Every read is bounds-checked up front; once the
/// cursor underruns, ok() stays false and all further reads return 0.
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> bytes)
      : data_(bytes.data()), bits_(bytes.size() * 8) {}

  /// Reads `bits` bits (1..64); returns 0 and clears ok() on underrun. A
  /// whole-byte field at a byte-aligned cursor is read as bytes (after the
  /// same bound check).
  MCI_HOT std::uint64_t read(int bits);

  /// Reads `bits` bits into `out` (resized to `bits`, positions ascending),
  /// word-at-a-time; the mirror of BitWriter::writeBitVec. On underrun the
  /// cursor parks at the end, ok() clears, and `out` is left empty — the
  /// bound is checked before `bits` sizes anything.
  MCI_HOT void readBitVec(BitVec& out, std::size_t bits);

  /// Advances the cursor without decoding (same underrun handling).
  void skip(int bits);

  /// True iff `count` more elements of `bitsEach` bits fit in what is
  /// left. Decoders call this on a just-decoded count before reserving
  /// or looping — it bounds attacker-controlled counts by the physical
  /// frame size, which is the wire-taint sanitizer for count fields.
  [[nodiscard]] bool fits(std::uint64_t count, int bitsEach) const;

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] std::size_t bitsRead() const { return pos_; }

 private:
  const std::uint8_t* data_ = nullptr;
  std::size_t bits_ = 0;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// The fixed fields of a TS window / extended report, in codec ticks.
struct TsHeader {
  ReportKind kind = ReportKind::kTsWindow;  ///< window or extended
  std::uint64_t now = 0;       ///< broadcast tick T
  std::uint64_t coverage = 0;  ///< first tick the records cover
};

/// One (item, update tick) record of a TS report, in codec ticks.
struct TsRecord {
  db::ItemId item = 0;
  std::uint64_t tick = 0;
};

/// Wire codec for the invalidation reports.
///
/// Timestamps travel as ticks of the model-time grid (sim::toTick, one
/// millisecond) in an unsigned field of SizeModel::timestampBits bits (32
/// bits span ~49 days of simulated time — far beyond the paper's 10^5 s
/// horizon). Decoded reports therefore carry grid times; callers comparing
/// against off-grid originals should allow one tick of slack.
///
/// Frame layouts (field widths from the SizeModel):
///   TS window:   [kind:2][extended:1][T][coverageStart][count:24]
///                ([dummyTlb] if extended) then count x ([id][t])
///   BitSeq:      [kind:2][T][tsB0][levels:6] then per level
///                [ts][bits...] (first level N bits; each next level has
///                one bit per set bit of its predecessor)
///   Signature:   [kind:2][T][count:16] then count x [sig:signatureBits]
///
/// The few header bits beyond the paper's idealized size formulas are
/// bounded by kCodecHeaderSlackBits; a test pins that bound.
class ReportCodec {
 public:
  explicit ReportCodec(const SizeModel& sizes) : sizes_(sizes) {}

  static constexpr int kCodecHeaderSlackBits = 128;

  // --- TS window / extended reports ---
  [[nodiscard]] std::vector<std::uint8_t> encode(const TsReport& r) const;
  MCI_HOT void encodeInto(const TsReport& r, BitWriter& w) const;

  /// The one walk over a TS frame's fields: fills `records` in wire order
  /// (capacity reused, so it allocates only while `records` grows) and
  /// returns the header. Returns nullopt, with `records` unspecified, when
  /// the frame is not a TS report, is truncated, carries a count its span
  /// cannot hold, has coverage after its broadcast time, or lists an item
  /// id >= numItems. The last two no encoder writes: such a frame is
  /// forged or corrupt, and an id field is wider than the database (9
  /// bits for 500 items), so a forged id must never reach a per-item
  /// table.
  [[nodiscard]] std::optional<TsHeader> readTs(
      std::span<const std::uint8_t> frame,
      std::vector<TsRecord>& records) const;
  /// readTs, its ticks turned back into times, as a TsReport.
  [[nodiscard]] std::shared_ptr<const TsReport> decodeTs(
      std::span<const std::uint8_t> frame) const;

  // --- bit-sequences reports (decodes to the wire view) ---
  [[nodiscard]] std::vector<std::uint8_t> encode(const BsReport& r) const;
  /// Zero-copy variant: `scratch` is the caller's reusable BsWire (its
  /// BitVec word storage survives across broadcast intervals), `w` is
  /// typically a frame-arena writer. Byte-identical to encode().
  MCI_HOT void encodeInto(const BsReport& r, BsWire& scratch,
                          BitWriter& w) const;
  /// The serialization half of encodeInto: writes an already-built wire
  /// view. encodeInto == BsWire::encodeInto(r, scratch) + this; callers
  /// holding a prebuilt BsWire (replay tools, bench_live) skip the level
  /// construction.
  MCI_HOT void encodeWire(const BsWire& wire, sim::SimTime broadcastTime,
                          BitWriter& w) const;
  struct DecodedBs {
    sim::SimTime broadcastTime{0};
    BsWire wire;
  };
  [[nodiscard]] std::optional<DecodedBs> decodeBs(
      std::span<const std::uint8_t> frame) const;

  // --- signature reports ---
  [[nodiscard]] std::vector<std::uint8_t> encode(const SigReport& r) const;
  MCI_HOT void encodeInto(const SigReport& r, BitWriter& w) const;
  [[nodiscard]] std::shared_ptr<const SigReport> decodeSig(
      std::span<const std::uint8_t> frame) const;

  /// Peeks the report kind of a frame (nullopt on garbage).
  [[nodiscard]] std::optional<ReportKind> peekKind(
      std::span<const std::uint8_t> frame) const;

  /// Decodes a frame of any kind into the polymorphic Report the client
  /// schemes consume (BS frames are lifted back into the snapshot form via
  /// BsReport::fromWire). Returns nullptr on malformed input. This is the
  /// live receive path: a ClientAgent feeds the decoded report straight to
  /// ClientScheme::onReport, exactly as the simulator hands over the
  /// in-memory original.
  [[nodiscard]] ReportPtr decodeAny(
      std::span<const std::uint8_t> frame) const;

  /// sim::toTick(t), saturated at the timestamp field's maximum instead
  /// of wrapping. sim::tickTime is the inverse.
  [[nodiscard]] std::uint64_t quantize(sim::SimTime t) const;

 private:
  const SizeModel& sizes_;
};

}  // namespace mci::report
