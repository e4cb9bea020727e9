#include "report/sig_report.hpp"

#include "core/check.hpp"


namespace mci::report {
namespace {

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

SignatureTable::SignatureTable(std::size_t numItems, std::size_t subsets,
                               int perItem, std::uint64_t seed)
    : numItems_(numItems),
      perItem_(perItem),
      seed_(seed),
      combined_(subsets, 0) {
  MCI_CHECK(subsets > 0 && perItem > 0);
  // Fold every item's initial (version 0) signature in, so combined values
  // are meaningful from the start.
  for (db::ItemId item = 0; item < numItems_; ++item) {
    const std::uint64_t sig = itemSignature(item, 0);
    for (std::size_t s : subsetsOf(item)) combined_[s] ^= sig;
  }
}

void SignatureTable::applyUpdate(db::ItemId item, std::uint32_t oldVersion,
                                 std::uint32_t newVersion) {
  const std::uint64_t delta =
      itemSignature(item, oldVersion) ^ itemSignature(item, newVersion);
  for (std::size_t s : subsetsOf(item)) combined_[s] ^= delta;
}

std::vector<std::size_t> SignatureTable::subsetsOf(db::ItemId item) const {
  std::vector<std::size_t> out;
  out.reserve(static_cast<std::size_t>(perItem_));
  const std::size_t m = combined_.size();
  std::uint64_t h = seed_ ^ mix64(item + 0x9E3779B97F4A7C15ULL);
  for (int j = 0; static_cast<int>(out.size()) < perItem_; ++j) {
    h = mix64(h + static_cast<std::uint64_t>(j) + 1);
    const std::size_t idx = static_cast<std::size_t>(h % m);
    // Duplicate subset memberships would XOR-cancel; re-hash instead.
    bool dup = false;
    for (std::size_t existing : out) {
      if (existing == idx) {
        dup = true;
        break;
      }
    }
    if (!dup) out.push_back(idx);
    if (j > 64) {  // m < perItem: accept duplicates rather than spin
      out.push_back(idx);
    }
  }
  return out;
}

std::uint64_t SignatureTable::itemSignature(db::ItemId item,
                                            std::uint32_t version) const {
  return mix64(seed_ ^ mix64((static_cast<std::uint64_t>(item) << 32) |
                             static_cast<std::uint64_t>(version)));
}

std::shared_ptr<const SigReport> SigReport::fromParts(
    const SizeModel& sizes, sim::SimTime now,
    std::vector<std::uint64_t> combined) {
  return std::shared_ptr<const SigReport>(new SigReport(
      now, sizes.sigReportBits(combined.size()), std::move(combined)));
}

std::shared_ptr<const SigReport> SigReport::build(const SignatureTable& table,
                                                  const SizeModel& sizes,
                                                  sim::SimTime now) {
  return std::shared_ptr<const SigReport>(new SigReport(
      now, sizes.sigReportBits(table.numSubsets()), table.combined()));
}

}  // namespace mci::report
