#include "workload/pattern.hpp"

#include "core/check.hpp"


namespace mci::workload {

AccessPattern::AccessPattern(std::size_t numItems, bool hotCold, HotColdSpec spec)
    : numItems_(numItems), hotCold_(hotCold), spec_(spec) {
  MCI_CHECK(numItems_ > 0);
  if (hotCold_) {
    MCI_CHECK(spec_.hotLo < spec_.hotHi);
    MCI_CHECK(spec_.hotHi <= numItems_);
    MCI_CHECK(spec_.hotHi - spec_.hotLo < numItems_)
        << "cold region must be non-empty";
    MCI_CHECK(spec_.hotProb >= 0.0 && spec_.hotProb <= 1.0);
  }
}

AccessPattern AccessPattern::uniform(std::size_t numItems) {
  return AccessPattern(numItems, false, HotColdSpec{});
}

AccessPattern AccessPattern::hotCold(std::size_t numItems, HotColdSpec spec) {
  return AccessPattern(numItems, true, spec);
}

db::ItemId AccessPattern::pick(sim::Rng& rng) const {
  if (!hotCold_) {
    return static_cast<db::ItemId>(
        rng.uniformInt(0, static_cast<std::int64_t>(numItems_) - 1));
  }
  if (rng.bernoulli(spec_.hotProb)) {
    return static_cast<db::ItemId>(rng.uniformInt(
        spec_.hotLo, static_cast<std::int64_t>(spec_.hotHi) - 1));
  }
  // Uniform over the cold remainder: pick among N - |hot| slots and skip
  // the hot range.
  const std::size_t hotSize = spec_.hotHi - spec_.hotLo;
  auto idx = static_cast<db::ItemId>(rng.uniformInt(
      0, static_cast<std::int64_t>(numItems_ - hotSize) - 1));
  if (idx >= spec_.hotLo) idx += static_cast<db::ItemId>(hotSize);
  return idx;
}

std::string AccessPattern::describe() const {
  if (!hotCold_) return "UNIFORM(all DB)";
  return "HOTCOLD(hot=[" + std::to_string(spec_.hotLo) + "," +
         std::to_string(spec_.hotHi) + "), p=" + std::to_string(spec_.hotProb) +
         ")";
}

}  // namespace mci::workload
