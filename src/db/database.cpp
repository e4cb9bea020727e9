#include "db/database.hpp"

#include <algorithm>

#include "core/check.hpp"

namespace mci::db {

Database::Database(std::size_t numItems) : perItem_(numItems) {
  MCI_CHECK(numItems > 0);
}

void Database::applyUpdate(ItemId item, sim::SimTime now) {
  MCI_DCHECK(item < perItem_.size());
  PerItem& p = perItem_[item];
  MCI_DCHECK(p.updateTimes.empty() || p.updateTimes.back() <= now);
  ++p.version;
  p.updateTimes.push_back(now);
  ++totalUpdates_;
}

void Database::installSnapshot(ItemId item,
                               const std::vector<sim::SimTime>& times) {
  MCI_DCHECK(item < perItem_.size());
  MCI_DCHECK(std::is_sorted(times.begin(), times.end()));
  PerItem& p = perItem_[item];
  if (p.updateTimes.size() >= times.size()) return;  // local already newer
  totalUpdates_ += times.size() - p.updateTimes.size();
  p.updateTimes = times;
  p.version = static_cast<Version>(times.size());
}

const std::vector<sim::SimTime>& Database::updateTimes(ItemId item) const {
  MCI_DCHECK(item < perItem_.size());
  return perItem_[item].updateTimes;
}

Version Database::currentVersion(ItemId item) const {
  MCI_DCHECK(item < perItem_.size());
  return perItem_[item].version;
}

sim::SimTime Database::lastUpdateTime(ItemId item) const {
  MCI_DCHECK(item < perItem_.size());
  const auto& times = perItem_[item].updateTimes;
  return times.empty() ? sim::kTimeEpoch : times.back();
}

Version Database::versionAt(ItemId item, sim::SimTime t) const {
  MCI_DCHECK(item < perItem_.size());
  const auto& times = perItem_[item].updateTimes;
  // Count updates with time <= t.
  const auto it = std::upper_bound(times.begin(), times.end(), t);
  return static_cast<Version>(it - times.begin());
}

}  // namespace mci::db
