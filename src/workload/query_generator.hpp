#pragma once

#include <algorithm>
#include <vector>

#include "db/item.hpp"
#include "sim/random.hpp"
#include "workload/pattern.hpp"

namespace mci::workload {

/// The query law (paper §4, DESIGN.md substitution #2), for any item
/// picker (AccessPattern, ZipfGenerator): 1 + Poisson(mean-1) distinct
/// items into `out`, at most 16 x count attempts, then a single pick if
/// none was distinct. Every face draws its queries through here.
template <class Picker>
void drawQueryItems(sim::Rng& rng, double meanItemsPerQuery,
                    const Picker& picker, std::vector<db::ItemId>& out) {
  out.clear();
  const int count = 1 + rng.poisson(meanItemsPerQuery - 1.0);
  int attempts = 0;
  while (static_cast<int>(out.size()) < count && attempts < count * 16) {
    ++attempts;
    const db::ItemId candidate = picker.pick(rng);
    if (std::find(out.begin(), out.end(), candidate) == out.end()) {
      // MCI-ANALYZE-ALLOW(hot-path-alloc): caller's buffer, high-water only
      out.push_back(candidate);
    }
  }
  // MCI-ANALYZE-ALLOW(hot-path-alloc): caller's buffer, high-water only
  if (out.empty()) out.push_back(picker.pick(rng));
}

/// Per-client query workload (paper §4): read-only queries separated by
/// exponential think times; each query references a set of distinct items
/// chosen by the client's access pattern.
class QueryGenerator {
 public:
  struct Params {
    double meanThinkTime = 100.0;   ///< seconds (Table 1)
    double meanItemsPerQuery = 1.0; ///< see DESIGN.md substitution #2
  };

  QueryGenerator(AccessPattern pattern, Params params, sim::Rng rng);

  /// Draws the think time preceding the next query.
  double thinkTime();

  /// Draws the next query's distinct item set.
  std::vector<db::ItemId> nextQuery();

  /// Same draw into a caller-owned buffer (cleared first), so the client
  /// loop reuses one vector for every query.
  void nextQuery(std::vector<db::ItemId>& out);

  [[nodiscard]] const AccessPattern& pattern() const { return pattern_; }
  [[nodiscard]] const Params& params() const { return params_; }

 private:
  AccessPattern pattern_;
  Params params_;
  sim::Rng rng_;
};

}  // namespace mci::workload
