#include "workload/query_generator.hpp"

#include "core/check.hpp"

namespace mci::workload {

QueryGenerator::QueryGenerator(AccessPattern pattern, Params params,
                               sim::Rng rng)
    : pattern_(pattern), params_(params), rng_(rng) {
  MCI_CHECK(params_.meanThinkTime > 0);
  MCI_CHECK(params_.meanItemsPerQuery >= 1.0);
}

double QueryGenerator::thinkTime() {
  return rng_.exponential(params_.meanThinkTime);
}

std::vector<db::ItemId> QueryGenerator::nextQuery() {
  std::vector<db::ItemId> items;
  nextQuery(items);
  return items;
}

void QueryGenerator::nextQuery(std::vector<db::ItemId>& out) {
  drawQueryItems(rng_, params_.meanItemsPerQuery, pattern_, out);
}

}  // namespace mci::workload
