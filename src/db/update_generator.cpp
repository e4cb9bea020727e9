#include "db/update_generator.hpp"

#include <utility>

#include "core/check.hpp"

namespace mci::db {

UpdateGenerator::UpdateGenerator(sim::Simulator& simulator, Database& database,
                                 UpdateHistory& history, Params params,
                                 ItemPicker picker, sim::Rng rng)
    : sim_(simulator),
      db_(database),
      history_(history),
      params_(params),
      picker_(std::move(picker)),
      rng_(rng) {
  MCI_CHECK(params_.meanInterarrival > 0);
  MCI_CHECK(params_.meanItemsPerTxn >= 1);
  MCI_DCHECK(picker_);
}

void UpdateGenerator::start() { scheduleNext(); }

void UpdateGenerator::scheduleNext() {
  const double gap = rng_.exponential(params_.meanInterarrival);
  sim_.schedule(gap, [this] { runTransaction(); });
}

void UpdateGenerator::runTransaction() {
  ++transactions_;
  // "Mean data items updated by a tran. = 5": 1 + Poisson(mean-1) keeps the
  // mean exact while guaranteeing every transaction writes something.
  const int count = 1 + rng_.poisson(params_.meanItemsPerTxn - 1.0);
  const sim::SimTime now = sim_.now();
  for (int i = 0; i < count; ++i) {
    const ItemId item = picker_(rng_);
    db_.applyUpdate(item, now);
    history_.record(item, now);
    ++itemUpdates_;
    if (hook_) hook_(item, now);
  }
  scheduleNext();
}

}  // namespace mci::db
