#include "runner/sweep.hpp"

#include <atomic>

#include "core/check.hpp"
#include "core/simulation.hpp"
#include "runner/thread_pool.hpp"

namespace mci::runner {

std::vector<SweepCell> runSweep(
    const SweepSpec& spec, unsigned threads,
    const std::function<void(std::size_t, std::size_t)>& progress) {
  MCI_DCHECK(spec.apply);
  MCI_DCHECK(!spec.xs.empty() && !spec.schemes.empty());

  const std::size_t total = spec.xs.size() * spec.schemes.size();
  std::vector<SweepCell> cells(total);
  std::atomic<std::size_t> done{0};

  ThreadPool pool(threads);
  parallelFor(pool, total, [&](std::size_t idx) {
    const std::size_t xi = idx / spec.schemes.size();
    const std::size_t si = idx % spec.schemes.size();

    core::SimConfig cfg = spec.base;
    spec.apply(cfg, spec.xs[xi]);
    cfg.scheme = spec.schemes[si];
    if (spec.commonRandomNumbers) {
      cfg.seed = spec.base.seed + 1000003ULL * xi;
    } else {
      cfg.seed = spec.base.seed + 1000003ULL * xi + 7919ULL * (si + 1);
    }

    core::Simulation simulation(cfg);
    metrics::SimResult result = simulation.run();

    cells[idx] = SweepCell{spec.xs[xi], spec.schemes[si], std::move(result)};
    if (progress) progress(done.fetch_add(1) + 1, total);
  });

  return cells;
}

}  // namespace mci::runner
