#include "fleet/campaign.hpp"

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "exec/runner.hpp"

namespace decos::fleet {

analysis::FleetAggregate FleetCampaign::run() const {
  const std::uint32_t batch =
      cfg_.batch_size == 0 ? std::max<std::uint32_t>(1, cfg_.vehicles)
                           : cfg_.batch_size;
  std::vector<std::function<analysis::FleetBatchCounts()>> runs;
  std::vector<std::uint32_t> firsts;
  for (std::uint32_t first = 0; first < cfg_.vehicles; first += batch) {
    const std::uint32_t n = std::min(batch, cfg_.vehicles - first);
    firsts.push_back(first);
    runs.push_back([cfg = cfg_, first, n] {
      const FleetBatchConfig bc{first,      n,        cfg.epochs,
                                cfg.shards, cfg.seed, cfg.grid};
      return FleetSimulator(bc).run();
    });
  }

  analysis::FleetAggregate agg(cfg_.grid);
  exec::ExperimentRunner runner(cfg_.jobs == 0 ? 1 : cfg_.jobs);
  runner.run_and_merge<analysis::FleetBatchCounts>(
      std::move(runs),
      [&agg](std::size_t, const analysis::FleetBatchCounts& counts) {
        agg.merge(counts);
      },
      [&firsts, batch](std::size_t i) {
        return "vehicles " + std::to_string(firsts[i]) + "+" +
               std::to_string(batch);
      });
  return agg;
}

}  // namespace decos::fleet
