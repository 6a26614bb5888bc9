// Tests for the fleet layer: cohort physics, the batch simulator on the
// sharded kernel, the campaign driver and the determinism contract —
// the fleet aggregate must be bit-identical across --jobs values, batch
// splits and event-queue shard counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "analysis/fleet.hpp"
#include "fleet/campaign.hpp"
#include "fleet/cohort.hpp"
#include "fleet/fleet_sim.hpp"

namespace decos::fleet {
namespace {

/// Small but non-trivial campaign: several batches, both strategies see
/// hundreds of depot visits.
FleetCampaignConfig small_campaign() {
  FleetCampaignConfig cfg;
  cfg.vehicles = 600;
  cfg.batch_size = 150;
  cfg.epochs = 6;
  cfg.shards = 2;
  cfg.seed = 77;
  cfg.jobs = 1;
  return cfg;
}

// --- cohorts --------------------------------------------------------------

TEST(CohortSet, CurvesAreDeterministicInSeedAndId) {
  const CohortSet a(123, 8);
  const CohortSet b(123, 8);
  const CohortSet other(124, 8);
  ASSERT_EQ(a.count(), 8u);
  bool any_differs = false;
  for (std::uint32_t c = 0; c < a.count(); ++c) {
    for (double age : {0.0, 0.3, 0.9}) {
      EXPECT_DOUBLE_EQ(a.curve(c).ber_at(age), b.curve(c).ber_at(age));
      if (a.curve(c).ber_at(age) != other.curve(c).ber_at(age)) {
        any_differs = true;
      }
    }
  }
  EXPECT_TRUE(any_differs);
}

TEST(CohortSet, CohortsDifferFromEachOther) {
  const CohortSet set(9, 16);
  double lo = set.curve(0).ber_at(0.0), hi = lo;
  for (std::uint32_t c = 1; c < set.count(); ++c) {
    lo = std::min(lo, set.curve(c).ber_at(0.0));
    hi = std::max(hi, set.curve(c).ber_at(0.0));
  }
  // Lognormal jitter on infant_ber spreads the batch corners well apart.
  EXPECT_GT(hi, 1.5 * lo);
}

TEST(CohortSet, MembershipIsRoundRobin) {
  const CohortSet set(1, 4);
  EXPECT_EQ(set.cohort_of(0), 0u);
  EXPECT_EQ(set.cohort_of(5), 1u);
  EXPECT_EQ(set.cohort_of(103), 3u);
}

// --- batch simulator on the sharded kernel --------------------------------

TEST(FleetSimulator, ShardCountDoesNotChangeTheBatch) {
  FleetBatchConfig cfg;
  cfg.vehicles = 200;
  cfg.epochs = 5;
  cfg.seed = 42;

  cfg.shards = 1;
  const auto one = FleetSimulator(cfg).run();
  cfg.shards = 8;
  const auto eight = FleetSimulator(cfg).run();

  // Bit-identical including the append order of sparse module cells: the
  // kernel's pop order is shard-assignment-invariant.
  EXPECT_TRUE(one == eight);
  EXPECT_EQ(one.vehicles, 200u);
  EXPECT_EQ(one.epochs, 200u * 5u);
}

TEST(FleetSimulator, EventCountIsOneEventPerVehicleEpoch) {
  FleetBatchConfig cfg;
  cfg.vehicles = 50;
  cfg.epochs = 4;
  cfg.shards = 4;
  FleetSimulator sim(cfg);
  (void)sim.run();
  EXPECT_EQ(sim.simulator().events_executed(), 50u * 4u);
}

// Every vehicle schedules its next epoch in firing order, so each push is
// an O(1) append to its shard's run and no push sifts through a heap.
TEST(FleetSimulator, EpochPushesNeverTakeTheHeap) {
  FleetBatchConfig cfg;
  cfg.vehicles = 300;
  cfg.epochs = 6;
  for (std::uint32_t shards : {1u, 3u, 8u}) {
    cfg.shards = shards;
    FleetSimulator sim(cfg);
    (void)sim.run();
    (void)sim.run();  // a second pass continues from the drained clock
    EXPECT_EQ(sim.simulator().events_executed(), 2u * 300u * 6u);
    EXPECT_EQ(sim.simulator().heap_pushes(), 0u) << "shards=" << shards;
  }
}

// --- campaign determinism --------------------------------------------------

TEST(FleetCampaign, JobsDoNotChangeTheAggregate) {
  auto cfg = small_campaign();
  cfg.jobs = 1;
  const auto serial = FleetCampaign(cfg).run();
  cfg.jobs = 4;
  const auto parallel = FleetCampaign(cfg).run();
  EXPECT_TRUE(serial == parallel);
  EXPECT_EQ(serial.vehicles(), 600u);
}

TEST(FleetCampaign, BatchSplitDoesNotChangeTheAggregate) {
  auto cfg = small_campaign();
  cfg.batch_size = 100;
  const auto fine = FleetCampaign(cfg).run();
  cfg.batch_size = 600;  // one batch
  const auto coarse = FleetCampaign(cfg).run();
  // Vehicle streams are keyed off the global id and cohort physics off the
  // fleet seed, so where the batch boundaries fall cannot matter.
  EXPECT_TRUE(fine == coarse);
}

TEST(FleetCampaign, ShardsDoNotChangeTheAggregate) {
  auto cfg = small_campaign();
  cfg.shards = 1;
  const auto one = FleetCampaign(cfg).run();
  cfg.shards = 8;
  const auto eight = FleetCampaign(cfg).run();
  EXPECT_TRUE(one == eight);
}

// --- the fleet verdict -----------------------------------------------------

TEST(FleetVerdict, NaivePolicyWastesMoreThanGuided) {
  const auto agg = FleetCampaign(small_campaign()).run();
  ASSERT_GT(agg.naive().visits, 0u);
  EXPECT_EQ(agg.naive().visits, agg.guided().visits);
  // The Fig. 12 shape: symptom-driven replacement pulls healthy boxes for
  // software and environmental faults; the model-guided flow mostly
  // doesn't.
  EXPECT_GT(agg.naive().nff, agg.guided().nff);
  EXPECT_GT(agg.naive().nff_ratio(), agg.guided().nff_ratio());
  EXPECT_GT(agg.wasted_cost(agg.naive()), agg.wasted_cost(agg.guided()));
  EXPECT_GE(agg.guided().eliminated, agg.naive().eliminated);
}

TEST(FleetVerdict, FailureRateVsAgeRecoversTheBathtub) {
  auto cfg = small_campaign();
  cfg.vehicles = 2'000;
  cfg.batch_size = 500;
  cfg.epochs = 8;
  const auto agg = FleetCampaign(cfg).run();

  const auto& grid = agg.grid();
  // Useful-life valley: the minimum rate over the mid bins.
  double valley = 1e300;
  for (std::uint32_t b = 4; b < 16; ++b) {
    valley = std::min(valley, agg.failure_rate_per_mh(b));
  }
  // Infant mortality: the youngest bin runs well above the valley.
  EXPECT_GT(agg.failure_rate_per_mh(0), 2.0 * valley);
  // Wearout: the oldest bins rise out of the valley again (Fig. 7).
  double old_peak = 0.0;
  for (std::uint32_t b = 18; b < grid.age_bins; ++b) {
    old_peak = std::max(old_peak, agg.failure_rate_per_mh(b));
  }
  EXPECT_GT(old_peak, 2.0 * valley);
}

TEST(FleetVerdict, CohortsSeparateInFailureRate) {
  auto cfg = small_campaign();
  cfg.vehicles = 2'000;
  cfg.batch_size = 1'000;
  cfg.epochs = 8;
  const auto agg = FleetCampaign(cfg).run();

  double lo = 1e300, hi = 0.0;
  for (std::uint32_t c = 0; c < agg.grid().cohorts; ++c) {
    ASSERT_GT(agg.vehicles_by_cohort()[c], 0u);
    const double rate = static_cast<double>(agg.failures_by_cohort()[c]) /
                        static_cast<double>(agg.vehicles_by_cohort()[c]);
    lo = std::min(lo, rate);
    hi = std::max(hi, rate);
  }
  // Shared production physics: a weak batch fails visibly more often than
  // a good one — the correlation fleet analysis exists to surface.
  EXPECT_GT(hi, 1.3 * lo);
}

TEST(FleetVerdict, SoftwareFailuresConcentrateInHeadModules) {
  auto cfg = small_campaign();
  cfg.vehicles = 1'000;
  cfg.batch_size = 250;
  const auto agg = FleetCampaign(cfg).run();
  ASSERT_GT(agg.modules().total_failures(), 0u);
  // Cubic module skew: the top fifth of reporting modules carries well
  // over half of all software failures (20-80 rule).
  EXPECT_GT(agg.modules().head_share(0.2), 0.5);
  // Hot modules show up across many vehicles: design faults, not hardware.
  const auto candidates = agg.modules().design_fault_candidates(10);
  EXPECT_FALSE(candidates.empty());
}

TEST(FleetVerdict, SpareDemandLandsInDepotWindows) {
  const auto agg = FleetCampaign(small_campaign()).run();
  EXPECT_GT(agg.total_spares(), 0u);
  std::uint64_t sum = 0;
  for (std::uint32_t d = 0; d < agg.grid().depots; ++d) {
    EXPECT_GE(agg.peak_window_demand(d), 0u);
    for (std::uint32_t w = 0; w < agg.grid().windows; ++w) {
      sum += agg.spare_demand(d, w);
    }
  }
  EXPECT_EQ(sum, agg.total_spares());
  // Spares are consumed by the guided flow's removals only.
  EXPECT_LE(agg.total_spares(), agg.guided().removals);
}

TEST(FleetAggregate, GridMismatchIsRejected) {
  analysis::FleetAggregate agg;  // default grid
  analysis::FleetGrid other;
  other.age_bins = 12;
  const analysis::FleetBatchCounts batch(other);
  EXPECT_THROW(agg.merge(batch), std::invalid_argument);
}

TEST(FleetAggregate, SummaryMentionsTheHeadlineNumbers) {
  const auto agg = FleetCampaign(small_campaign()).run();
  const auto text = agg.summary();
  EXPECT_NE(text.find("600 vehicles"), std::string::npos);
  EXPECT_NE(text.find("naive"), std::string::npos);
  EXPECT_NE(text.find("guided"), std::string::npos);
}

}  // namespace
}  // namespace decos::fleet
