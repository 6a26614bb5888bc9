// Unit tests for the reliability substrate: FIT arithmetic, hazard models
// (exponential, Weibull, bathtub), alpha-count discrimination, and the
// Pareto software-fault allocator.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "reliability/alpha_count.hpp"
#include "reliability/fit.hpp"
#include "reliability/hazard.hpp"
#include "reliability/pareto.hpp"
#include "sim/rng.hpp"

namespace decos::reliability {
namespace {

// --- FIT ---------------------------------------------------------------------

TEST(FitRate, Conversions) {
  const FitRate r{1e9};  // one failure per hour
  EXPECT_DOUBLE_EQ(r.per_hour(), 1.0);
  EXPECT_NEAR(r.mttf_hours(), 1.0, 1e-9);
}

TEST(FitRate, PaperPermanentRateIsAboutThousandYears) {
  // 100 FIT => MTTF = 1e9/100 hours = 1e7 h ~ 1141 years.
  const double years = paper::kPermanentHardware.mttf_hours() / 8760.0;
  EXPECT_GT(years, 1000.0);
  EXPECT_LT(years, 1300.0);
}

TEST(FitRate, PaperTransientRateIsAboutOneYear) {
  // 100000 FIT => MTTF = 1e4 h ~ 1.14 years.
  const double years = paper::kTransientHardware.mttf_hours() / 8760.0;
  EXPECT_GT(years, 0.9);
  EXPECT_LT(years, 1.3);
}

TEST(FitRate, FailureProbabilityMatchesExponential) {
  const FitRate r{1e9};  // 1/hour
  EXPECT_NEAR(r.failure_probability(sim::hours(1)), 1.0 - std::exp(-1.0), 1e-9);
  EXPECT_NEAR(r.failure_probability(sim::Duration{0}), 0.0, 1e-12);
}

TEST(FitRate, AdditionAndScaling) {
  const FitRate a{100}, b{50};
  EXPECT_DOUBLE_EQ((a + b).fit(), 150.0);
  EXPECT_DOUBLE_EQ((a * 2.0).fit(), 200.0);
}

// --- hazards -------------------------------------------------------------------

TEST(ExponentialHazard, ConstantRateAndMeanTtf) {
  const ExponentialHazard h{FitRate{1e9}};  // 1/hour
  EXPECT_DOUBLE_EQ(h.hazard_per_hour(sim::hours(0)), 1.0);
  EXPECT_DOUBLE_EQ(h.hazard_per_hour(sim::hours(100)), 1.0);

  sim::Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += h.sample_ttf(rng, sim::Duration{}).hours();
  EXPECT_NEAR(sum / n, 1.0, 0.05);
}

TEST(WeibullHazard, ShapeBelowOneDecreases) {
  const WeibullHazard h{0.5, 1000.0};
  EXPECT_GT(h.hazard_per_hour(sim::hours(1)), h.hazard_per_hour(sim::hours(100)));
}

TEST(WeibullHazard, ShapeAboveOneIncreases) {
  const WeibullHazard h{4.0, 1000.0};
  EXPECT_LT(h.hazard_per_hour(sim::hours(10)), h.hazard_per_hour(sim::hours(500)));
}

TEST(WeibullHazard, UnconditionalMeanMatchesGamma) {
  // E[T] = scale * Gamma(1 + 1/k); for k=2, Gamma(1.5) = sqrt(pi)/2.
  const double scale = 100.0;
  const WeibullHazard h{2.0, scale};
  sim::Rng rng(12);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += h.sample_ttf(rng, sim::Duration{}).hours();
  EXPECT_NEAR(sum / n, scale * std::sqrt(3.14159265) / 2.0, 2.0);
}

TEST(WeibullHazard, ConditionalSamplingRespectsAge) {
  // For increasing hazard, expected *remaining* life shrinks with age.
  const WeibullHazard h{4.0, 1000.0};
  sim::Rng rng(13);
  auto mean_remaining = [&](double age_hours) {
    double sum = 0;
    const int n = 8000;
    for (int i = 0; i < n; ++i) {
      sum += h.sample_ttf(rng, sim::hours(static_cast<std::int64_t>(age_hours)))
                 .hours();
    }
    return sum / n;
  };
  EXPECT_GT(mean_remaining(0.0), mean_remaining(900.0));
}

TEST(BathtubHazard, HasBathtubShape) {
  const BathtubHazard tub;
  const double early = tub.hazard_per_hour(sim::hours(10));
  const double mid = tub.hazard_per_hour(sim::hours(40'000));
  const double late = tub.hazard_per_hour(sim::hours(200'000));
  EXPECT_GT(early, mid);   // infant mortality decays
  EXPECT_GT(late, mid);    // wearout rises
}

TEST(BathtubHazard, UsefulLifeFloorMatchesPaperRate) {
  // 50 per million per year expressed in FIT.
  EXPECT_NEAR(BathtubHazard::kUsefulLifeRate.fit(), 50.0 / (1e6 * 8760.0) * 1e9,
              1e-6);
}

// --- alpha count ---------------------------------------------------------------

TEST(AlphaCount, SingleTransientDecaysAway) {
  AlphaCount ac;
  ac.observe(true);
  for (int i = 0; i < 2000; ++i) ac.observe(false);
  EXPECT_FALSE(ac.flagged());
  EXPECT_LT(ac.alpha(), 0.01);
}

TEST(AlphaCount, RepeatedFailuresFlag) {
  AlphaCount ac;
  for (int i = 0; i < 10; ++i) ac.observe(true);
  EXPECT_TRUE(ac.flagged());
}

TEST(AlphaCount, SparseFailuresStayBelowThreshold) {
  // One failure every 200 rounds with decay 0.995: equilibrium alpha
  // ~ 1/(1 - 0.995^200) ~ 1.58 < 3.
  AlphaCount ac;
  for (int round = 0; round < 20000; ++round) {
    ac.observe(round % 200 == 0);
  }
  EXPECT_FALSE(ac.flagged());
}

TEST(AlphaCount, DenseFailuresCrossThreshold) {
  AlphaCount ac;
  for (int round = 0; round < 2000; ++round) {
    ac.observe(round % 10 == 0);
  }
  EXPECT_TRUE(ac.flagged());
}

TEST(AlphaCount, ResetClearsState) {
  AlphaCount ac;
  for (int i = 0; i < 10; ++i) ac.observe(true);
  ac.reset();
  EXPECT_FALSE(ac.flagged());
  EXPECT_EQ(ac.failures(), 0u);
  EXPECT_EQ(ac.rounds(), 0u);
}

TEST(WindowCount, FlagsOnKInWindow) {
  WindowCount wc(10, 3);
  for (int i = 0; i < 5; ++i) wc.observe(false);
  wc.observe(true);
  wc.observe(true);
  EXPECT_FALSE(wc.flagged());
  wc.observe(true);
  EXPECT_TRUE(wc.flagged());
}

TEST(WindowCount, OldFailuresExpire) {
  WindowCount wc(10, 3);
  wc.observe(true);
  wc.observe(true);
  for (int i = 0; i < 20; ++i) wc.observe(false);
  wc.observe(true);
  EXPECT_FALSE(wc.flagged());
}

// --- pareto -----------------------------------------------------------------

TEST(ParetoAllocator, WeightsSumToOneAndAreDescending) {
  ParetoAllocator pa;
  const auto w = pa.weights(100);
  EXPECT_NEAR(std::accumulate(w.begin(), w.end(), 0.0), 1.0, 1e-9);
  for (std::size_t i = 1; i < w.size(); ++i) EXPECT_LE(w[i], w[i - 1]);
}

TEST(ParetoAllocator, TwentyEightyHolds) {
  ParetoAllocator pa;
  const auto w = pa.weights(100);
  EXPECT_NEAR(ParetoAllocator::head_share(w, 0.20), 0.80, 0.02);
}

TEST(ParetoAllocator, CustomHeadMass) {
  ParetoAllocator pa{ParetoAllocator::Params{.head_fraction = 0.10,
                                             .head_mass = 0.50}};
  const auto w = pa.weights(200);
  EXPECT_NEAR(ParetoAllocator::head_share(w, 0.10), 0.50, 0.02);
}

TEST(ParetoAllocator, AllocationFollowsWeights) {
  ParetoAllocator pa;
  sim::Rng rng(21);
  const std::size_t n = 50, faults = 20000;
  const auto counts = pa.allocate(n, faults, rng);
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), std::size_t{0}), faults);
  // Head (top 20% = 10 modules) should carry roughly 80% of the counts.
  const auto head = std::accumulate(counts.begin(), counts.begin() + 10, std::size_t{0});
  EXPECT_NEAR(static_cast<double>(head) / static_cast<double>(faults), 0.80, 0.05);
}

}  // namespace
}  // namespace decos::reliability
