#include "reliability/hazard.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace decos::reliability {
namespace {

constexpr double kNsPerHour = 3.6e12;

// The bathtub's Weibull arms.
constexpr double kInfantShape = 0.5;
constexpr double kInfantScaleHours = 2'000.0;  // decays over the first weeks
/// Fraction of the population subject to infant mortality at all (the
/// paper notes infant faults affect only a subpopulation).
constexpr double kInfantPopulationFraction = 0.02;
constexpr double kWearoutShape = 4.0;
/// Characteristic life of the wearout arm: ~13.7 years.
constexpr double kWearoutScaleHours = 120'000.0;
static_assert(kInfantShape < 1.0 && kWearoutShape > 1.0);

sim::Duration hours_to_duration(double h) {
  // Clamp to the representable range; "never fails" maps to a far future.
  const double ns = h * kNsPerHour;
  if (ns >= 9.0e18) return sim::Duration{std::int64_t{9'000'000'000'000'000'000}};
  return sim::Duration{static_cast<std::int64_t>(ns)};
}

}  // namespace

sim::Duration ExponentialHazard::sample_ttf(sim::Rng& rng, sim::Duration) const {
  // Memoryless: age is irrelevant.
  const double hrs = rng.exponential(rate_.per_hour());
  return hours_to_duration(hrs);
}

WeibullHazard::WeibullHazard(double shape, double scale_hours)
    : shape_(shape), scale_hours_(scale_hours) {
  assert(shape > 0.0 && scale_hours > 0.0);
}

double WeibullHazard::hazard_per_hour(sim::Duration age) const {
  const double t = std::max(age.hours(), 1e-9);
  return (shape_ / scale_hours_) * std::pow(t / scale_hours_, shape_ - 1.0);
}

sim::Duration WeibullHazard::sample_ttf(sim::Rng& rng, sim::Duration age) const {
  // Conditional sampling: given survival to age a, the remaining life
  // T - a satisfies  T = scale * ((a/scale)^k - ln U)^(1/k).
  const double a = age.hours() / scale_hours_;
  const double base = std::pow(a, shape_) - std::log1p(-rng.uniform());
  const double t_hours = scale_hours_ * std::pow(base, 1.0 / shape_);
  const double remaining = std::max(t_hours - age.hours(), 0.0);
  return hours_to_duration(remaining);
}

double BathtubHazard::hazard_per_hour(sim::Duration age) const {
  const WeibullHazard infant(kInfantShape, kInfantScaleHours);
  const WeibullHazard wearout(kWearoutShape, kWearoutScaleHours);
  return kInfantPopulationFraction * infant.hazard_per_hour(age) +
         kUsefulLifeRate.per_hour() + wearout.hazard_per_hour(age);
}

sim::Duration BathtubHazard::sample_ttf(sim::Rng& rng, sim::Duration age) const {
  const WeibullHazard wearout(kWearoutShape, kWearoutScaleHours);
  const ExponentialHazard useful(kUsefulLifeRate);

  sim::Duration ttf = std::min(useful.sample_ttf(rng, age),
                               wearout.sample_ttf(rng, age));
  // Membership in the infant subpopulation is decided per call; callers
  // sampling one device should call once and cache.
  if (rng.bernoulli(kInfantPopulationFraction)) {
    const WeibullHazard infant(kInfantShape, kInfantScaleHours);
    ttf = std::min(ttf, infant.sample_ttf(rng, age));
  }
  return ttf;
}

}  // namespace decos::reliability
