// Hazard-rate models: exponential, Weibull, and the composite bathtub curve
// of Fig. 7 (infant mortality + useful life + wearout).
//
// Each model answers h(t) — the instantaneous failure rate at device age
// t — and can sample a time-to-failure given an Rng. Fault sources use the
// sampled TTF to schedule activations; bench E1 integrates h(t) over a
// population to regenerate the bathtub curve.
#pragma once

#include "reliability/fit.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace decos::reliability {

/// Constant-rate (exponential) model — the useful-life floor of the bathtub.
class ExponentialHazard {
 public:
  explicit ExponentialHazard(FitRate rate) : rate_(rate) {}

  /// Instantaneous hazard rate at any age, in failures per hour.
  [[nodiscard]] double hazard_per_hour(sim::Duration) const {
    return rate_.per_hour();
  }
  /// Samples a time-to-failure; memoryless, so the age does not matter.
  [[nodiscard]] sim::Duration sample_ttf(sim::Rng& rng, sim::Duration) const;

  [[nodiscard]] FitRate rate() const { return rate_; }

 private:
  FitRate rate_;
};

/// Weibull model. shape < 1 gives decreasing hazard (infant mortality),
/// shape > 1 increasing hazard (wearout). `scale` is the characteristic
/// life in hours.
class WeibullHazard {
 public:
  WeibullHazard(double shape, double scale_hours);

  /// Instantaneous hazard rate at age `age`, in failures per hour.
  [[nodiscard]] double hazard_per_hour(sim::Duration age) const;
  /// Samples a time-to-failure for a device of age `age`, conditional on
  /// its survival to `age`.
  [[nodiscard]] sim::Duration sample_ttf(sim::Rng& rng,
                                         sim::Duration age) const;

  [[nodiscard]] double shape() const { return shape_; }
  [[nodiscard]] double scale_hours() const { return scale_hours_; }

 private:
  double shape_;
  double scale_hours_;
};

/// The Fig. 7 bathtub: superposition of an infant-mortality Weibull
/// (shape < 1), a constant useful-life rate, and a wearout Weibull
/// (shape > 1). Hazards add; TTF is sampled by competing risks (minimum of
/// the three arms' samples).
class BathtubHazard {
 public:
  struct Params {
    double infant_shape = 0.5;
    double infant_scale_hours = 2'000.0;   // decays over the first weeks
    /// Fraction of the population subject to infant mortality at all
    /// (the paper notes infant faults affect only a subpopulation).
    double infant_population_fraction = 0.02;
    FitRate useful_life_rate{FitRate{5.7}};  // ~50 / 1e6 units / year
    double wearout_shape = 4.0;
    double wearout_scale_hours = 120'000.0;  // ~13.7 years characteristic life
  };

  explicit BathtubHazard(Params p) : p_(p) {}

  /// Population-average hazard (infant arm weighted by its fraction).
  [[nodiscard]] double hazard_per_hour(sim::Duration age) const;

  /// Samples TTF for one device; whether the device belongs to the infant
  /// subpopulation is itself drawn from `rng`.
  [[nodiscard]] sim::Duration sample_ttf(sim::Rng& rng,
                                         sim::Duration age) const;

  [[nodiscard]] const Params& params() const { return p_; }

 private:
  Params p_;
};

/// Convenience: the paper's default bathtub parameterisation (useful-life
/// floor calibrated to 50 failures per million ECUs per year).
[[nodiscard]] BathtubHazard::Params default_ecu_bathtub();

}  // namespace decos::reliability
