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
/// (shape > 1), at the paper's ECU parameterisation (the Weibull arms'
/// constants are in hazard.cpp). Hazards add; TTF is sampled by competing
/// risks (minimum of the three arms' samples).
class BathtubHazard {
 public:
  /// Useful-life floor calibrated to 50 failures per million ECUs per
  /// year: 50 / (1e6 * 8760 h) = 5.7e-9 per hour = 5.7 FIT.
  static constexpr FitRate kUsefulLifeRate{
      paper::kUsefulLifeFailuresPerMillionPerYear / (1e6 * 8760.0) * 1e9};

  /// Population-average hazard (infant arm weighted by its fraction).
  [[nodiscard]] double hazard_per_hour(sim::Duration age) const;

  /// Samples TTF for one device; whether the device belongs to the infant
  /// subpopulation is itself drawn from `rng`.
  [[nodiscard]] sim::Duration sample_ttf(sim::Rng& rng,
                                         sim::Duration age) const;
};

}  // namespace decos::reliability
