// The alpha-count mechanism of Bondavalli et al. (FTCS'97), referenced by
// the paper (Section V-C) as the technique for discriminating transient
// from permanent/intermittent faults.
//
// Each judged entity keeps a score alpha. On every judgement round the
// score decays multiplicatively; on an observed failure it is incremented.
// Rare, uncorrelated transients keep alpha low; internal faults, which fire
// at a higher rate and at the same location, push alpha over the threshold.
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace decos::reliability {

class AlphaCount {
 public:
  /// Added per observed failure.
  static constexpr double kIncrement = 1.0;
  /// Multiplicative decay per judgement round.
  static constexpr double kDecay = 0.995;

  /// Flags once alpha >= `threshold` (E7 sweeps it).
  explicit AlphaCount(double threshold = 3.0) : threshold_(threshold) {}

  /// One judgement round: decay, then add increment if a failure was seen.
  void observe(bool failed) {
    alpha_ *= kDecay;
    if (failed) {
      alpha_ += kIncrement;
      ++failures_;
    }
    ++rounds_;
  }

  [[nodiscard]] double alpha() const { return alpha_; }
  [[nodiscard]] bool flagged() const { return alpha_ >= threshold_; }
  [[nodiscard]] std::uint64_t rounds() const { return rounds_; }
  [[nodiscard]] std::uint64_t failures() const { return failures_; }

  void reset() {
    alpha_ = 0.0;
    rounds_ = 0;
    failures_ = 0;
  }

 private:
  double threshold_;
  double alpha_ = 0.0;
  std::uint64_t rounds_ = 0;
  std::uint64_t failures_ = 0;
};

/// Naive baseline for the E7 ablation: flags when K failures fall within a
/// sliding window of N rounds, with no decay memory in between.
class WindowCount {
 public:
  WindowCount(std::uint32_t window_rounds, std::uint32_t k_threshold)
      : window_(window_rounds), k_(k_threshold) {}

  void observe(bool failed);
  [[nodiscard]] bool flagged() const { return flagged_; }

 private:
  std::uint32_t window_;
  std::uint32_t k_;
  std::uint64_t round_ = 0;
  // Ring of the last `window_` observations, stored compactly.
  std::uint64_t recent_bits_[8] = {};  // supports window <= 512
  std::uint32_t recent_count_ = 0;
  bool flagged_ = false;
};

}  // namespace decos::reliability
