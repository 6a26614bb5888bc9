// Condition-Based Maintenance (Section III-E).
//
// "A suitable indicator for wearout of electronic devices is the increase
// of transient failures" — the paper proposes the indicator; this module
// turns it into a prognostic: fit the geometric shrink of inter-episode
// gaps (gap_k = g0 * s^k) by least squares on the log-gaps, extrapolate to
// the point where episodes merge into continuous failure (end of life),
// and report the remaining useful life. Bench E11 scores the prediction
// against the injector's actual wearout process.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "tta/types.hpp"

namespace decos::analysis {

/// The fit's thresholds (episodes needed, end-of-life gap, the shrink
/// that counts as wearing) are constants in cbm.cpp.
class WearoutTracker {
 public:
  /// Feeds the start round of one observed transient episode (ascending).
  void add_episode(tta::RoundId start_round);

  [[nodiscard]] std::size_t episodes() const { return starts_.size(); }

  struct Prognosis {
    double initial_gap_rounds = 0.0;  // fitted g0
    double shrink = 1.0;              // fitted s (per episode)
    /// Predicted round at which gaps fall below the EOL threshold.
    tta::RoundId end_of_life_round = 0;
    /// Remaining useful life from `now`, in rounds (0 if already past).
    tta::RoundId remaining_rounds = 0;
  };

  /// Fits the gap model and extrapolates. Returns nullopt when there are
  /// too few episodes or the gaps are not shrinking (healthy device).
  [[nodiscard]] std::optional<Prognosis> prognose(tta::RoundId now) const;

 private:
  std::vector<tta::RoundId> starts_;
};

}  // namespace decos::analysis
