#include "analysis/cbm.hpp"

#include <cassert>
#include <cmath>

namespace decos::analysis {
namespace {

/// Episodes required before a fit is attempted; a line through the
/// log-gaps needs at least two gaps.
constexpr std::size_t kMinEpisodes = 4;
static_assert(kMinEpisodes >= 3);
/// Gap (in rounds) at which episodes are considered merged —
/// functionally a permanent failure (end of life).
constexpr double kEolGapRounds = 40.0;
/// Shrink factors above this are "not wearing" (no prognosis).
constexpr double kMaxWearingShrink = 0.97;

}  // namespace

void WearoutTracker::add_episode(tta::RoundId start_round) {
  assert(starts_.empty() || start_round >= starts_.back());
  starts_.push_back(start_round);
}

std::optional<WearoutTracker::Prognosis> WearoutTracker::prognose(
    tta::RoundId now) const {
  if (starts_.size() < kMinEpisodes) return std::nullopt;

  // Least squares on log(gap_k) = log g0 + k log s.
  const std::size_t n = starts_.size() - 1;
  double sum_k = 0, sum_y = 0, sum_kk = 0, sum_ky = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const double gap =
        std::max(1.0, static_cast<double>(starts_[k + 1] - starts_[k]));
    const double y = std::log(gap);
    const double kd = static_cast<double>(k);
    sum_k += kd;
    sum_y += y;
    sum_kk += kd * kd;
    sum_ky += kd * y;
  }
  const double nd = static_cast<double>(n);
  const double denom = nd * sum_kk - sum_k * sum_k;
  if (denom <= 0) return std::nullopt;
  const double slope = (nd * sum_ky - sum_k * sum_y) / denom;    // log s
  const double intercept = (sum_y - slope * sum_k) / nd;         // log g0

  const double shrink = std::exp(slope);
  if (shrink >= kMaxWearingShrink) return std::nullopt;  // not wearing

  Prognosis prog;
  prog.shrink = shrink;
  prog.initial_gap_rounds = std::exp(intercept);

  // Episode index at which the gap reaches the EOL threshold.
  const double k_eol =
      (std::log(kEolGapRounds) - intercept) / slope;  // slope < 0
  const double k_now = static_cast<double>(n);

  // Remaining time = sum of gaps from the current episode index to k_eol:
  // geometric series g0 * s^k summed over k in [k_now, k_eol).
  double remaining = 0.0;
  if (k_eol > k_now) {
    const double g0 = prog.initial_gap_rounds;
    remaining = g0 * (std::pow(shrink, k_now) - std::pow(shrink, k_eol)) /
                (1.0 - shrink);
  }
  prog.end_of_life_round =
      starts_.back() + static_cast<tta::RoundId>(std::max(0.0, remaining));
  prog.remaining_rounds = prog.end_of_life_round > now
                              ? prog.end_of_life_round - now
                              : 0;
  return prog;
}

}  // namespace decos::analysis
