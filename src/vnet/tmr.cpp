#include "vnet/tmr.hpp"

#include <algorithm>
#include <cmath>

namespace decos::vnet {

TmrVoter::Result TmrVoter::vote(
    std::span<const std::optional<double>> replicas) const {
  Result r;
  const auto present = std::count_if(
      replicas.begin(), replicas.end(),
      [](const std::optional<double>& v) { return v.has_value(); });
  if (present < 2) return r;  // kInsufficient

  // Find an agreeing pair, in index order; its mean is the vote.
  for (std::size_t a = 0; a < replicas.size(); ++a) {
    if (!replicas[a]) continue;
    for (std::size_t b = a + 1; b < replicas.size(); ++b) {
      if (!replicas[b]) continue;
      const double va = *replicas[a];
      const double vb = *replicas[b];
      if (std::abs(va - vb) <= p_.epsilon) {
        r.value = 0.5 * (va + vb);
        r.status = Status::kUnanimous;
        // Anything present that disagrees with the vote is outvoted.
        for (std::size_t i = 0; i < replicas.size(); ++i) {
          if (replicas[i] && std::abs(*replicas[i] - r.value) > p_.epsilon) {
            r.status = Status::kMajority;
            r.outvoted = i;
          }
        }
        return r;
      }
    }
  }
  r.status = Status::kNoQuorum;
  return r;
}

void RedundancyMonitor::observe(
    std::span<const std::optional<double>> replicas,
    const TmrVoter::Result& result) {
  ++rounds_;
  for (std::size_t i = 0; i < p_.replica_count && i < replicas.size(); ++i) {
    const bool missing = !replicas[i].has_value();
    const bool outvoted = result.outvoted.has_value() && *result.outvoted == i;
    if (missing || outvoted) {
      if (++bad_streak_[i] >= p_.degraded_after_rounds && !lost_[i]) {
        lost_[i] = true;
        if (on_transition) on_transition(i, true);
      }
    } else {
      bad_streak_[i] = 0;
      if (lost_[i]) {
        lost_[i] = false;  // a recovered replica restores the redundancy
        if (on_transition) on_transition(i, false);
      }
    }
  }
}

std::vector<std::size_t> RedundancyMonitor::lost_replicas() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < lost_.size(); ++i) {
    if (lost_[i]) out.push_back(i);
  }
  return out;
}

}  // namespace decos::vnet
