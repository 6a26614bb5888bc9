#include "exact_features.hpp"

#include <cmath>

namespace decos::diag {

std::vector<tta::RoundId> credible_sender_rounds(const EvidenceStore& ev,
                                                 platform::ComponentId c,
                                                 const FeatureParams& p) {
  std::vector<tta::RoundId> rounds;
  for (const auto& [r, sr] : ev.about(c)) {
    std::uint32_t credible = 0;
    for (platform::ComponentId o = 0; o < EvidenceStore::kMaxComponents; ++o) {
      if ((sr.observers >> o & 1u) == 0) continue;
      const ObserverRound* orow = ev.reported_by(o).find(r);
      const std::size_t spread = orow ? orow->spread() : 0;
      if (spread < p.sender_spread) ++credible;
    }
    if (credible >= kObserverQuorum) rounds.push_back(r);
  }
  return rounds;
}

std::vector<Episode> sender_episodes(const EvidenceStore& ev,
                                     platform::ComponentId c,
                                     const FeatureParams& p) {
  return episodes_of(credible_sender_rounds(ev, c, p), kEpisodeGap);
}

std::vector<tta::RoundId> observer_rounds(const EvidenceStore& ev,
                                          platform::ComponentId c,
                                          const FeatureParams& p) {
  std::vector<tta::RoundId> rounds;
  for (const auto& [r, orow] : ev.reported_by(c)) {
    if (orow.spread() >= p.sender_spread) rounds.push_back(r);
  }
  return rounds;
}

std::vector<Episode> observer_episodes(const EvidenceStore& ev,
                                       platform::ComponentId c,
                                       const FeatureParams& p) {
  return episodes_of(observer_rounds(ev, c, p), kEpisodeGap);
}

bool episode_correlated(const EvidenceStore& ev, platform::ComponentId c,
                        const Episode& e, const fault::SpatialLayout& layout,
                        std::uint32_t component_count,
                        const FeatureParams& p) {
  for (platform::ComponentId o = 0; o < component_count; ++o) {
    if (o == c) continue;
    if (std::abs(layout.position.at(o) - layout.position.at(c)) >
        p.spatial_radius) {
      continue;
    }
    const auto& reported = ev.reported_by(o);
    auto it = reported.lower_bound(
        e.first > kCorrelationDelta ? e.first - kCorrelationDelta : 0);
    for (; it != reported.end() && it->round <= e.last + kCorrelationDelta;
         ++it) {
      if (it->record.spread() >= p.sender_spread) return true;
    }
  }
  return false;
}

bool spatially_correlated(const EvidenceStore& ev, platform::ComponentId c,
                          const std::vector<Episode>& eps,
                          const fault::SpatialLayout& layout,
                          std::uint32_t component_count,
                          const FeatureParams& p) {
  std::size_t correlated = 0;
  for (const Episode& e : eps) {
    if (episode_correlated(ev, c, e, layout, component_count, p)) {
      ++correlated;
    }
  }
  return 2 * correlated > eps.size();
}

VerdictTotals verdict_totals(const EvidenceStore& ev, platform::ComponentId c) {
  VerdictTotals vt;
  for (const auto& [r, sr] : ev.about(c)) {
    if (sr.observer_count() < kObserverQuorum) continue;
    ++vt.quorum_rounds;
    vt.crc += sr.crc;
    vt.timing += sr.timing;
    vt.omission += sr.omission;
  }
  return vt;
}

double alpha_score(const EvidenceStore& ev, platform::ComponentId c,
                   tta::RoundId now, const FeatureParams& p) {
  double alpha = 0.0;
  for (tta::RoundId r : credible_sender_rounds(ev, c, p)) {
    if (r > now) continue;
    alpha +=
        std::pow(EvidenceSummary::kAlphaDecay, static_cast<double>(now - r));
  }
  return alpha;
}

EvidenceSummary::ComponentFeatures exact_component_features(
    const EvidenceStore& ev, platform::ComponentId c, tta::RoundId now,
    const FeatureParams& p, const fault::SpatialLayout& layout,
    std::uint32_t component_count) {
  EvidenceSummary::ComponentFeatures f;
  f.sender_eps = sender_episodes(ev, c, p);
  f.observer_eps = observer_episodes(ev, c, p);
  for (const Episode& e : f.observer_eps) {
    f.observer_hit.push_back(
        episode_correlated(ev, c, e, layout, component_count, p));
  }
  f.totals = verdict_totals(ev, c);
  f.alpha = alpha_score(ev, c, now, p);
  f.guardian_blocks = ev.guardian_blocks(c).size();
  f.guardian_episodes =
      episodes_of(ev.guardian_blocks(c), kEpisodeGap).size();
  return f;
}

}  // namespace decos::diag
