#include "diag/summary.hpp"

#include <bit>
#include <cmath>

namespace decos::diag {

namespace {

// A closed episode's correlation window [first - delta, last + delta] must
// be final at close time (last + gap <= the fold horizon), so every folded
// observer episode can freeze its verdict.
static_assert(kCorrelationDelta < kEpisodeGap);

/// Adds one subject round to the verdict totals if it met the quorum.
void add_quorum_round(VerdictTotals& t, const SubjectRound& sr) {
  if (sr.observer_count() < kObserverQuorum) return;
  ++t.quorum_rounds;
  t.crc += sr.crc;
  t.timing += sr.timing;
  t.omission += sr.omission;
}

}  // namespace

EvidenceSummary::EvidenceSummary(const EvidenceStore* store, FeatureParams fp,
                                 std::uint32_t component_count,
                                 fault::SpatialLayout layout)
    : store_(store),
      fp_(fp),
      component_count_(component_count),
      layout_(std::move(layout)),
      folds_(component_count) {}

bool EvidenceSummary::credible_round(tta::RoundId r,
                                     const SubjectRound& sr) const {
  std::uint32_t credible = 0;
  for (std::uint64_t m = sr.observers; m != 0; m &= m - 1) {
    const auto o = static_cast<platform::ComponentId>(std::countr_zero(m));
    const ObserverRound* orow = store_->reported_by(o).find(r);
    const std::size_t spread = orow ? orow->spread() : 0;
    if (spread < fp_.sender_spread) ++credible;
  }
  return credible >= kObserverQuorum;
}

bool EvidenceSummary::episode_correlated(platform::ComponentId c,
                                         const Episode& e) const {
  for (platform::ComponentId o = 0; o < component_count_; ++o) {
    if (o == c) continue;
    if (std::abs(layout_.position.at(o) - layout_.position.at(c)) >
        fp_.spatial_radius) {
      continue;
    }
    const auto& reported = store_->reported_by(o);
    auto it = reported.lower_bound(
        e.first > kCorrelationDelta ? e.first - kCorrelationDelta : 0);
    for (; it != reported.end() && it->round <= e.last + kCorrelationDelta;
         ++it) {
      if (it->record.spread() >= fp_.sender_spread) return true;
    }
  }
  return false;
}

void EvidenceSummary::fold_component(platform::ComponentId c,
                                     tta::RoundId to) const {
  ComponentFold& f = folds_[c];

  // Sender side: credible rounds, verdict totals and the alpha
  // accumulator advance together over one walk of the subject detail.
  double tail_alpha = 0.0;
  const auto& about = store_->about(c);
  for (auto it = about.lower_bound(tail_start());
       it != about.end() && it->round <= to; ++it) {
    const tta::RoundId r = it->round;
    const SubjectRound& sr = it->record;
    add_quorum_round(f.totals, sr);
    if (!credible_round(r, sr)) continue;
    tail_alpha += std::pow(kAlphaDecay, static_cast<double>(to - r));
    extend_episodes(f.sender_eps, r, kEpisodeGap);
  }
  f.alpha_at_horizon =
      f.alpha_at_horizon *
          std::pow(kAlphaDecay, static_cast<double>(to - horizon_)) +
      tail_alpha;

  // Observer side.
  const auto& reported = store_->reported_by(c);
  for (auto it = reported.lower_bound(tail_start());
       it != reported.end() && it->round <= to; ++it) {
    if (it->record.spread() < fp_.sender_spread) continue;
    extend_episodes(f.observer_eps, it->round, kEpisodeGap);
  }

  // Close every episode that no round after `to` can extend, and freeze
  // the correlation verdict of newly closed observer episodes — their
  // correlation window ends before `to`, so the data it reads is final.
  while (f.sender_closed < f.sender_eps.size() &&
         f.sender_eps[f.sender_closed].last + kEpisodeGap <= to) {
    ++f.sender_closed;
  }
  while (f.observer_closed < f.observer_eps.size() &&
         f.observer_eps[f.observer_closed].last + kEpisodeGap <= to) {
    f.observer_hit.push_back(
        episode_correlated(c, f.observer_eps[f.observer_closed]));
    ++f.observer_closed;
  }
}

void EvidenceSummary::fold(tta::RoundId now) {
  if (dirty_) {
    rebuild(now);
    return;
  }
  const tta::RoundId h1 = now > kFoldLag ? now - kFoldLag : 0;
  if (h1 <= horizon_) return;
  for (platform::ComponentId c = 0; c < component_count_; ++c) {
    fold_component(c, h1);
  }
  horizon_ = h1;
}

void EvidenceSummary::rebuild(tta::RoundId now) const {
  folds_.assign(component_count_, ComponentFold{});
  horizon_ = 0;
  dirty_ = false;
  ++rebuilds_;
  const tta::RoundId h1 = now > kFoldLag ? now - kFoldLag : 0;
  if (h1 == 0) return;
  for (platform::ComponentId c = 0; c < component_count_; ++c) {
    fold_component(c, h1);
  }
  horizon_ = h1;
}

void EvidenceSummary::component_features(platform::ComponentId c,
                                         tta::RoundId now,
                                         ComponentFeatures& out) const {
  if (dirty_) rebuild(now);
  const ComponentFold& f = folds_[c];
  out.sender_eps = f.sender_eps;
  out.observer_eps = f.observer_eps;
  out.totals = f.totals;
  out.alpha = f.alpha_at_horizon *
              std::pow(kAlphaDecay, static_cast<double>(now - horizon_));
  // The guardian-block list is capped (EvidenceStore keeps at most 10,000
  // rounds), so it is read exactly.
  const std::vector<tta::RoundId>& blocks = store_->guardian_blocks(c);
  out.guardian_blocks = blocks.size();
  out.guardian_episodes = episodes_of(blocks, kEpisodeGap).size();

  // Exact tail walk over the unfolded rounds from tail_start() on — the
  // short, still-mutable recent window. The folded lists end in (at most
  // one) open episode each, which the tail rounds may extend exactly like
  // episodes_of would.
  const auto& about = store_->about(c);
  for (auto it = about.lower_bound(tail_start()); it != about.end(); ++it) {
    const tta::RoundId r = it->round;
    const SubjectRound& sr = it->record;
    add_quorum_round(out.totals, sr);
    if (!credible_round(r, sr)) continue;
    if (r <= now) {
      out.alpha += std::pow(kAlphaDecay, static_cast<double>(now - r));
    }
    extend_episodes(out.sender_eps, r, kEpisodeGap);
  }
  const auto& reported = store_->reported_by(c);
  for (auto it = reported.lower_bound(tail_start()); it != reported.end();
       ++it) {
    if (it->record.spread() < fp_.sender_spread) continue;
    extend_episodes(out.observer_eps, it->round, kEpisodeGap);
  }

  // Correlation verdicts: frozen for closed episodes, judged live for the
  // open/tail ones (whose windows still move).
  out.observer_hit.assign(f.observer_hit.begin(), f.observer_hit.end());
  for (std::size_t i = f.observer_closed; i < out.observer_eps.size(); ++i) {
    out.observer_hit.push_back(episode_correlated(c, out.observer_eps[i]));
  }
}

EvidenceSummary::JobFeatures EvidenceSummary::job_features(
    platform::JobId j) const {
  const JobEvidence& je = store_->job(j);
  return {je.value_rounds.size(), je.transducer_suspect_rounds.size(),
          je.overflow_count,
          je.gap_rounds.empty() ? std::nullopt
                                : std::optional(je.gap_rounds.back()),
          magnitudes_drifting({je.value_magnitudes.begin(),
                               je.value_magnitudes.end()})};
}

}  // namespace decos::diag
