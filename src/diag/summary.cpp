#include "diag/summary.hpp"

#include <cmath>

namespace decos::diag {

EvidenceSummary::EvidenceSummary(const EvidenceStore* store, FeatureParams fp,
                                 double alpha_decay,
                                 std::uint32_t component_count,
                                 fault::SpatialLayout layout)
    : store_(store),
      fp_(fp),
      decay_(alpha_decay),
      component_count_(component_count),
      layout_(std::move(layout)),
      // A closed episode's correlation window [first - delta, last + delta]
      // must be final at close time; delta < gap guarantees it.
      lag_(fp.correlation_delta < fp.episode_gap ? kFoldLag : 0),
      folds_(component_count) {}

bool EvidenceSummary::credible_round(tta::RoundId r,
                                     const SubjectRound& sr) const {
  std::uint32_t credible = 0;
  for (platform::ComponentId o : sr.observers) {
    const auto& reported = store_->reported_by(o);
    auto it = reported.find(r);
    const std::size_t spread =
        it == reported.end() ? 0 : it->second.senders_reported.size();
    if (spread < fp_.sender_spread) ++credible;
  }
  return credible >= fp_.observer_quorum;
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
        e.first > fp_.correlation_delta ? e.first - fp_.correlation_delta : 0);
    for (; it != reported.end() &&
           it->first <= e.last + fp_.correlation_delta;
         ++it) {
      if (it->second.senders_reported.size() >= fp_.sender_spread) return true;
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
       it != about.end() && it->first <= to; ++it) {
    const tta::RoundId r = it->first;
    const SubjectRound& sr = it->second;
    if (sr.observers.size() >= fp_.observer_quorum) {
      ++f.totals.quorum_rounds;
      f.totals.crc += sr.crc;
      f.totals.timing += sr.timing;
      f.totals.omission += sr.omission;
    }
    if (!credible_round(r, sr)) continue;
    tail_alpha += std::pow(decay_, static_cast<double>(to - r));
    if (!f.sender_eps.empty() &&
        r <= f.sender_eps.back().last + fp_.episode_gap) {
      f.sender_eps.back().last = r;
      ++f.sender_eps.back().rounds;
    } else {
      f.sender_eps.push_back(Episode{r, r, 1});
    }
  }
  f.alpha_at_horizon =
      f.alpha_at_horizon *
          std::pow(decay_, static_cast<double>(to - horizon_)) +
      tail_alpha;

  // Observer side.
  const auto& reported = store_->reported_by(c);
  for (auto it = reported.lower_bound(tail_start());
       it != reported.end() && it->first <= to; ++it) {
    if (it->second.senders_reported.size() < fp_.sender_spread) continue;
    const tta::RoundId r = it->first;
    if (!f.observer_eps.empty() &&
        r <= f.observer_eps.back().last + fp_.episode_gap) {
      f.observer_eps.back().last = r;
      ++f.observer_eps.back().rounds;
    } else {
      f.observer_eps.push_back(Episode{r, r, 1});
    }
  }

  // Close every episode that no round after `to` can extend, and freeze
  // the correlation verdict of newly closed observer episodes — their
  // correlation window ends before `to`, so the data it reads is final.
  while (f.sender_closed < f.sender_eps.size() &&
         f.sender_eps[f.sender_closed].last + fp_.episode_gap <= to) {
    ++f.sender_closed;
  }
  while (f.observer_closed < f.observer_eps.size() &&
         f.observer_eps[f.observer_closed].last + fp_.episode_gap <= to) {
    f.observer_hit.push_back(
        episode_correlated(c, f.observer_eps[f.observer_closed]));
    ++f.observer_closed;
  }
}

void EvidenceSummary::fold(tta::RoundId now) {
  if (lag_ == 0) return;
  if (dirty_) {
    rebuild(now);
    return;
  }
  const tta::RoundId h1 = now > lag_ ? now - lag_ : 0;
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
  if (lag_ == 0) return;
  const tta::RoundId h1 = now > lag_ ? now - lag_ : 0;
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
              std::pow(decay_, static_cast<double>(now - horizon_));
  // The guardian-block list is capped (EvidenceStore keeps at most 10,000
  // rounds), so it is read exactly.
  const std::vector<tta::RoundId>& blocks = store_->guardian_blocks(c);
  out.guardian_blocks = blocks.size();
  out.guardian_episodes = episodes_of(blocks, fp_.episode_gap).size();

  // Exact tail walk over the unfolded rounds from tail_start() on — the
  // short, still-mutable recent window. The folded lists end in (at most
  // one) open episode each, which the tail rounds may extend exactly like
  // episodes_of would.
  const auto& about = store_->about(c);
  for (auto it = about.lower_bound(tail_start()); it != about.end(); ++it) {
    const tta::RoundId r = it->first;
    const SubjectRound& sr = it->second;
    if (sr.observers.size() >= fp_.observer_quorum) {
      ++out.totals.quorum_rounds;
      out.totals.crc += sr.crc;
      out.totals.timing += sr.timing;
      out.totals.omission += sr.omission;
    }
    if (!credible_round(r, sr)) continue;
    if (r <= now) {
      out.alpha += std::pow(decay_, static_cast<double>(now - r));
    }
    if (!out.sender_eps.empty() &&
        r <= out.sender_eps.back().last + fp_.episode_gap) {
      out.sender_eps.back().last = r;
      ++out.sender_eps.back().rounds;
    } else {
      out.sender_eps.push_back(Episode{r, r, 1});
    }
  }
  const auto& reported = store_->reported_by(c);
  for (auto it = reported.lower_bound(tail_start()); it != reported.end();
       ++it) {
    if (it->second.senders_reported.size() < fp_.sender_spread) continue;
    const tta::RoundId r = it->first;
    if (!out.observer_eps.empty() &&
        r <= out.observer_eps.back().last + fp_.episode_gap) {
      out.observer_eps.back().last = r;
      ++out.observer_eps.back().rounds;
    } else {
      out.observer_eps.push_back(Episode{r, r, 1});
    }
  }

  // Correlation verdicts: frozen for closed episodes, judged live for the
  // open/tail ones (whose windows still move).
  out.observer_hit.assign(f.observer_hit.begin(), f.observer_hit.end());
  for (std::size_t i = f.observer_closed; i < out.observer_eps.size(); ++i) {
    out.observer_hit.push_back(episode_correlated(c, out.observer_eps[i]));
  }
}

}  // namespace decos::diag
