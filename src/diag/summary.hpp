// Incremental per-round evidence summaries — the one source of the
// component and job features, so classification cost is independent of
// the evidence window.
//
// Walking the per-round detail of the evidence store for every feature
// (credible sender rounds, observer rounds, verdict totals, alpha score)
// is O(window) per FRU per read — tolerable at N = 7, ruinous for
// always-on classification in large clusters. The summary therefore
// computes one ComponentFeatures value per read, and both the classifier
// and the Out-of-Norm Assertions evaluate that same value. The exact
// walks live on as its test oracle (tests/exact_features.hpp).
//
// The summary maintains a *fold horizon* h: rounds at or before h are
// folded once into per-component state (closed episodes with their
// spatial-correlation verdicts, verdict totals, the alpha accumulator at
// h, the still-open trailing episode) and never rescanned. A read merges
// the folded state with an exact walk over the short tail (h, now] —
// O(tail + episodes) instead of O(window).
//
// Correctness hinges on finality: a round is folded only once no future
// ingest can still mention it, and an observer episode's correlation
// verdict is frozen only once its window is final (kCorrelationDelta <
// kEpisodeGap, a static_assert in summary.cpp). The fold lag therefore exceeds the oldest
// observation the wire format can deliver (the symptom age field saturates
// at 255 rounds) plus the agents' largest resend backoff. Should an older
// observation arrive anyway — or the store prune folded detail — the
// summary marks itself dirty and rebuilds from the detail, which is
// exactly what the exact walks compute. Folded features are bit-identical
// to the exact walks for integer-valued features (episodes, totals); the
// alpha accumulator folds multiplicatively and may differ from the exact
// sum in the last ulp.
//
// A job's features (JobFeatures) are counts and flags over its own short
// value, gap and overflow history, read from the store on demand.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "diag/evidence.hpp"
#include "diag/features.hpp"
#include "fault/injector.hpp"
#include "platform/types.hpp"

namespace decos::diag {

class EvidenceSummary {
 public:
  /// Rounds between now and the fold horizon: above the symptom age
  /// field's 255-round saturation plus the agents' resend span (checked
  /// where both meet, in assessor.cpp).
  static constexpr tta::RoundId kFoldLag = 320;
  /// Per-round decay of the alpha-count score.
  static constexpr double kAlphaDecay = 0.999;
  /// Rounds of continuous sender trouble that mean a dead (permanent) FRU.
  static constexpr tta::RoundId kPermanentOmissionRounds = 200;
  /// Rounds of value errors, or of transducer assertions, before a job's
  /// value history is judged at all.
  static constexpr std::size_t kMinValueRounds = 3;

  /// `store` is not owned and must outlive the summary (or be re-pointed
  /// with rebind after a wholesale copy). `fp` must be the fully resolved
  /// feature parameters the classifier uses — sender_spread already
  /// scaled to the component count (Classifier::feature_params).
  EvidenceSummary(const EvidenceStore* store, FeatureParams fp,
                  std::uint32_t component_count, fault::SpatialLayout layout);

  [[nodiscard]] const EvidenceStore& evidence() const { return *store_; }
  [[nodiscard]] const FeatureParams& feature_params() const { return fp_; }
  [[nodiscard]] const fault::SpatialLayout& layout() const { return layout_; }
  /// Last folded round; 0 while nothing is folded (a fold always moves
  /// the horizon to round 1 or later, so round 0 is never lost).
  [[nodiscard]] tta::RoundId horizon() const { return horizon_; }
  [[nodiscard]] std::uint64_t rebuilds() const { return rebuilds_; }

  /// After the owning assessor copied another assessor's store (wholesale
  /// reconciliation adoption), point the summary at the copy.
  void rebind(const EvidenceStore* store) { store_ = store; }

  /// Ingest-side hook: observations at or before the fold horizon violate
  /// the finality assumption and force a rebuild on next access.
  void note_ingest(const Symptom& s) {
    if (s.round < tail_start()) dirty_ = true;
  }
  /// Prune-side hook: dropping folded detail invalidates nothing (folded
  /// state no longer reads it), but detail *newer* than the horizon must
  /// survive for the tail walk.
  void note_prune(tta::RoundId cutoff) {
    if (cutoff > tail_start()) dirty_ = true;
  }

  /// Advances the fold horizon to now - lag. Call once per assessment
  /// round; amortised cost is O(1) per symptomatic round folded.
  void fold(tta::RoundId now);

  /// Everything the classifier and the ONAs read about one component at
  /// one round: folded state merged with an exact walk over
  /// (horizon, now].
  struct ComponentFeatures {
    /// Episodes of credible sender rounds (>= kObserverQuorum observers
    /// that are not themselves self-suspect).
    std::vector<Episode> sender_eps;
    /// Episodes of observer rounds (the component flagged >=
    /// sender_spread senders).
    std::vector<Episode> observer_eps;
    /// Per observer episode: coincides (within kCorrelationDelta) with an
    /// observer-round of a spatially proximate component.
    std::vector<bool> observer_hit;
    VerdictTotals totals;
    /// Alpha-count score (Bondavalli et al., the paper's §V-C
    /// discriminator) over the credible sender rounds: each contributes
    /// kAlphaDecay^(now - round).
    double alpha = 0.0;
    /// Rounds in which the bus guardian blocked the component, and the
    /// episodes they form.
    std::size_t guardian_blocks = 0;
    std::size_t guardian_episodes = 0;

    /// The latest sender episode is a dense run of at least
    /// kPermanentOmissionRounds rounds, >= 80 % of them symptomatic, still
    /// ongoing at `now` (the permanent-fault time signature).
    [[nodiscard]] bool sender_dense_tail(tta::RoundId now) const {
      if (sender_eps.empty()) return false;
      const Episode& last = sender_eps.back();
      return last.last + kEpisodeGap >= now &&
             last.last - last.first >= kPermanentOmissionRounds &&
             last.rounds >=
                 static_cast<std::uint32_t>(kPermanentOmissionRounds * 8 / 10);
    }
    /// A majority of the observer episodes coincides with receive-path
    /// trouble at proximate components (the massive-transient space
    /// signature). A majority, because a component with a bad connector
    /// also meets the occasional interference zone, and one coincidence
    /// must not relabel a recurring connector history as EMI.
    [[nodiscard]] bool observers_correlated() const {
      const auto hits = static_cast<std::size_t>(
          std::count(observer_hit.begin(), observer_hit.end(), true));
      return 2 * hits > observer_eps.size();
    }
  };
  void component_features(platform::ComponentId c, tta::RoundId now,
                          ComponentFeatures& out) const;

  /// Everything the classifier reads about one job's own history.
  struct JobFeatures {
    /// Rounds with a value-out-of-range symptom, and rounds with the job's
    /// own model-based transducer assertion.
    std::size_t value_rounds = 0;
    std::size_t transducer_suspect_rounds = 0;
    std::uint64_t overflow_count = 0;
    /// Latest round the job's messages went missing; nullopt if never.
    std::optional<tta::RoundId> last_gap;
    /// The worst magnitude per value round grows (magnitudes_drifting):
    /// the sensor-drift value signature.
    bool drifting = false;

    /// At least kMinValueRounds value-error rounds: the job emits
    /// out-of-spec values.
    [[nodiscard]] bool value_symptomatic() const {
      return value_rounds >= kMinValueRounds;
    }
  };
  [[nodiscard]] JobFeatures job_features(platform::JobId j) const;

 private:
  struct ComponentFold {
    /// Episodes of credible sender rounds; the last entry may still be
    /// open (extendable by tail rounds).
    std::vector<Episode> sender_eps;
    /// Episodes of observer rounds, with the correlation verdict for each
    /// *closed* episode (the open one is judged at read time).
    std::vector<Episode> observer_eps;
    std::vector<bool> observer_hit;
    /// How many leading entries of each episode list are closed.
    std::size_t sender_closed = 0;
    std::size_t observer_closed = 0;
    VerdictTotals totals;
    /// Alpha accumulator valued at the fold horizon.
    double alpha_at_horizon = 0.0;
  };

  /// First round not yet folded.
  [[nodiscard]] tta::RoundId tail_start() const {
    return horizon_ == 0 ? 0 : horizon_ + 1;
  }
  /// True when >= kObserverQuorum credible observers reported the subject
  /// of `sr` in round `r`.
  [[nodiscard]] bool credible_round(tta::RoundId r,
                                    const SubjectRound& sr) const;
  /// Whether one observer episode of `c` coincides with an observer-round
  /// of a spatially proximate component.
  [[nodiscard]] bool episode_correlated(platform::ComponentId c,
                                        const Episode& e) const;
  /// Folds rounds [tail_start(), to] of `c` (the caller then moves the
  /// horizon to `to`).
  void fold_component(platform::ComponentId c, tta::RoundId to) const;
  void rebuild(tta::RoundId now) const;

  const EvidenceStore* store_;
  FeatureParams fp_;
  std::uint32_t component_count_;
  fault::SpatialLayout layout_;
  mutable tta::RoundId horizon_ = 0;
  mutable bool dirty_ = false;
  mutable std::uint64_t rebuilds_ = 0;
  mutable std::vector<ComponentFold> folds_;
};

}  // namespace decos::diag
