// The exact O(window) feature walks over the evidence store — the test
// oracle of the incremental EvidenceSummary (diag/summary.hpp), which is
// the only feature source of the classifier and the ONAs. Each walk
// re-scans the full per-round detail, so it is correct by inspection and
// never used outside tests.
#pragma once

#include <cstdint>
#include <vector>

#include "diag/evidence.hpp"
#include "diag/features.hpp"
#include "diag/summary.hpp"
#include "fault/injector.hpp"
#include "platform/types.hpp"

namespace decos::diag {

/// Rounds in which >= kObserverQuorum *credible* observers reported
/// component `c` as a faulty sender. An observer flagging >= sender_spread
/// senders in the same round is self-suspect and does not count.
[[nodiscard]] std::vector<tta::RoundId> credible_sender_rounds(
    const EvidenceStore& ev, platform::ComponentId c, const FeatureParams& p);

/// Episodes of the above.
[[nodiscard]] std::vector<Episode> sender_episodes(const EvidenceStore& ev,
                                                   platform::ComponentId c,
                                                   const FeatureParams& p);

/// Rounds in which component `c` itself reported >= sender_spread senders
/// (its receive path is the common factor).
[[nodiscard]] std::vector<tta::RoundId> observer_rounds(
    const EvidenceStore& ev, platform::ComponentId c, const FeatureParams& p);

[[nodiscard]] std::vector<Episode> observer_episodes(const EvidenceStore& ev,
                                                     platform::ComponentId c,
                                                     const FeatureParams& p);

/// Whether episode `e` of `c` coincides (within kCorrelationDelta) with an
/// observer-round of a spatially proximate component.
[[nodiscard]] bool episode_correlated(const EvidenceStore& ev,
                                      platform::ComponentId c,
                                      const Episode& e,
                                      const fault::SpatialLayout& layout,
                                      std::uint32_t component_count,
                                      const FeatureParams& p);

/// A majority of `eps` (episodes of `c`) is correlated as above.
[[nodiscard]] bool spatially_correlated(const EvidenceStore& ev,
                                        platform::ComponentId c,
                                        const std::vector<Episode>& eps,
                                        const fault::SpatialLayout& layout,
                                        std::uint32_t component_count,
                                        const FeatureParams& p);

/// Per-verdict totals over quorum rounds about `c`.
[[nodiscard]] VerdictTotals verdict_totals(const EvidenceStore& ev,
                                           platform::ComponentId c);

/// Alpha-count score over the credible sender rounds of `c`: each round
/// at or before `now` contributes EvidenceSummary::kAlphaDecay^(now -
/// round).
[[nodiscard]] double alpha_score(const EvidenceStore& ev,
                                 platform::ComponentId c, tta::RoundId now,
                                 const FeatureParams& p);

/// Every field of EvidenceSummary::ComponentFeatures, computed by the
/// walks above.
[[nodiscard]] EvidenceSummary::ComponentFeatures exact_component_features(
    const EvidenceStore& ev, platform::ComponentId c, tta::RoundId now,
    const FeatureParams& p, const fault::SpatialLayout& layout,
    std::uint32_t component_count);

}  // namespace decos::diag
