// Feature extraction over the evidence store — the measurable quantities
// of the three Fig. 8 dimensions, shared by the rule classifier and the
// declarative Out-of-Norm Assertion library.
//
//   time  : symptomatic-round lists grouped into episodes; rate trends
//   space : credible-observer quorums (sender-side) vs sender spread
//           (observer-side); spatial correlation against the layout
//   value : dominant transport verdict; value-magnitude trends
#pragma once

#include <cstdint>
#include <vector>

#include "diag/evidence.hpp"
#include "fault/injector.hpp"
#include "platform/types.hpp"

namespace decos::diag {

/// A contiguous run of symptomatic rounds.
struct Episode {
  tta::RoundId first = 0;
  tta::RoundId last = 0;
  std::uint32_t rounds = 0;  // symptomatic rounds inside [first, last]

  bool operator==(const Episode&) const = default;
};

/// Groups symptomatic rounds (ascending) into episodes separated by > gap.
[[nodiscard]] std::vector<Episode> episodes_of(
    const std::vector<tta::RoundId>& symptomatic_rounds, tta::RoundId gap);

struct FeatureParams {
  /// Distinct credible observers required before the *sender* is the
  /// suspect side.
  std::uint32_t observer_quorum = 2;
  /// Senders an observer must flag in one round for a receive-path
  /// (observer-side) round; also the self-suspicion bar for credibility.
  std::uint32_t sender_spread = 2;
  /// Rounds of silence separating two episodes.
  tta::RoundId episode_gap = 25;
  /// Episodes needed before a rate-trend test is meaningful.
  std::size_t min_episodes_for_trend = 4;
  /// Mean-gap shrink factor (late vs early) that indicates wearout.
  double wearout_gap_ratio = 0.7;
  /// Rounds of tolerance when matching episodes across components.
  tta::RoundId correlation_delta = 10;
  /// Spatial distance within which correlated components count as
  /// proximate.
  double spatial_radius = 1.6;

  bool operator==(const FeatureParams&) const = default;
};

/// Rounds in which >= quorum *credible* observers reported component `c`
/// as a faulty sender. An observer flagging >= sender_spread senders in
/// the same round is self-suspect and does not count.
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

/// Late-vs-early mean episode gap shrinks below the wearout ratio.
[[nodiscard]] bool rate_increasing(const std::vector<Episode>& eps,
                                   const FeatureParams& p);

/// Some episode of `c` coincides (within delta) with an observer-round of
/// a spatially proximate component.
[[nodiscard]] bool spatially_correlated(const EvidenceStore& ev,
                                        platform::ComponentId c,
                                        const std::vector<Episode>& eps,
                                        const fault::SpatialLayout& layout,
                                        std::uint32_t component_count,
                                        const FeatureParams& p);

/// Per-verdict totals over quorum rounds about `c`.
struct VerdictTotals {
  std::uint64_t crc = 0;
  std::uint64_t timing = 0;
  std::uint64_t omission = 0;
  std::uint64_t quorum_rounds = 0;

  bool operator==(const VerdictTotals&) const = default;
};
[[nodiscard]] VerdictTotals verdict_totals(const EvidenceStore& ev,
                                           platform::ComponentId c,
                                           const FeatureParams& p);

/// Bucket-mean drift test over a job's value-magnitude history: split into
/// four buckets; near-monotone growth with last >= 1.8 x first.
[[nodiscard]] bool magnitudes_drifting(const std::vector<double>& magnitudes);

/// Alpha-count score (Bondavalli et al., the paper's §V-C discriminator)
/// computed over the credible sender rounds of `c`: each symptomatic
/// round contributes decay^(now - round). Rare uncorrelated transients
/// decay away; an internal fault recurring at the same location keeps the
/// score high. Equivalent to running reliability::AlphaCount over the
/// round history, evaluated lazily on the evidence store.
[[nodiscard]] double alpha_score(const EvidenceStore& ev,
                                 platform::ComponentId c, tta::RoundId now,
                                 const FeatureParams& p,
                                 double decay = 0.999);

// --- bit-level value-error features (Fig. 8's value dimension at bit
// granularity, computed over a fault::BitFaultLog slice) ---------------------

struct BitErrorFeatures {
  std::uint64_t flips = 0;   // logged flips attributed to the component
  std::uint64_t events = 0;  // distinct affected rounds
  /// Rounds between the first and last affected round, inclusive.
  tta::RoundId span_rounds = 0;
  /// Flip density: flips per affected round (shower/burst intensity).
  double flips_per_event = 0.0;
  /// Mean length of runs of *consecutive* affected rounds — an EMI window
  /// corrupts back-to-back rounds, wearout sprinkles isolated ones.
  double mean_burst_len = 0.0;
  /// Shannon entropy of the normalized bit positions (8 bins, in [0,1]).
  /// BER processes scatter uniformly (high); a stuck value-field flip
  /// concentrates (low).
  double position_entropy = 0.0;
  /// Flip rate in the late half of the span over the early half — the
  /// wearout discriminator (rising rate) against EMI's flat window.
  double late_early_rate_ratio = 0.0;
};

[[nodiscard]] BitErrorFeatures bit_error_features(const fault::BitFaultLog& log,
                                                  platform::ComponentId c);

/// The bit-level value-fault archetypes the features separate.
enum class BitArchetype : std::uint8_t {
  kNone = 0,
  kWearout,    // rising flip rate over many scattered episodes
  kEmiBurst,   // bounded dense window of consecutive corrupted rounds
  kSeuShower,  // a single-round (or near) shower
};
[[nodiscard]] const char* to_string(BitArchetype a);

/// Rule classifier over the bit features (thresholds documented inline).
[[nodiscard]] BitArchetype classify_bit_pattern(const BitErrorFeatures& f);

}  // namespace decos::diag
