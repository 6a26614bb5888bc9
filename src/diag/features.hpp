// Feature vocabulary of the three Fig. 8 dimensions, shared by the rule
// classifier and the declarative Out-of-Norm Assertion library.
//
//   time  : symptomatic-round lists grouped into episodes; rate trends
//   space : credible-observer quorums (sender-side) vs sender spread
//           (observer-side); spatial correlation against the layout
//   value : dominant transport verdict; value-magnitude trends
//
// The per-component features themselves are computed in one place, the
// incremental EvidenceSummary (diag/summary.hpp); this header holds the
// value types, the fixed thresholds the summary, the classifier and the
// ONAs share, and the pure tests over them, plus the bit-level features
// over a fault::BitFaultLog slice.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "fault/injector.hpp"
#include "platform/types.hpp"
#include "tta/types.hpp"

namespace decos::diag {

/// A contiguous run of symptomatic rounds.
struct Episode {
  tta::RoundId first = 0;
  tta::RoundId last = 0;
  std::uint32_t rounds = 0;  // symptomatic rounds inside [first, last]

  bool operator==(const Episode&) const = default;
};

/// Adds symptomatic round `r`, not before the last round of `eps`: it
/// extends the last episode when within `gap` of it, else opens a new one.
inline void extend_episodes(std::vector<Episode>& eps, tta::RoundId r,
                            tta::RoundId gap) {
  if (!eps.empty() && r <= eps.back().last + gap) {
    eps.back().last = r;
    ++eps.back().rounds;
  } else {
    eps.push_back(Episode{r, r, 1});
  }
}

/// Groups symptomatic rounds (ascending) into episodes separated by > gap.
[[nodiscard]] std::vector<Episode> episodes_of(
    const std::vector<tta::RoundId>& symptomatic_rounds, tta::RoundId gap);

// The fixed Fig. 8 thresholds: one reading of the patterns, not a family
// of tunings, so no experiment varies them.

/// Distinct credible observers required before the *sender* is the
/// suspect side.
inline constexpr std::uint32_t kObserverQuorum = 2;
/// Rounds of silence separating two episodes.
inline constexpr tta::RoundId kEpisodeGap = 25;
/// Rounds of tolerance when matching episodes across components.
inline constexpr tta::RoundId kCorrelationDelta = 10;

/// The two feature parameters an experiment turns (E13 the sender-spread
/// bar, E3 the spatial radius), as Classifier::feature_params resolves them.
struct FeatureParams {
  /// Senders an observer must flag in one round for a receive-path
  /// (observer-side) round; also the self-suspicion bar for credibility.
  std::uint32_t sender_spread;
  /// Spatial distance within which correlated components count as
  /// proximate.
  double spatial_radius;
};

/// The auto-scaled sender-spread bar for a cluster of `component_count`
/// components: max(2, 3/4 of the other components). An observer flagging
/// that many senders in one round is itself the suspect. The bar must
/// scale with cluster size — with a fixed bar of 2, two *concurrent*
/// genuine sender faults would discredit every observer and blind the
/// sender-side analysis entirely.
[[nodiscard]] constexpr std::uint32_t auto_sender_spread(
    std::uint32_t component_count) {
  return std::max(2u, 3u * (std::max(component_count, 2u) - 1u) / 4u);
}

/// Late-vs-early mean episode gap shrinks below the wearout ratio.
[[nodiscard]] bool rate_increasing(const std::vector<Episode>& eps);

/// Per-verdict totals over the quorum rounds about one component.
struct VerdictTotals {
  std::uint64_t crc = 0;
  std::uint64_t timing = 0;
  std::uint64_t omission = 0;
  std::uint64_t quorum_rounds = 0;

  // Dominant transport verdict (Fig. 8's value dimension); never one
  // without a quorum round. Omission and corruption win ties, timing
  // must lead strictly.
  [[nodiscard]] bool omission_dominant() const {
    return quorum_rounds > 0 && omission >= crc && omission >= timing;
  }
  [[nodiscard]] bool timing_dominant() const {
    return quorum_rounds > 0 && timing > crc && timing > omission;
  }
  [[nodiscard]] bool corruption_dominant() const {
    return quorum_rounds > 0 && crc >= timing && crc >= omission;
  }

  bool operator==(const VerdictTotals&) const = default;
};

/// Bucket-mean drift test over a job's value-magnitude history: split into
/// four buckets; near-monotone growth with last >= 1.8 x first.
[[nodiscard]] bool magnitudes_drifting(std::span<const double> magnitudes);

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
