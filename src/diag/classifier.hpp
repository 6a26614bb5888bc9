// The classification engine — reverses the fault-error-failure chain down
// to a FRU-level fault class (Section III-B), by evaluating the fault
// patterns of Fig. 8 over the distributed state in the three dimensions:
//
//   time   — single episode vs recurring vs *increasing* rate (wearout) vs
//            continuous (permanent);
//   space  — one component vs multiple components in spatial proximity
//            (massive transient), sender-side vs receiver-side asymmetry
//            (connector), one job vs all jobs of a component (Fig. 10);
//   value  — CRC corruption vs timing deviation vs semantic out-of-range
//            vs slow drift (transducer wearout).
//
// A component verdict is a pure function of one
// EvidenceSummary::ComponentFeatures value (diag/summary.hpp), the same
// value the declarative ONA library evaluates, and its Fig. 8 tests are
// the predicates that value and VerdictTotals carry; this class applies
// the decision rules. Each rule produces the class plus a human-readable
// rationale — what a service technician's display shows next to the
// trust level.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "diag/evidence.hpp"
#include "diag/features.hpp"
#include "diag/summary.hpp"
#include "fault/injector.hpp"
#include "fault/taxonomy.hpp"
#include "platform/types.hpp"

namespace decos::diag {

struct Diagnosis {
  fault::FaultClass cls = fault::FaultClass::kNone;
  fault::Persistence persistence = fault::Persistence::kTransient;
  double confidence = 0.0;  // 0..1
  std::string rationale;
  [[nodiscard]] fault::MaintenanceAction action() const {
    return fault::action_for(cls);
  }
};

class Classifier {
 public:
  struct Params {
    // Feature-extraction thresholds (see FeatureParams for semantics).
    std::uint32_t observer_quorum = 2;
    /// Senders an observer must flag in one round to be considered
    /// self-suspect (its own receive path, not all those senders, is the
    /// likely culprit). 0 = auto_sender_spread() of the cluster size.
    std::uint32_t sender_spread = 0;
    tta::RoundId episode_gap = 25;
    std::size_t min_episodes_for_trend = 4;
    double wearout_gap_ratio = 0.7;
    tta::RoundId correlation_delta = 10;
    double spatial_radius = 1.6;
    /// Rounds of continuous omission that mean a dead (permanent) FRU.
    tta::RoundId permanent_omission_rounds = 200;
    /// Episode count at which recurrence alone implies an internal
    /// intermittent fault even without a clean rising trend.
    std::size_t recurrence_threshold = 8;
    /// Alpha-count threshold (the §V-C discriminator): a decayed sum over
    /// the component's credible symptomatic rounds above this also marks
    /// the fault internal intermittent. Catches dense recurrence that the
    /// episode counter under-counts when episodes merge.
    double alpha_threshold = 40.0;
    double alpha_decay = 0.999;
    /// Job value-error rounds needed before judging a job at all.
    std::size_t min_value_rounds = 3;
    /// Queue overflows needed to call a configuration fault.
    std::uint64_t overflow_threshold = 10;

    [[nodiscard]] FeatureParams features() const {
      return FeatureParams{observer_quorum, sender_spread,    episode_gap,
                           min_episodes_for_trend, wearout_gap_ratio,
                           correlation_delta,      spatial_radius};
    }
  };

  Classifier(Params p, fault::SpatialLayout layout)
      : p_(p), layout_(std::move(layout)) {}

  /// Classifies one component FRU from its features at `now`, as read
  /// from a summary this classifier built (summarize()). Reads nothing
  /// else: no evidence store, no walk.
  [[nodiscard]] Diagnosis classify(
      const EvidenceSummary::ComponentFeatures& f, tta::RoundId now) const;

  /// The evidence summary this classifier reads for a cluster of
  /// `component_count` components over `ev` (not owned; must outlive the
  /// summary): feature parameters fully resolved (sender_spread
  /// auto-scaling applied), alpha decay and spatial layout from here.
  /// The one place feature parameters are resolved; the ONAs read the
  /// summary's.
  [[nodiscard]] EvidenceSummary summarize(const EvidenceStore& ev,
                                          std::uint32_t component_count) const {
    FeatureParams fp = p_.features();
    if (fp.sender_spread == 0) {
      fp.sender_spread = auto_sender_spread(component_count);
    }
    return EvidenceSummary(&ev, fp, p_.alpha_decay, component_count, layout_);
  }

  /// Classifies one job FRU. Needs the host component's diagnosis (a
  /// component-internal fault explains away job symptoms as job-external)
  /// and the sibling jobs on the same component (Fig. 10).
  [[nodiscard]] Diagnosis classify_job(
      const EvidenceStore& ev, platform::JobId j,
      const Diagnosis& host_diagnosis,
      const std::vector<platform::JobId>& siblings, tta::RoundId now) const;

  [[nodiscard]] const Params& params() const { return p_; }
  [[nodiscard]] const fault::SpatialLayout& layout() const { return layout_; }

 private:
  Params p_;
  fault::SpatialLayout layout_;
};

}  // namespace decos::diag
