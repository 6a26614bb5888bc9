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
// value the pattern ONAs read (diag/ona.hpp), and its Fig. 8 tests are
// the predicates that value and VerdictTotals carry. A job verdict is a
// pure function of one EvidenceSummary::JobFeatures value, its host
// component's verdict and the count of symptomatic sibling jobs on that
// host (Fig. 10). This class applies the decision rules and reads no
// evidence store. Each verdict names the Rule that produced it, and
// rationale() renders that rule as the text a service technician's
// display shows next to the trust level.
//
// The rules are one fixed reading of Fig. 8: every threshold is a constant
// beside the code that reads it (features.hpp, summary.hpp,
// classifier.cpp). Params keep the two an experiment turns: the
// sender-spread bar (E13) and the spatial radius (E3).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>

#include "diag/features.hpp"
#include "diag/summary.hpp"
#include "fault/taxonomy.hpp"
#include "platform/types.hpp"

namespace decos::diag {

/// The decision rule behind a verdict: one per return of
/// Classifier::classify (component rules) and Classifier::classify_job
/// (job rules), plus the verdict served second-hand from the
/// dissemination cache.
enum class Rule : std::uint8_t {
  // --- component rules ---
  kGuardian,
  kPermanentOmission,
  kTiming,
  kWearout,
  kRecurrence,
  kAlpha,
  kIsolatedSenderTransient,
  kMassiveTransient,
  kConnector,
  kIsolatedObserverTransient,
  kNoEvidence,
  // --- job rules ---
  kJobConforms,
  kJobHostFault,
  kJobSiblings,
  kJobTransducerAssertion,
  kJobDrift,
  kJobSoftware,
  kJobConfiguration,
  kJobCrash,
  // --- service ---
  kDisseminated,
};

struct Diagnosis {
  fault::FaultClass cls = fault::FaultClass::kNone;
  fault::Persistence persistence = fault::Persistence::kTransient;
  double confidence = 0.0;  // 0..1
  Rule rule = Rule::kNoEvidence;
  /// Cube position of the tester whose verdict this is, and the round it
  /// was emitted in; set for Rule::kDisseminated only.
  std::uint32_t origin = 0;
  tta::RoundId round = 0;
  [[nodiscard]] fault::MaintenanceAction action() const {
    return fault::action_for(cls);
  }
  bool operator==(const Diagnosis&) const = default;
};
static_assert(std::is_trivially_copyable_v<Diagnosis>);

/// The technician-facing text of the verdict's rule.
[[nodiscard]] std::string rationale(const Diagnosis& d);

class Classifier {
 public:
  /// The two thresholds an experiment turns; every other threshold is a
  /// constant beside the code that reads it.
  struct Params {
    /// Senders an observer must flag in one round to be considered
    /// self-suspect (its own receive path, not all those senders, is the
    /// likely culprit). 0 = auto_sender_spread() of the cluster size.
    std::uint32_t sender_spread = 0;
    /// Spatial distance within which correlated components count as
    /// proximate.
    double spatial_radius = 1.6;
  };

  explicit Classifier(Params p) : p_(p) {}

  /// Classifies one component FRU from its features at `now`, as read
  /// from a summary built with feature_params(). Reads nothing else: no
  /// evidence store, no walk.
  [[nodiscard]] Diagnosis classify(
      const EvidenceSummary::ComponentFeatures& f, tta::RoundId now) const;

  /// The feature parameters of the evidence summary this classifier reads
  /// for a cluster of `component_count` components, fully resolved
  /// (sender_spread auto-scaling applied). The one place they are
  /// resolved; the assessor and the ONAs read the summary's.
  [[nodiscard]] FeatureParams feature_params(
      std::uint32_t component_count) const {
    return {p_.sender_spread == 0 ? auto_sender_spread(component_count)
                                  : p_.sender_spread,
            p_.spatial_radius};
  }

  /// Classifies one job FRU from its features at `now`. Needs the host
  /// component's verdict (a component-internal fault explains away job
  /// symptoms as job-external) and how many other jobs on the same host
  /// are value_symptomatic() (Fig. 10).
  [[nodiscard]] Diagnosis classify_job(const EvidenceSummary::JobFeatures& f,
                                       const Diagnosis& host_diagnosis,
                                       std::size_t symptomatic_siblings,
                                       tta::RoundId now) const;

 private:
  Params p_;
};

}  // namespace decos::diag
