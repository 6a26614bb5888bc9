// Out-of-Norm Assertions (Section V-A).
//
// "We define an Out-of-Norm Assertion as a predicate on the distributed
// system state that encodes a fault pattern in the value, time and space
// domain. ONAs are deterministically triggered whenever all symptoms of a
// particular fault pattern are detected on the distributed state."
//
// The ONAs are a fixed table: six pattern ONAs, each one conjunction over
// a component's features (the Fig. 8 patterns and the permanent and quartz
// patterns of the component fault model), and three ONAs the service
// asserts from outside the features. The pattern ONAs read the same
// EvidenceSummary features as the classifier's verdict, and share its
// Fig. 8 predicates and thresholds, so an asserted pattern and the verdict
// next to it never rest on different evidence.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "diag/summary.hpp"
#include "fault/taxonomy.hpp"

namespace decos::diag {

enum class Ona : std::uint8_t {
  // --- pattern ONAs, in pattern_onas() order ---
  kWearout,
  kMassiveTransient,
  kConnector,
  kPermanentSilence,
  kClockDefect,
  kIsolatedTransient,
  // --- asserted by the service, not from the features ---
  /// The FRU's agent is silent: the row's verdict rests on stale data.
  kChannelDegraded,
  /// A TMR replica on this host was lost (scenario::Fig10System).
  kTmrRedundancyLost,
  /// The maintenance executor quarantined a repair on this FRU.
  kMaintenanceDegraded,
};
inline constexpr std::size_t kOnaCount = 9;

/// The ONA's name, as the report and the `ona=` metric label show it.
[[nodiscard]] const char* to_string(Ona o);
/// The fault class the ONA indicates; kNone for the three service ONAs.
[[nodiscard]] fault::FaultClass indicates(Ona o);

/// The pattern ONAs asserted on a component with features `f` at `now`,
/// in enumerator order. Takes the same inputs as Classifier::classify.
[[nodiscard]] std::vector<Ona> pattern_onas(
    const EvidenceSummary::ComponentFeatures& f, tta::RoundId now);

}  // namespace decos::diag
