#include "diag/ona.hpp"

#include <iterator>

namespace decos::diag {
namespace {

struct OnaInfo {
  const char* name;
  fault::FaultClass indicates;
};

constexpr OnaInfo kOnas[] = {
    {"wearout", fault::FaultClass::kComponentInternal},
    {"massive-transient", fault::FaultClass::kComponentExternal},
    {"connector", fault::FaultClass::kComponentBorderline},
    {"permanent-silence", fault::FaultClass::kComponentInternal},
    {"clock-defect", fault::FaultClass::kComponentInternal},
    {"isolated-transient", fault::FaultClass::kComponentExternal},
    {"diagnostic-channel-degraded", fault::FaultClass::kNone},
    {"tmr-redundancy-lost", fault::FaultClass::kNone},
    {"maintenance-degraded", fault::FaultClass::kNone},
};
static_assert(std::size(kOnas) == kOnaCount);

}  // namespace

const char* to_string(Ona o) { return kOnas[static_cast<std::size_t>(o)].name; }

fault::FaultClass indicates(Ona o) {
  return kOnas[static_cast<std::size_t>(o)].indicates;
}

std::vector<Ona> pattern_onas(const EvidenceSummary::ComponentFeatures& f,
                              tta::RoundId now) {
  const VerdictTotals& vt = f.totals;
  const bool senders = !f.sender_eps.empty();
  const bool tail = f.sender_dense_tail(now);
  std::vector<Ona> out;
  // Fig. 8 column 1: increasing episode frequency, one component, value
  // corruption.
  if (rate_increasing(f.sender_eps) && vt.corruption_dominant()) {
    out.push_back(Ona::kWearout);
  }
  // Fig. 8 column 2: proximate components' receive paths disturbed at
  // (about) the same time, sender side clean.
  if (!f.observer_eps.empty() && f.observers_correlated() && !senders) {
    out.push_back(Ona::kMassiveTransient);
  }
  // Fig. 8 column 3: recurring receive-path errors on exactly one
  // component, arbitrary in time.
  if (f.observer_eps.size() >= 3 && !f.observers_correlated() && !senders) {
    out.push_back(Ona::kConnector);
  }
  // Permanent hardware death: a dense continuous omission tail.
  if (tail && vt.omission_dominant()) out.push_back(Ona::kPermanentSilence);
  // Oscillator defect: persistent timing violations.
  if (tail && vt.timing_dominant()) out.push_back(Ona::kClockDefect);
  // Single external hit (SEU-like): brief sender-side episode(s) without
  // recurrence.
  if (senders && f.sender_eps.size() <= 2) {
    out.push_back(Ona::kIsolatedTransient);
  }
  return out;
}

}  // namespace decos::diag
