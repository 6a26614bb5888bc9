#include "diag/classifier.hpp"

#include <iterator>

namespace decos::diag {
namespace {

/// Episode count at which recurrence alone implies an internal
/// intermittent fault even without a clean rising trend.
constexpr std::size_t kRecurrenceThreshold = 8;
/// Alpha-count threshold (the §V-C discriminator): a decayed sum over the
/// component's credible symptomatic rounds above this also marks the
/// fault internal intermittent. Catches dense recurrence that the episode
/// counter under-counts when episodes merge.
constexpr double kAlphaThreshold = 40.0;
/// Queue overflows needed to call a configuration fault.
constexpr std::uint64_t kOverflowThreshold = 10;

/// The rationale of every rule but kDisseminated, indexed by Rule.
constexpr const char* kRationales[] = {
    "recurring out-of-window transmission attempts blocked by the bus "
    "guardian (babbling controller)",
    "continuous omission: component silent (permanent hardware failure)",
    "persistent timing violations (clock/oscillator defect)",
    "transient episodes with increasing frequency at one component "
    "(wearout signature)",
    "recurring transient episodes at the same component (internal "
    "intermittent fault)",
    "alpha-count over threshold: transient failures recur at this "
    "component far above the ambient rate",
    "isolated transient episode(s), no recurrence trend (external "
    "disturbance)",
    "receive-path disturbance correlated with spatially proximate "
    "components (massive transient / EMI)",
    "recurring receive-path errors on this component only "
    "(connector/harness fault)",
    "isolated receive-path episode on this component (external transient)",
    "no out-of-norm evidence",
    "job conforms to its LIF specification",
    "job-external: symptoms explained by host component hardware fault",
    "multiple jobs of this component emit out-of-spec values "
    "(component-internal hardware fault)",
    "the job's own model-based plausibility check indicts its transducer "
    "(application assertion)",
    "increasing deviation from specified value range (sensor drift/wearout "
    "signature)",
    "erratic out-of-spec values from one job only (software design fault)",
    "queue overflows while the job meets its value spec (virtual-network "
    "configuration fault)",
    "job stopped sending although its component is operational (software "
    "crash)",
};
static_assert(std::size(kRationales) ==
              static_cast<std::size_t>(Rule::kDisseminated));

}  // namespace

std::string rationale(const Diagnosis& d) {
  if (d.rule == Rule::kDisseminated) {
    return "disseminated verdict (origin position " +
           std::to_string(d.origin) + ", round " + std::to_string(d.round) +
           ")";
  }
  return kRationales[static_cast<std::size_t>(d.rule)];
}

Diagnosis Classifier::classify(const EvidenceSummary::ComponentFeatures& f,
                               tta::RoundId now) const {
  // Star-coupler evidence first: recurring guardian blocks mean the
  // component attempts transmissions outside its windows — a babbling
  // controller defect that the containment makes invisible in the
  // transport verdicts.
  if (f.guardian_episodes >= 3 || f.guardian_blocks >= 20) {
    return {fault::FaultClass::kComponentInternal,
            fault::Persistence::kPermanent, 0.9, Rule::kGuardian};
  }

  const auto& sender_eps = f.sender_eps;
  const auto& observer_eps = f.observer_eps;

  Diagnosis sender_diag;  // defaults to kNone
  if (!sender_eps.empty()) {
    const VerdictTotals& vt = f.totals;
    const bool dense_tail = f.sender_dense_tail(now);

    if (dense_tail && vt.omission_dominant()) {
      sender_diag = {fault::FaultClass::kComponentInternal,
                     fault::Persistence::kPermanent, 0.95,
                     Rule::kPermanentOmission};
    } else if (dense_tail && vt.timing_dominant()) {
      sender_diag = {fault::FaultClass::kComponentInternal,
                     fault::Persistence::kPermanent, 0.9, Rule::kTiming};
    } else if (rate_increasing(sender_eps)) {
      sender_diag = {fault::FaultClass::kComponentInternal,
                     fault::Persistence::kIntermittent, 0.85, Rule::kWearout};
    } else if (sender_eps.size() >= kRecurrenceThreshold) {
      sender_diag = {fault::FaultClass::kComponentInternal,
                     fault::Persistence::kIntermittent, 0.7, Rule::kRecurrence};
    } else if (f.alpha >= kAlphaThreshold) {
      sender_diag = {fault::FaultClass::kComponentInternal,
                     fault::Persistence::kIntermittent, 0.7, Rule::kAlpha};
    } else {
      sender_diag = {fault::FaultClass::kComponentExternal,
                     fault::Persistence::kTransient, 0.6,
                     Rule::kIsolatedSenderTransient};
    }
  }

  Diagnosis observer_diag;
  if (!observer_eps.empty()) {
    if (f.observers_correlated()) {
      observer_diag = {fault::FaultClass::kComponentExternal,
                       fault::Persistence::kTransient, 0.85,
                       Rule::kMassiveTransient};
    } else if (observer_eps.size() >= 3) {
      observer_diag = {fault::FaultClass::kComponentBorderline,
                       fault::Persistence::kIntermittent, 0.8,
                       Rule::kConnector};
    } else {
      observer_diag = {fault::FaultClass::kComponentExternal,
                       fault::Persistence::kTransient, 0.5,
                       Rule::kIsolatedObserverTransient};
    }
  }

  if (fault::replacement_severity(sender_diag.cls) >=
          fault::replacement_severity(observer_diag.cls) &&
      sender_diag.cls != fault::FaultClass::kNone) {
    return sender_diag;
  }
  if (observer_diag.cls != fault::FaultClass::kNone) return observer_diag;

  return {fault::FaultClass::kNone, fault::Persistence::kTransient, 1.0,
          Rule::kNoEvidence};
}

Diagnosis Classifier::classify_job(const EvidenceSummary::JobFeatures& f,
                                   const Diagnosis& host_diagnosis,
                                   std::size_t symptomatic_siblings,
                                   tta::RoundId now) const {
  const bool has_value = f.value_symptomatic();
  const bool has_overflow = f.overflow_count >= kOverflowThreshold;

  if (!has_value && !has_overflow && !f.last_gap) {
    return {fault::FaultClass::kNone, fault::Persistence::kTransient, 1.0,
            Rule::kJobConforms};
  }

  // Fig. 10: if the hosting component is internally faulty, every job on
  // it misbehaves — the job's symptoms are *job external* and the FRU to
  // act on is the component.
  if (host_diagnosis.cls == fault::FaultClass::kComponentInternal) {
    return {fault::FaultClass::kComponentInternal, host_diagnosis.persistence,
            host_diagnosis.confidence, Rule::kJobHostFault};
  }

  if (has_value) {
    // Correlated siblings on the same component => hardware, not this job.
    if (symptomatic_siblings >= 1) {
      return {fault::FaultClass::kComponentInternal,
              fault::Persistence::kIntermittent, 0.75, Rule::kJobSiblings};
    }

    // Job-internal evidence first (Section III-D: transducer vs software
    // cannot be told apart from the interface alone — but a model-based
    // application assertion is exactly the internal information that can).
    if (f.transducer_suspect_rounds >= EvidenceSummary::kMinValueRounds) {
      return {fault::FaultClass::kJobInherentTransducer,
              fault::Persistence::kPermanent, 0.9,
              Rule::kJobTransducerAssertion};
    }
    if (f.drifting) {
      return {fault::FaultClass::kJobInherentTransducer,
              fault::Persistence::kPermanent, 0.8, Rule::kJobDrift};
    }
    return {fault::FaultClass::kJobInherentSoftware,
            fault::Persistence::kIntermittent, 0.75, Rule::kJobSoftware};
  }

  if (has_overflow) {
    return {fault::FaultClass::kJobBorderline, fault::Persistence::kPermanent,
            0.8, Rule::kJobConfiguration};
  }

  // Gaps only: the job went silent while its component stayed healthy.
  const bool recent = *f.last_gap + 4 * kEpisodeGap >= now;
  return {fault::FaultClass::kJobInherentSoftware,
          recent ? fault::Persistence::kPermanent
                 : fault::Persistence::kTransient,
          0.7, Rule::kJobCrash};
}

}  // namespace decos::diag
