// Out-of-Norm Assertions (Section V-A).
//
// "We define an Out-of-Norm Assertion as a predicate on the distributed
// system state that encodes a fault pattern in the value, time and space
// domain. ONAs are deterministically triggered whenever all symptoms of a
// particular fault pattern are detected on the distributed state."
//
// This module gives the concept a first-class, declarative form: an ONA
// is a named conjunction of per-dimension conditions over the subject's
// component features; the standard library expresses the Fig. 8 patterns
// (and the rest of the taxonomy) as ONA objects. The OnaEngine evaluates
// the whole rule base for a subject FRU and reports every triggered
// assertion — the DECOS architecture's explainable front-end to the rule
// classifier. The conditions read the same EvidenceSummary features as the
// classifier's verdict, and share its Fig. 8 predicates and thresholds, so
// an asserted pattern and the verdict next to it never rest on different
// evidence.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "diag/features.hpp"
#include "diag/summary.hpp"
#include "fault/taxonomy.hpp"

namespace decos::diag {

/// Everything a condition may look at: the subject FRU and its features
/// as the evidence summary reads them at the sparse-time "now".
struct OnaContext {
  platform::ComponentId subject;
  const EvidenceSummary::ComponentFeatures& features;
  tta::RoundId now;
};

using OnaCondition = std::function<bool(const OnaContext&)>;

class OutOfNormAssertion {
 public:
  OutOfNormAssertion(std::string name, fault::FaultClass indicates,
                     std::vector<OnaCondition> all_of)
      : name_(std::move(name)), indicates_(indicates),
        conditions_(std::move(all_of)) {}

  /// Triggered iff every condition holds on the context ("all symptoms of
  /// the fault pattern are detected").
  [[nodiscard]] bool triggered(const OnaContext& ctx) const {
    for (const auto& cond : conditions_) {
      if (!cond(ctx)) return false;
    }
    return !conditions_.empty();
  }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] fault::FaultClass indicates() const { return indicates_; }

 private:
  std::string name_;
  fault::FaultClass indicates_;
  std::vector<OnaCondition> conditions_;
};

/// Condition library, grouped by Fig. 8 dimension. All operate on the
/// subject of the context.
namespace conditions {

// --- time dimension ------------------------------------------------------
/// At least `n` sender-side episodes.
[[nodiscard]] OnaCondition sender_episode_count_at_least(std::size_t n);
/// At most `n` sender-side episodes (and at least one).
[[nodiscard]] OnaCondition sender_episode_count_at_most(std::size_t n);
/// Episode rate increasing (wearout time signature).
[[nodiscard]] OnaCondition sender_rate_increasing();
/// The latest sender episode is a dense, still-ongoing run of at least
/// EvidenceSummary::kPermanentOmissionRounds rounds (permanent fault time
/// signature).
[[nodiscard]] OnaCondition sender_dense_tail();
/// At least `n` observer-side (receive-path) episodes.
[[nodiscard]] OnaCondition observer_episode_count_at_least(std::size_t n);

// --- space dimension -------------------------------------------------------
/// Observer-side episodes coincide with receive-path trouble at spatially
/// proximate components (massive-transient space signature).
[[nodiscard]] OnaCondition observers_spatially_correlated();
/// The negation: only this component's receive path is disturbed.
[[nodiscard]] OnaCondition observers_isolated();
/// No credible sender-side evidence exists (the component transmits
/// correctly; trouble is on its receive side only).
[[nodiscard]] OnaCondition no_sender_evidence();

// --- value dimension ----------------------------------------------------------
/// Dominant transport verdict over quorum rounds.
[[nodiscard]] OnaCondition dominant_omission();
[[nodiscard]] OnaCondition dominant_timing();
[[nodiscard]] OnaCondition dominant_corruption();

}  // namespace conditions

class OnaEngine {
 public:
  void add(OutOfNormAssertion ona) { rules_.push_back(std::move(ona)); }

  [[nodiscard]] const std::vector<OutOfNormAssertion>& rules() const {
    return rules_;
  }

  /// Every assertion triggered for the context's subject.
  [[nodiscard]] std::vector<const OutOfNormAssertion*> evaluate(
      const OnaContext& ctx) const;

  /// The standard rule base: the three Fig. 8 patterns plus the permanent
  /// and quartz patterns of the component fault model.
  [[nodiscard]] static OnaEngine standard_rules();

 private:
  std::vector<OutOfNormAssertion> rules_;
};

}  // namespace decos::diag
