#include "diag/ona.hpp"

namespace decos::diag {
namespace conditions {

OnaCondition sender_episode_count_at_least(std::size_t n) {
  return [n](const OnaContext& ctx) {
    return ctx.features.sender_eps.size() >= n;
  };
}

OnaCondition sender_episode_count_at_most(std::size_t n) {
  return [n](const OnaContext& ctx) {
    const auto& eps = ctx.features.sender_eps;
    return !eps.empty() && eps.size() <= n;
  };
}

OnaCondition sender_rate_increasing() {
  return [](const OnaContext& ctx) {
    return rate_increasing(ctx.features.sender_eps);
  };
}

OnaCondition sender_dense_tail() {
  return [](const OnaContext& ctx) {
    return ctx.features.sender_dense_tail(ctx.now);
  };
}

OnaCondition observer_episode_count_at_least(std::size_t n) {
  return [n](const OnaContext& ctx) {
    return ctx.features.observer_eps.size() >= n;
  };
}

OnaCondition observers_spatially_correlated() {
  return [](const OnaContext& ctx) {
    return ctx.features.observers_correlated();
  };
}

OnaCondition observers_isolated() {
  return [](const OnaContext& ctx) {
    return !ctx.features.observer_eps.empty() &&
           !ctx.features.observers_correlated();
  };
}

OnaCondition no_sender_evidence() {
  return [](const OnaContext& ctx) {
    return ctx.features.sender_eps.empty();
  };
}

OnaCondition dominant_omission() {
  return [](const OnaContext& ctx) {
    return ctx.features.totals.omission_dominant();
  };
}

OnaCondition dominant_timing() {
  return [](const OnaContext& ctx) {
    return ctx.features.totals.timing_dominant();
  };
}

OnaCondition dominant_corruption() {
  return [](const OnaContext& ctx) {
    return ctx.features.totals.corruption_dominant();
  };
}

}  // namespace conditions

std::vector<const OutOfNormAssertion*> OnaEngine::evaluate(
    const OnaContext& ctx) const {
  std::vector<const OutOfNormAssertion*> out;
  for (const auto& rule : rules_) {
    if (rule.triggered(ctx)) out.push_back(&rule);
  }
  return out;
}

OnaEngine OnaEngine::standard_rules() {
  using namespace conditions;
  OnaEngine engine;
  // Fig. 8 column 1: wearout — increasing episode frequency, one
  // component, value corruption.
  engine.add(OutOfNormAssertion(
      "wearout", fault::FaultClass::kComponentInternal,
      {sender_rate_increasing(), dominant_corruption()}));
  // Fig. 8 column 2: massive transient — multiple proximate components'
  // receive paths disturbed at (about) the same time, sender side clean.
  engine.add(OutOfNormAssertion(
      "massive-transient", fault::FaultClass::kComponentExternal,
      {observer_episode_count_at_least(1), observers_spatially_correlated(),
       no_sender_evidence()}));
  // Fig. 8 column 3: connector — recurring receive-path errors on exactly
  // one component, arbitrary in time.
  engine.add(OutOfNormAssertion(
      "connector", fault::FaultClass::kComponentBorderline,
      {observer_episode_count_at_least(3), observers_isolated(),
       no_sender_evidence()}));
  // Permanent hardware death: a dense continuous omission tail.
  engine.add(OutOfNormAssertion(
      "permanent-silence", fault::FaultClass::kComponentInternal,
      {sender_dense_tail(), dominant_omission()}));
  // Oscillator defect: persistent timing violations.
  engine.add(OutOfNormAssertion(
      "clock-defect", fault::FaultClass::kComponentInternal,
      {sender_dense_tail(), dominant_timing()}));
  // Single external hit (SEU-like): brief sender-side episode(s) without
  // recurrence.
  engine.add(OutOfNormAssertion(
      "isolated-transient", fault::FaultClass::kComponentExternal,
      {sender_episode_count_at_most(2)}));
  return engine;
}

}  // namespace decos::diag
