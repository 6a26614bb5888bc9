// Bit-granular value-fault campaigns (E22).
//
// Three workload archetypes exercise the bit-fault plane end to end on the
// Fig. 10 rig: a bathtub-curve wearout BER on one sender, a spatially
// correlated EMI bit burst, and a single-round SEU shower with a stored-
// value upset. Each run scores two classifiers against the injector's
// ground truth: the taxonomy classifier (which FaultClass) and the
// bit-pattern classifier (which bit archetype the flip log exhibits) —
// the campaign is the evidence that the Fig. 8 value signatures are
// separable at bit granularity.
//
// Runs execute on the campaign grid (scenario/campaign.hpp: run_grid)
// with an ordered merge, so the result is bit-identical for every job
// count.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "diag/features.hpp"
#include "scenario/fig10.hpp"

namespace decos::scenario {

struct BitArchetypeSpec {
  std::string name;
  /// Taxonomy ground truth for the subject component.
  fault::FaultClass truth;
  /// Bit-pattern ground truth for the subject's flip log.
  diag::BitArchetype bit_truth;
  sim::Duration horizon;
  /// Component whose diagnosis and flip slice are scored.
  platform::ComponentId subject;
  std::function<void(Fig10System&)> inject;
};

/// The standard bit-fault catalogue: wearout-ber, emi-bit-burst,
/// seu-shower. The parameters are the bench-facing knobs (--ber,
/// --wearout): `emi_ber` drives the EMI and SEU receive samplers,
/// `wearout` is the tx-side aging curve.
[[nodiscard]] std::vector<BitArchetypeSpec> bitfault_archetypes(
    double emi_ber = 2e-3, fault::WearoutCurve wearout = {},
    double seu_ber = 5e-3);

struct BitCampaignResult {
  struct Row {
    std::string name;
    std::size_t runs = 0;
    std::size_t class_correct = 0;  // taxonomy classifier hits
    std::size_t bit_correct = 0;    // bit-pattern classifier hits
    std::uint64_t flips = 0;        // all flips logged across the rig
    std::uint64_t orphan_flips = 0;  // flips on components with no journey
    std::uint64_t log_dropped = 0;   // flip-log cap overflows
    // Mean bit features of the subject component across the runs.
    double mean_flips_per_event = 0.0;
    double mean_burst_len = 0.0;
    double mean_position_entropy = 0.0;
    double mean_rate_ratio = 0.0;
  };
  std::vector<Row> rows;

  [[nodiscard]] std::uint64_t total_flips() const {
    std::uint64_t t = 0;
    for (const Row& r : rows) t += r.flips;
    return t;
  }
  [[nodiscard]] std::uint64_t total_orphans() const {
    std::uint64_t t = 0;
    for (const Row& r : rows) t += r.orphan_flips;
    return t;
  }
};

/// Runs every archetype across the seeds on run_grid (one fresh,
/// provenance-enabled Fig10System per run) on up to `jobs` workers.
[[nodiscard]] BitCampaignResult run_bitfault_campaign(
    const std::vector<BitArchetypeSpec>& specs,
    const std::vector<std::uint64_t>& seeds, Fig10Options base_options = {},
    unsigned jobs = 0);

}  // namespace decos::scenario
