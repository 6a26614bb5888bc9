#include "scenario/bitfault.hpp"

#include "obs/provenance.hpp"
#include "scenario/campaign.hpp"

namespace decos::scenario {
namespace {

sim::SimTime ms(std::int64_t v) { return sim::SimTime{0} + sim::milliseconds(v); }

/// Everything one run yields; merged archetype-major into the rows.
struct RunOutcome {
  fault::FaultClass predicted = fault::FaultClass::kNone;
  diag::BitArchetype bit = diag::BitArchetype::kNone;
  diag::BitErrorFeatures features;
  std::uint64_t flips = 0;
  std::uint64_t orphan_flips = 0;
  std::uint64_t log_dropped = 0;
};

}  // namespace

std::vector<BitArchetypeSpec> bitfault_archetypes(double emi_ber,
                                                  fault::WearoutCurve wearout,
                                                  double seu_ber) {
  std::vector<BitArchetypeSpec> out;

  // The wearout curve ages past its wear onset inside the horizon, so the
  // sender's CRC episodes arrive at shrinking gaps — the classifier's
  // rate trend — while the flip log's late half dwarfs its early half.
  out.push_back(BitArchetypeSpec{
      "wearout-ber", fault::FaultClass::kComponentInternal,
      diag::BitArchetype::kWearout, sim::seconds(5), 1,
      [wearout](Fig10System& rig) {
        rig.injector().inject_wearout_ber(1, ms(300), wearout);
      }});

  // Same geometry as the legacy emi-bursts archetype: three short windows
  // hitting components 0..2 together, now as receiver-side BER flips.
  out.push_back(BitArchetypeSpec{
      "emi-bit-burst", fault::FaultClass::kComponentExternal,
      diag::BitArchetype::kEmiBurst, sim::seconds(4), 1,
      [emi_ber](Fig10System& rig) {
        rig.injector().inject_emi_bit_burst(1.0, 1.1, ms(600),
                                            sim::milliseconds(12), emi_ber);
        rig.injector().inject_emi_bit_burst(1.0, 1.1, ms(1500),
                                            sim::milliseconds(12), emi_ber);
        rig.injector().inject_emi_bit_burst(1.0, 1.1, ms(2700),
                                            sim::milliseconds(12), emi_ber);
      }});

  out.push_back(BitArchetypeSpec{
      "seu-shower", fault::FaultClass::kComponentExternal,
      diag::BitArchetype::kSeuShower, sim::seconds(3), 3,
      [seu_ber](Fig10System& rig) {
        // A two-round window: the flip span stays within the <=2-round SEU
        // signature while the evidence (CRC-failed frames at the struck
        // receiver) doubles — enough for the message-level classifier on
        // every seed.
        rig.injector().inject_seu_shower(3, ms(500), seu_ber,
                                         /*value_flips=*/1,
                                         /*window_rounds=*/2);
      }});

  return out;
}

BitCampaignResult run_bitfault_campaign(
    const std::vector<BitArchetypeSpec>& specs,
    const std::vector<std::uint64_t>& seeds, Fig10Options base_options,
    unsigned jobs) {
  BitCampaignResult result;
  result.rows.reserve(specs.size());
  for (const BitArchetypeSpec& spec : specs) {
    BitCampaignResult::Row row;
    row.name = spec.name;
    result.rows.push_back(std::move(row));
  }

  run_grid(
      specs, seeds, jobs,
      [&base_options](const BitArchetypeSpec& spec, std::uint64_t seed) {
        Fig10Options opts = base_options;
        opts.seed = seed;
        // Every flip must be attributable to a journey; arm tracing so the
        // orphan count below is meaningful.
        opts.provenance = true;
        Fig10System rig(opts);
        spec.inject(rig);
        rig.run(spec.horizon);

        RunOutcome o;
        o.predicted =
            rig.diag().assessor().diagnose_component(spec.subject).cls;
        fault::BitFaultPlane& plane = rig.injector().bitfault_plane();
        o.features = diag::bit_error_features(plane.log(), spec.subject);
        o.bit = diag::classify_bit_pattern(o.features);
        o.log_dropped = plane.log().dropped();
        const obs::ProvenanceTracer& prov = rig.sim().provenance();
        for (const fault::BitFlipRecord& r : plane.log().records()) {
          ++o.flips;
          if (prov.journey_for_component(r.component) == obs::kNoJourney) {
            ++o.orphan_flips;
          }
        }
        return o;
      },
      [&](std::size_t i, const RunOutcome& o) {
        const BitArchetypeSpec& spec = specs[i];
        BitCampaignResult::Row& row = result.rows[i];
        ++row.runs;
        if (o.predicted == spec.truth) ++row.class_correct;
        if (o.bit == spec.bit_truth) ++row.bit_correct;
        row.flips += o.flips;
        row.orphan_flips += o.orphan_flips;
        row.log_dropped += o.log_dropped;
        row.mean_flips_per_event += o.features.flips_per_event;
        row.mean_burst_len += o.features.mean_burst_len;
        row.mean_position_entropy += o.features.position_entropy;
        row.mean_rate_ratio += o.features.late_early_rate_ratio;
      });
  for (BitCampaignResult::Row& row : result.rows) {
    if (row.runs == 0) continue;
    const double n = static_cast<double>(row.runs);
    row.mean_flips_per_event /= n;
    row.mean_burst_len /= n;
    row.mean_position_entropy /= n;
    row.mean_rate_ratio /= n;
  }
  return result;
}

}  // namespace decos::scenario
