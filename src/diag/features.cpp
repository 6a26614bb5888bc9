#include "diag/features.hpp"

#include <cmath>

namespace decos::diag {

std::vector<Episode> episodes_of(const std::vector<tta::RoundId>& rounds,
                                 tta::RoundId gap) {
  std::vector<Episode> eps;
  for (tta::RoundId r : rounds) extend_episodes(eps, r, gap);
  return eps;
}

namespace {
/// Episodes needed before a rate-trend test is meaningful.
constexpr std::size_t kMinEpisodesForTrend = 4;
/// Mean-gap shrink factor (late vs early) that indicates wearout.
constexpr double kWearoutGapRatio = 0.7;
}  // namespace

bool rate_increasing(const std::vector<Episode>& eps) {
  if (eps.size() < kMinEpisodesForTrend) return false;
  // Gap i separates episodes i and i + 1.
  const std::size_t gaps = eps.size() - 1;
  auto gap = [&eps](std::size_t i) {
    return static_cast<double>(eps[i + 1].first - eps[i].last);
  };
  const std::size_t half = gaps / 2;
  if (half == 0) return false;
  double early = 0, late = 0;
  for (std::size_t i = 0; i < half; ++i) early += gap(i);
  for (std::size_t i = gaps - half; i < gaps; ++i) late += gap(i);
  early /= static_cast<double>(half);
  late /= static_cast<double>(half);
  return early > 0 && late < early * kWearoutGapRatio;
}

bool magnitudes_drifting(std::span<const double> mags) {
  if (mags.size() < 8) return false;
  const std::size_t bucket = mags.size() / 4;
  double mean[4] = {};
  for (std::size_t b = 0; b < 4; ++b) {
    for (std::size_t i = b * bucket; i < (b + 1) * bucket; ++i) {
      mean[b] += mags[i];
    }
    mean[b] /= static_cast<double>(bucket);
  }
  return mean[1] >= 0.9 * mean[0] && mean[2] >= 0.9 * mean[1] &&
         mean[3] >= 0.9 * mean[2] && mean[3] >= 1.8 * mean[0];
}

BitErrorFeatures bit_error_features(const fault::BitFaultLog& log,
                                    platform::ComponentId c) {
  BitErrorFeatures f;
  bool any = false;
  tta::RoundId first = 0;
  tta::RoundId last = 0;
  tta::RoundId prev = 0;
  // Runs of consecutive affected rounds (the log is time-ordered, so a
  // component's rounds arrive non-decreasing).
  std::uint64_t runs = 0;
  std::uint64_t run_rounds = 0;
  std::uint64_t bins[8] = {};

  for (const fault::BitFlipRecord& r : log.records()) {
    if (r.component != c) continue;
    ++f.flips;
    if (!any) {
      any = true;
      first = last = prev = r.round;
      ++f.events;
      ++runs;
      ++run_rounds;
    } else if (r.round != prev) {
      ++f.events;
      ++run_rounds;
      if (r.round != prev + 1) ++runs;  // gap: a new burst begins
      prev = r.round;
      if (r.round > last) last = r.round;
    }
    if (r.payload_bits > 0) {
      const std::uint64_t bin = std::uint64_t{8} * r.bit / r.payload_bits;
      ++bins[bin < 8 ? bin : 7];
    }
  }
  if (!any) return f;

  f.span_rounds = last - first + 1;
  f.flips_per_event =
      static_cast<double>(f.flips) / static_cast<double>(f.events);
  f.mean_burst_len =
      static_cast<double>(run_rounds) / static_cast<double>(runs);

  double entropy = 0.0;
  for (const std::uint64_t b : bins) {
    if (b == 0) continue;
    const double p = static_cast<double>(b) / static_cast<double>(f.flips);
    entropy -= p * std::log2(p);
  }
  f.position_entropy = entropy / 3.0;  // log2(8) = 3 -> normalized [0,1]

  // Late-vs-early flip rate over the affected span.
  const tta::RoundId mid = first + (last - first) / 2;
  std::uint64_t early = 0;
  std::uint64_t late = 0;
  for (const fault::BitFlipRecord& r : log.records()) {
    if (r.component != c) continue;
    (r.round <= mid ? early : late) += 1;
  }
  f.late_early_rate_ratio =
      early == 0 ? static_cast<double>(late)
                 : static_cast<double>(late) / static_cast<double>(early);
  return f;
}

const char* to_string(BitArchetype a) {
  switch (a) {
    case BitArchetype::kNone: return "none";
    case BitArchetype::kWearout: return "wearout";
    case BitArchetype::kEmiBurst: return "emi-burst";
    case BitArchetype::kSeuShower: return "seu-shower";
  }
  return "?";
}

BitArchetype classify_bit_pattern(const BitErrorFeatures& f) {
  if (f.flips == 0) return BitArchetype::kNone;
  // A shower confined to (nearly) one round can only be an SEU. The
  // tolerance covers the value-domain tail: a stored-value upset armed
  // during the shower surfaces on the first *clean* vnet delivery, which
  // lands one round after the rx window when the shower corrupted every
  // frame inside it. An EMI window is >= 4 rounds before its first gap.
  if (f.span_rounds <= 3) return BitArchetype::kSeuShower;
  // A rising rate across a long span is the wearout signature; an EMI
  // window's rate is flat over its bounded duration.
  if (f.late_early_rate_ratio >= 1.8) return BitArchetype::kWearout;
  return BitArchetype::kEmiBurst;
}

}  // namespace decos::diag
