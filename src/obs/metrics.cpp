#include "obs/metrics.hpp"

#include <algorithm>
#include <chrono>

namespace decos::obs {

namespace detail {

// thread_local: unbound handles can be exercised from experiment-engine
// worker threads (src/exec/), and a process-wide sink would make every
// discarded write a data race. A per-thread sink keeps the discard path
// race-free without putting atomics on the bound hot path.
CounterCell& counter_sink() {
  thread_local CounterCell sink;
  return sink;
}

GaugeCell& gauge_sink() {
  thread_local GaugeCell sink;
  return sink;
}

HistogramCell& histogram_sink() {
  thread_local HistogramCell sink;
  return sink;
}

namespace {

std::int64_t bucket_percentile(
    const std::array<std::uint64_t, kHistogramBuckets>& buckets,
    std::uint64_t count, double p) {
  if (count == 0) return 0;
  p = std::clamp(p, 0.0, 1.0);
  // Rank of the p-quantile, 1-based; the bucket whose cumulative count
  // reaches it bounds the quantile from above.
  const auto rank = static_cast<std::uint64_t>(
      p * static_cast<double>(count - 1)) + 1;
  std::uint64_t cum = 0;
  for (int b = 0; b < kHistogramBuckets; ++b) {
    cum += buckets[static_cast<std::size_t>(b)];
    if (cum >= rank) return Histogram::bucket_upper_bound(b);
  }
  return Histogram::bucket_upper_bound(kHistogramBuckets - 1);
}

}  // namespace

}  // namespace detail

std::int64_t Histogram::bucket_upper_bound(int b) {
  if (b <= 0) return 0;
  if (b >= 63) return std::numeric_limits<std::int64_t>::max();
  return (std::int64_t{1} << b) - 1;
}

std::int64_t Histogram::percentile(double p) const {
  return detail::bucket_percentile(cell_->buckets, cell_->count, p);
}

std::int64_t SnapshotEntry::percentile(double p) const {
  return detail::bucket_percentile(buckets, hist_count, p);
}

ScopedTimer::ScopedTimer(Histogram h) : h_(h), start_ns_(0) {
  start_ns_ = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now().time_since_epoch())
                  .count();
}

std::int64_t ScopedTimer::elapsed_ns() const {
  const std::int64_t now_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  return now_ns - start_ns_;
}

Counter Registry::counter(std::string_view name, std::string_view label) {
  return Counter(&counters_[{std::string(name), std::string(label)}]);
}

Gauge Registry::gauge(std::string_view name, std::string_view label) {
  return Gauge(&gauges_[{std::string(name), std::string(label)}]);
}

Histogram Registry::histogram(std::string_view name, std::string_view label) {
  return Histogram(&histograms_[{std::string(name), std::string(label)}]);
}

Snapshot Registry::snapshot() const {
  // The three maps are each ordered by (name, label), so a 3-way merge
  // yields the sorted snapshot without sorting; on a tied key the counter
  // goes first, then the gauge, then the histogram.
  Snapshot snap;
  snap.entries.reserve(size());
  auto c = counters_.begin();
  auto g = gauges_.begin();
  auto h = histograms_.begin();
  for (;;) {
    const Key* next = nullptr;
    MetricKind kind = MetricKind::kCounter;
    if (c != counters_.end()) next = &c->first;
    if (g != gauges_.end() && (next == nullptr || g->first < *next)) {
      next = &g->first;
      kind = MetricKind::kGauge;
    }
    if (h != histograms_.end() && (next == nullptr || h->first < *next)) {
      next = &h->first;
      kind = MetricKind::kHistogram;
    }
    if (next == nullptr) break;

    SnapshotEntry& e = snap.entries.emplace_back();
    e.kind = kind;
    e.name = next->first;
    e.label = next->second;
    switch (kind) {
      case MetricKind::kCounter:
        e.counter = c->second.value;
        ++c;
        break;
      case MetricKind::kGauge:
        e.gauge = g->second.value;
        e.gauge_high_water = g->second.touched ? g->second.high_water : 0.0;
        ++g;
        break;
      case MetricKind::kHistogram: {
        const detail::HistogramCell& cell = h->second;
        e.hist_count = cell.count;
        e.hist_sum = cell.sum;
        e.hist_min = cell.count ? cell.min : 0;
        e.hist_max = cell.count ? cell.max : 0;
        e.buckets = cell.buckets;
        ++h;
        break;
      }
    }
  }
  return snap;
}

void Snapshot::merge(const Snapshot& other) {
  for (const SnapshotEntry& o : other.entries) {
    auto it = std::find_if(entries.begin(), entries.end(),
                           [&o](const SnapshotEntry& e) {
                             return e.kind == o.kind && e.name == o.name &&
                                    e.label == o.label;
                           });
    if (it == entries.end()) {
      entries.push_back(o);
      continue;
    }
    SnapshotEntry& e = *it;
    switch (o.kind) {
      case MetricKind::kCounter:
        e.counter += o.counter;
        break;
      case MetricKind::kGauge:
        e.gauge = o.gauge;  // latest wins; high water is the envelope
        e.gauge_high_water = std::max(e.gauge_high_water, o.gauge_high_water);
        break;
      case MetricKind::kHistogram: {
        const bool e_empty = e.hist_count == 0;
        const bool o_empty = o.hist_count == 0;
        e.hist_count += o.hist_count;
        e.hist_sum += o.hist_sum;
        if (!o_empty) {
          e.hist_min = e_empty ? o.hist_min : std::min(e.hist_min, o.hist_min);
          e.hist_max = e_empty ? o.hist_max : std::max(e.hist_max, o.hist_max);
        }
        for (std::size_t b = 0; b < e.buckets.size(); ++b) {
          e.buckets[b] += o.buckets[b];
        }
        break;
      }
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const SnapshotEntry& a, const SnapshotEntry& b) {
              if (a.name != b.name) return a.name < b.name;
              return a.label < b.label;
            });
}

const SnapshotEntry* Snapshot::find(std::string_view name,
                                    std::string_view label) const {
  for (const SnapshotEntry& e : entries) {
    if (e.name == name && e.label == label) return &e;
  }
  return nullptr;
}

}  // namespace decos::obs
