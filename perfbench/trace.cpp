#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <utility>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

/// Children of every span of one unit, by index.
std::vector<std::vector<std::size_t>> children_of(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::uint32_t p = spans[i].parent;
    if (p != kNoParent && p < spans.size() && p != i) children[p].push_back(i);
  }
  return children;
}

/// Time the children `kids` of one span cover inside it: single children
/// as the union of their intervals clipped to the parent, aggregates as
/// their busy time.
struct Cover {
  std::int64_t single_ns = 0;
  std::int64_t aggregate_ns = 0;
};

Cover cover(const std::vector<Span>& spans, const std::vector<std::size_t>& kids) {
  Cover c;
  if (kids.empty()) return c;
  const Span& p = spans[spans[kids.front()].parent];
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (const std::size_t k : kids) {
    const Span& s = spans[k];
    if (s.aggregate) {
      c.aggregate_ns += s.busy_ns;
      continue;
    }
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) iv.emplace_back(lo, hi);
  }
  std::sort(iv.begin(), iv.end());
  std::int64_t run_lo = 0, run_hi = 0;
  bool open = false;
  for (const auto& [lo, hi] : iv) {
    if (open && lo <= run_hi) {
      run_hi = std::max(run_hi, hi);
      continue;
    }
    if (open) c.single_ns += run_hi - run_lo;
    run_lo = lo;
    run_hi = hi;
    open = true;
  }
  if (open) c.single_ns += run_hi - run_lo;
  return c;
}

}  // namespace

std::uint32_t UnitTrace::open(const char* name) {
  Span s;
  s.id = static_cast<std::uint32_t>(spans_.size());
  s.parent = stack_.empty() ? kNoParent : stack_.back().id;
  s.name = name;
  s.unit = unit_;
  s.start_ns = now_ns();
  spans_.push_back(s);
  stack_.push_back({s.id, thread_allocs()});
  return s.id;
}

void UnitTrace::close(std::uint32_t id) {
  const std::int64_t t = now_ns();
  const std::uint64_t a = thread_allocs();
  while (!stack_.empty()) {
    const OpenSpan top = stack_.back();
    stack_.pop_back();
    Span& s = spans_[top.id];
    s.end_ns = t;
    s.busy_ns = t - s.start_ns;
    s.allocs = a - top.allocs0;
    if (top.id == id) return;
  }
}

void UnitTrace::close_all() {
  if (!stack_.empty()) close(stack_.front().id);
  for (Span& s : spans_) {
    if (!s.aggregate || s.sampled == 0) continue;
    s.busy_ns = static_cast<std::int64_t>(static_cast<double>(s.sampled_ns) *
                                          static_cast<double>(s.calls) /
                                          static_cast<double>(s.sampled));
  }
  // A timed call that stalled (preempted, page fault) counts sixteen
  // times, so the estimates can overshoot the parent they ran in: shrink
  // the parent's aggregates to the time its single children leave free.
  const auto kids = children_of(spans_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Cover c = cover(spans_, kids[i]);
    const std::int64_t free_ns = std::max<std::int64_t>(0, spans_[i].busy_ns - c.single_ns);
    if (c.aggregate_ns <= free_ns) continue;
    ++clamped_;
    const double f = static_cast<double>(free_ns) / static_cast<double>(c.aggregate_ns);
    for (const std::size_t k : kids[i]) {
      if (spans_[k].aggregate) {
        spans_[k].busy_ns = static_cast<std::int64_t>(static_cast<double>(spans_[k].busy_ns) * f);
      }
    }
  }
}

void UnitTrace::leaf(const char* name, std::int64_t start_ns,
                     std::int64_t duration_ns, std::uint64_t allocs) {
  const std::uint32_t parent = stack_.empty() ? kNoParent : stack_.back().id;
  Span* agg = nullptr;
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->aggregate && it->parent == parent && it->name == name) {
      agg = &*it;
      ++agg->calls;
      break;
    }
    if (!it->aggregate && it->id == parent) break;  // older spans: other parents
  }
  if (agg == nullptr) {
    Span s;
    s.id = static_cast<std::uint32_t>(spans_.size());
    s.parent = parent;
    s.name = name;
    s.unit = unit_;
    s.aggregate = true;
    s.busy_ns = 0;
    spans_.push_back(s);
    agg = &spans_.back();
  }
  agg->allocs += allocs;
  if (duration_ns < 0) return;
  if (agg->sampled == 0) agg->start_ns = start_ns;
  agg->end_ns = start_ns + duration_ns;
  ++agg->sampled;
  agg->sampled_ns += duration_ns;
}

std::int64_t clock_cost_ns() {
  static const std::int64_t cost = [] {
    std::vector<std::int64_t> d(2001);
    for (std::int64_t& x : d) {
      const std::int64_t a = now_ns();
      x = now_ns() - a;
    }
    std::nth_element(d.begin(), d.begin() + 1000, d.end());
    return d[1000];
  }();
  return cost;
}

bool sample_this_call() {
  thread_local std::uint64_t x = 0x9E3779B97F4A7C15ull;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return (x & 15) == 0;
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  const auto kids = children_of(spans);
  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Cover c = cover(spans, kids[i]);
    self[i] = spans[i].busy_ns - std::min(c.single_ns + c.aggregate_ns, spans[i].busy_ns);
  }
  return self;
}

std::string layer_of(const char* name) {
  const std::string s(name);
  return s.substr(0, s.find('.'));
}

std::int64_t fold_unit(const std::vector<Span>& spans, LayerTable& table) {
  const std::vector<std::int64_t> self = self_times(spans);
  std::vector<std::uint64_t> child_allocs(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent != kNoParent && s.parent < spans.size()) {
      child_allocs[s.parent] += s.allocs;
    }
  }
  std::int64_t self_sum = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    LayerRow& row = table[layer_of(s.name)];
    row.self_ns += self[i];
    row.calls += s.calls;
    row.self_allocs += s.allocs - std::min(s.allocs, child_allocs[i]);
    self_sum += self[i];
  }
  return self_sum;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

Tail tail(std::vector<double> v, std::size_t beyond) {
  Tail t;
  t.count = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n <= beyond) {
    t.value = v.back();
    t.percentile = 100.0;
    return t;
  }
  t.value = v[n - beyond - 1];
  t.percentile =
      100.0 * static_cast<double>(n - beyond) / static_cast<double>(n);
  t.ok = true;
  return t;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

namespace {

Span single(std::uint32_t id, std::uint32_t parent, const char* name,
            std::int64_t start, std::int64_t end, std::uint64_t allocs = 0) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.busy_ns = end - start;
  s.allocs = allocs;
  return s;
}

}  // namespace

bool self_test() {
  bool ok = true;
  const auto expect = [&ok](bool cond, const char* what) {
    if (!cond) {
      std::fprintf(stderr, "perfbench self-test failed: %s\n", what);
      ok = false;
    }
  };

  // Root [0,100) with children [10,40) and [30,60) that overlap by 10, a
  // grandchild [15,20) nested in the first, a child [90,120) that runs
  // past the root's end, and an aggregate of hook calls covering 5.
  {
    std::vector<Span> s;
    s.push_back(single(0, kNoParent, "scenario.unit", 0, 100, 10));
    s.push_back(single(1, 0, "tta.run", 10, 40, 4));
    s.push_back(single(2, 0, "diag.read", 30, 60, 3));
    s.push_back(single(3, 1, "fault.inject", 15, 20, 1));
    s.push_back(single(4, 0, "maintenance.x", 90, 120));
    Span agg = single(5, 2, "diag.observe", 32, 58, 2);
    agg.aggregate = true;
    agg.calls = 7;
    agg.busy_ns = 5;
    s.push_back(agg);
    const auto self = self_times(s);
    // Root: children cover [10,60) and [90,100) = 60.
    expect(self[0] == 40, "root self time with overlapping children");
    expect(self[1] == 25, "nested child self time");
    expect(self[2] == 25, "aggregate child covers its busy time");
    expect(self[3] == 5, "leaf self time");
    expect(self[5] == 5, "aggregate self time");
    LayerTable table;
    // Overlap (10) and the overhang (20) make self times exceed the wall.
    expect(fold_unit(s, table) == 100 + 30, "self times count overlap and overhang");
    expect(table["diag"].calls == 8, "layer calls include aggregate calls");
    expect(table["scenario"].self_allocs == 10 - 4 - 3, "self allocations");
  }
  // Disjoint, contained children: self times add up to the root exactly.
  {
    std::vector<Span> s;
    s.push_back(single(0, kNoParent, "fleet.unit", 0, 1000));
    s.push_back(single(1, 0, "fleet.batch_build", 0, 300));
    s.push_back(single(2, 0, "fleet.step", 300, 990));
    LayerTable table;
    expect(fold_unit(s, table) == 1000, "contained children cover exactly");
    expect(table["fleet"].self_ns == 1000, "layer self time sums to wall");
  }
  // UnitTrace: leaves fold into one aggregate per (parent, name), and an
  // aggregate's busy time scales the timed calls up to all calls.
  {
    UnitTrace t(7);
    const auto root = t.open("scenario.unit");
    const auto run = t.open("tta.run");
    t.leaf("platform.dispatch", 1, 2, 1);
    t.leaf("vnet.deliver", 3, -1, 0);
    t.leaf("platform.dispatch", 5, -1, 2);
    t.leaf("platform.dispatch", 7, 4, 0);
    t.leaf("platform.dispatch", 12, -1, 0);
    // Real time under `run` must exceed the 12 ns the leaves estimate.
    for (const std::int64_t until = now_ns() + 1000; now_ns() < until;) {
    }
    t.close(run);
    t.leaf("platform.dispatch", 10, 1, 0);
    t.close_all();
    const auto& s = t.spans();
    expect(s.size() == 5, "one aggregate per parent and hook");
    expect(s[2].aggregate && s[2].calls == 4 && s[2].sampled == 2 &&
               s[2].busy_ns == 12 && s[2].allocs == 3,
           "aggregate: exact calls and allocations, busy scaled from samples");
    expect(s[2].start_ns == 1 && s[2].end_ns == 11, "aggregate spans its timed calls");
    expect(s[3].calls == 1 && s[3].busy_ns == 0, "untimed-only aggregate is 0");
    expect(s[4].parent == root, "leaf after close attaches to the root");
    expect(s[0].end_ns >= s[1].end_ns && s[1].end_ns > 0, "close_all closes everything");
    expect(t.clamped() == 0, "estimates that fit are kept");
  }
  // An estimate that overshoots its parent is shrunk to fit it.
  {
    UnitTrace t(8);
    const auto root = t.open("scenario.unit");
    t.leaf("platform.dispatch", now_ns(), 1'000'000'000, 0);  // stalled
    t.leaf("platform.dispatch", now_ns(), -1, 0);
    t.close_all();
    const auto& s = t.spans();
    expect(t.clamped() == 1 && s[1].busy_ns <= s[root].busy_ns,
           "overshooting aggregate clamped to its parent");
    LayerTable table;
    expect(fold_unit(s, table) == s[root].busy_ns, "clamped unit still covers exactly");
  }
  // Tail percentile from the unit count.
  {
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i) v.push_back(i);
    const Tail t = tail(v);
    expect(t.ok && t.value == 90.0 && t.percentile == 90.0,
           "100 units: p90, 10 beyond");
    v.clear();
    for (int i = 1; i <= 1000; ++i) v.push_back(1001 - i);
    const Tail t2 = tail(v);
    expect(t2.ok && t2.value == 990.0 && t2.percentile == 99.0,
           "1000 units: p99 from unsorted input");
    const Tail t3 = tail({3.0, 1.0, 2.0});
    expect(!t3.ok && t3.value == 3.0, "too few units: max, flagged");
    expect(tail({}).count == 0, "no units");
    expect(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "even-count median");
  }
  // Ratios with a zero base.
  {
    expect(ratio(0.0, 0.0) == 0.0, "0/0 reports 0");
    expect(ratio(5.0, 0.0) == 0.0, "x/0 reports 0");
    expect(ratio(1.0, 4.0) == 0.25, "plain ratio");
    expect(std::isfinite(ratio(1.0, 0.0)), "never inf");
  }
  return ok;
}

}  // namespace perfbench
