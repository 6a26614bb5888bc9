// Span recording and the benchmark's own arithmetic.
//
// A span is one timed call the benchmark makes into a module, or one call
// a wrapped tta::TtaNode hook makes into the layers above it. Span names
// are "<layer>.<what>", where the layer is a src/ module. Hook calls run
// millions of times per rig, so they are not stored one by one: all calls
// of one hook under one parent span fold into a single aggregate span
// that carries their call count and allocations, both exact. Two clock
// reads cost more than many hook bodies, so only a random sixteenth of the
// calls is timed (minus the measured cost of a clock read) and the busy
// time is scaled up from those; this keeps tracing to a few percent.
// Hook calls never overlap one another, so the aggregate's busy time is
// the time they cover inside the parent.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Host monotonic clock, nanoseconds.
[[nodiscard]] std::int64_t now_ns();
/// Allocations made so far by the calling thread (counting operator new).
[[nodiscard]] std::uint64_t thread_allocs();

inline constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

struct Span {
  std::uint32_t id = 0;  // unit-local; spans of one unit share `unit`
  std::uint32_t parent = kNoParent;
  const char* name = "";  // static "<layer>.<what>"
  std::uint64_t unit = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t calls = 1;
  /// Folded hook calls rather than one timed call.
  bool aggregate = false;
  /// Aggregates: calls timed, and their summed durations.
  std::uint64_t sampled = 0;
  std::int64_t sampled_ns = 0;
  /// Time the span covers: end - start for a single span, the summed
  /// call durations for an aggregate.
  std::int64_t busy_ns = 0;
  /// Allocations made while the span was open (children included).
  std::uint64_t allocs = 0;
};

/// The spans of one unit, recorded on the thread that runs the unit.
class UnitTrace {
 public:
  explicit UnitTrace(std::uint64_t unit) : unit_(unit) {}

  /// Opens a span as a child of the innermost open span.
  std::uint32_t open(const char* name);
  /// Closes span `id` and every span opened after it.
  void close(std::uint32_t id);
  /// Closes every open span and sets each aggregate's busy time.
  void close_all();
  /// One hook call under the innermost open span, started at `start_ns`;
  /// `duration_ns` < 0 when the call was not timed.
  void leaf(const char* name, std::int64_t start_ns, std::int64_t duration_ns,
            std::uint64_t allocs);

  /// Parents whose aggregate estimates close_all() had to shrink.
  [[nodiscard]] std::uint64_t clamped() const { return clamped_; }
  /// All spans; only meaningful after close_all().
  [[nodiscard]] std::vector<Span>& spans() { return spans_; }

 private:
  struct OpenSpan {
    std::uint32_t id;
    std::uint64_t allocs0;
  };
  std::uint64_t unit_;
  std::vector<Span> spans_;
  std::vector<OpenSpan> stack_;
  std::uint64_t clamped_ = 0;
};

/// Duration of one now_ns() call, measured once: a timed hook call's
/// measured duration includes about one clock read.
[[nodiscard]] std::int64_t clock_cost_ns();
/// True for a random sixteenth of the calls (per-thread xorshift).
[[nodiscard]] bool sample_this_call();

/// Counts one hook call into `trace`, timing it when sampled (no-op when
/// `trace` is null).
class LeafTimer {
 public:
  LeafTimer(UnitTrace* trace, const char* name)
      : trace_(trace),
        name_(name),
        allocs_(thread_allocs()),
        start_(trace != nullptr && sample_this_call() ? now_ns() : -1) {}
  LeafTimer(const LeafTimer&) = delete;
  LeafTimer& operator=(const LeafTimer&) = delete;
  ~LeafTimer() {
    if (trace_ == nullptr) return;
    std::int64_t d = -1;
    if (start_ >= 0) d = std::max<std::int64_t>(0, now_ns() - start_ - clock_cost_ns());
    trace_->leaf(name_, start_, d, thread_allocs() - allocs_);
  }

 private:
  UnitTrace* trace_;
  const char* name_;
  std::uint64_t allocs_;
  std::int64_t start_;
};

/// Self time of every span of one unit (same order as `spans`): its busy
/// time minus the part of its interval its children cover. Single
/// children cover the union of their intervals clipped to the parent, so
/// overlapping or nested children are not counted twice; aggregate
/// children cover their busy time.
[[nodiscard]] std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// Layer of a span name: the text before the first '.'.
[[nodiscard]] std::string layer_of(const char* name);

struct LayerRow {
  std::int64_t self_ns = 0;
  std::uint64_t calls = 0;
  std::uint64_t self_allocs = 0;
};
using LayerTable = std::map<std::string, LayerRow>;

/// Folds one unit's spans into `table` and returns the sum of their self
/// times, which equals the busy time of the root spans when every child
/// lies inside its parent and no two children overlap.
std::int64_t fold_unit(const std::vector<Span>& spans, LayerTable& table);

// --- statistics ------------------------------------------------------------

[[nodiscard]] double median(std::vector<double> v);

/// The highest percentile with at least `beyond` samples above it: the
/// value of rank n - beyond (1-based) in ascending order, which is the
/// (100 * (n - beyond) / n)th percentile. With n <= beyond no percentile
/// qualifies; the maximum is returned with percentile 100 and ok = false.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t count = 0;
  bool ok = false;
};
[[nodiscard]] Tail tail(std::vector<double> v, std::size_t beyond = 10);

/// num / den, and 0 when den is 0 (a ratio over nothing reports nothing).
[[nodiscard]] double ratio(double num, double den);

/// Checks the arithmetic above on hand-built cases; prints each failure.
[[nodiscard]] bool self_test();

}  // namespace perfbench
