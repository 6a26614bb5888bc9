// Unit tests for the observability layer: registry/handle semantics,
// log2 histogram bucket boundaries, snapshot merge algebra, JSON/CSV
// export well-formedness (checked with a tiny strict JSON parser), and
// end-to-end detection latency measured under a scripted fault injection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>

#include <vector>

#include "diag/service.hpp"
#include "fault/bitfault.hpp"
#include "fault/faultpoint.hpp"
#include "obs/bench_io.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "scenario/fig10.hpp"

namespace decos::obs {
namespace {

// --- a minimal strict JSON parser (validation only) ------------------------
//
// The exporters hand-roll their JSON; this recursive-descent checker
// rejects trailing commas, bare NaN/Inf, unterminated strings, etc., so
// a malformed emitter fails here rather than in a downstream consumer.
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view s) : s_(s) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(
                    static_cast<unsigned char>(s_[pos_]))) return false;
          }
        } else if (std::string_view("\"\\/bfnrt").find(e) ==
                   std::string_view::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;  // unterminated
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (!digit()) return false;
    while (digit()) {}
    if (peek() == '.') {
      ++pos_;
      if (!digit()) return false;
      while (digit()) {}
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!digit()) return false;
      while (digit()) {}
    }
    return pos_ > start;
  }

  bool digit() {
    if (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  [[nodiscard]] char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

// --- registry / handle semantics -------------------------------------------

TEST(Registry, SameNameAndLabelYieldsSameCell) {
  Registry r;
  Counter a = r.counter("events");
  Counter b = r.counter("events");
  a.inc(3);
  b.inc(4);
  EXPECT_EQ(a.value(), 7u);
  EXPECT_EQ(b.value(), 7u);
  EXPECT_EQ(r.size(), 1u);
}

TEST(Registry, LabelsAreDistinctCells) {
  Registry r;
  r.counter("cls", "cls=a").inc(1);
  r.counter("cls", "cls=b").inc(2);
  EXPECT_EQ(r.counter("cls", "cls=a").value(), 1u);
  EXPECT_EQ(r.counter("cls", "cls=b").value(), 2u);
  EXPECT_EQ(r.size(), 2u);
}

TEST(Registry, KindsShareNamespaceWithoutColliding) {
  Registry r;
  r.counter("x").inc();
  r.gauge("x").set(5.0);
  r.histogram("x").record(9);
  EXPECT_EQ(r.size(), 3u);
}

TEST(Registry, SnapshotMergeOrderEqualsTheSortedOrder) {
  // The snapshot merges the three per-kind maps instead of sorting. Its
  // order must equal the old one: all counters, then gauges, then
  // histograms, stably sorted by (name, label) — so a key registered as
  // several kinds lists its counter, gauge, histogram in that order.
  Registry r;
  for (const char* name : {"b", "a.x", "a", "c", "ab"}) {
    for (const char* label : {"", "k=2", "k=1"}) {
      r.counter(name, label).inc();
    }
  }
  for (const char* name : {"a", "bb", "ab", "0"}) {
    r.gauge(name, "k=1").set(1.0);
    r.gauge(name).set(2.0);
  }
  for (const char* name : {"c", "a", "zz", "a.x"}) {
    r.histogram(name, "k=2").record(3);
    r.histogram(name).record(4);
  }

  const Snapshot snap = r.snapshot();
  ASSERT_EQ(snap.entries.size(), r.size());
  std::vector<SnapshotEntry> oracle = snap.entries;
  std::stable_sort(oracle.begin(), oracle.end(),
                   [](const SnapshotEntry& a, const SnapshotEntry& b) {
                     return a.kind < b.kind;
                   });
  std::stable_sort(oracle.begin(), oracle.end(),
                   [](const SnapshotEntry& a, const SnapshotEntry& b) {
                     if (a.name != b.name) return a.name < b.name;
                     return a.label < b.label;
                   });
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(snap.entries[i].kind, oracle[i].kind) << "entry " << i;
    EXPECT_EQ(snap.entries[i].name, oracle[i].name) << "entry " << i;
    EXPECT_EQ(snap.entries[i].label, oracle[i].label) << "entry " << i;
  }
  // The tie rule on one key registered as all three kinds.
  const auto first_a = std::find_if(
      snap.entries.begin(), snap.entries.end(),
      [](const SnapshotEntry& e) { return e.name == "a" && e.label == "k=1"; });
  ASSERT_NE(first_a, snap.entries.end());
  EXPECT_EQ(first_a[0].kind, MetricKind::kCounter);
  EXPECT_EQ(first_a[1].kind, MetricKind::kGauge);
  EXPECT_EQ(first_a[1].name, "a");
}

TEST(Registry, UnboundHandlesAreSafeSinks) {
  Counter c;
  Gauge g;
  Histogram h;
  c.inc(10);
  g.set(1.0);
  h.record(42);  // must not crash; writes go to the shared sink
}

TEST(Gauge, TracksLatestAndHighWater) {
  Registry r;
  Gauge g = r.gauge("depth");
  EXPECT_EQ(g.high_water(), 0.0);  // untouched
  g.set(3.0);
  g.set(9.0);
  g.set(2.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  EXPECT_DOUBLE_EQ(g.high_water(), 9.0);
  g.add(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
}

// --- histogram bucket boundaries --------------------------------------------

TEST(Histogram, BucketBoundaries) {
  // Bucket 0 holds exactly 0; bucket b >= 1 holds [2^(b-1), 2^b - 1].
  EXPECT_EQ(Histogram::bucket_upper_bound(0), 0);
  EXPECT_EQ(Histogram::bucket_upper_bound(1), 1);
  EXPECT_EQ(Histogram::bucket_upper_bound(2), 3);
  EXPECT_EQ(Histogram::bucket_upper_bound(11), 2047);
  EXPECT_EQ(Histogram::bucket_upper_bound(64),
            std::numeric_limits<std::int64_t>::max());

  Registry r;
  Histogram h = r.histogram("lat");
  h.record(0);     // bucket 0
  h.record(-5);    // clamps to bucket 0
  h.record(1);     // bucket 1
  h.record(2);     // bucket 2
  h.record(3);     // bucket 2
  h.record(4);     // bucket 3
  h.record(1024);  // bucket 11 [1024, 2047]
  h.record(2047);  // bucket 11
  h.record(2048);  // bucket 12

  const Snapshot snap = r.snapshot();
  const SnapshotEntry* e = snap.find("lat");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->buckets[0], 2u);
  EXPECT_EQ(e->buckets[1], 1u);
  EXPECT_EQ(e->buckets[2], 2u);
  EXPECT_EQ(e->buckets[3], 1u);
  EXPECT_EQ(e->buckets[11], 2u);
  EXPECT_EQ(e->buckets[12], 1u);
  EXPECT_EQ(h.count(), 9u);
  EXPECT_EQ(h.min(), -5);
  EXPECT_EQ(h.max(), 2048);
}

TEST(Histogram, PercentileReturnsBucketUpperBound) {
  Registry r;
  Histogram h = r.histogram("p");
  EXPECT_EQ(h.percentile(0.5), 0);  // empty
  for (int i = 0; i < 90; ++i) h.record(10);    // bucket 4, le 15
  for (int i = 0; i < 10; ++i) h.record(1000);  // bucket 10, le 1023
  EXPECT_EQ(h.percentile(0.50), 15);
  EXPECT_EQ(h.percentile(0.99), 1023);
}

TEST(Histogram, MeanMinMax) {
  Registry r;
  Histogram h = r.histogram("m");
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  h.record(10);
  h.record(20);
  EXPECT_EQ(h.min(), 10);
  EXPECT_EQ(h.max(), 20);
  EXPECT_DOUBLE_EQ(h.mean(), 15.0);
}

// --- snapshot merge ----------------------------------------------------------

TEST(Snapshot, MergeAddsCountersAndHistograms) {
  Registry a, b;
  a.counter("n").inc(5);
  b.counter("n").inc(7);
  b.counter("only_b").inc(1);
  a.histogram("h").record(4);
  b.histogram("h").record(1024);

  Snapshot sa = a.snapshot();
  sa.merge(b.snapshot());

  EXPECT_EQ(sa.find("n")->counter, 12u);
  EXPECT_EQ(sa.find("only_b")->counter, 1u);
  const SnapshotEntry* h = sa.find("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->hist_count, 2u);
  EXPECT_EQ(h->hist_min, 4);
  EXPECT_EQ(h->hist_max, 1024);
  EXPECT_EQ(h->buckets[3], 1u);
  EXPECT_EQ(h->buckets[11], 1u);
}

TEST(Snapshot, MergeGaugeKeepsLatestValueAndMaxHighWater) {
  Registry a, b;
  Gauge ga = a.gauge("g");
  ga.set(100.0);  // high water 100
  ga.set(10.0);
  b.gauge("g").set(50.0);

  Snapshot sa = a.snapshot();
  sa.merge(b.snapshot());
  const SnapshotEntry* g = sa.find("g");
  ASSERT_NE(g, nullptr);
  EXPECT_DOUBLE_EQ(g->gauge, 50.0);             // latest (from the merged-in run)
  EXPECT_DOUBLE_EQ(g->gauge_high_water, 100.0); // max across runs
}

TEST(Snapshot, FindDistinguishesLabels) {
  Registry r;
  r.counter("c", "k=1").inc(1);
  const Snapshot s = r.snapshot();
  EXPECT_EQ(s.find("c"), nullptr);
  ASSERT_NE(s.find("c", "k=1"), nullptr);
  EXPECT_EQ(s.find("c", "k=1")->counter, 1u);
}

// --- exporters ---------------------------------------------------------------

TEST(Export, JsonIsWellFormedAndEscaped) {
  Registry r;
  r.counter("events").inc(3);
  r.counter("cls", "cls=\"quoted\"\\back").inc(1);  // hostile label
  Gauge g = r.gauge("g");
  g.set(1.5);
  Histogram h = r.histogram("lat");
  h.record(0);
  h.record(300);

  const std::string json = to_json(r.snapshot());
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"events\":3"), std::string::npos);
  EXPECT_NE(json.find("histograms"), std::string::npos);
}

TEST(Export, JsonNumberNeverEmitsNanOrInf) {
  EXPECT_TRUE(JsonChecker(json_number(std::nan(""))).valid());
  EXPECT_TRUE(
      JsonChecker(json_number(std::numeric_limits<double>::infinity())).valid());
  EXPECT_EQ(json_number(2.0), "2");
}

TEST(Export, CsvHasHeaderAndOneRowPerMetric) {
  Registry r;
  r.counter("a").inc(1);
  r.gauge("b").set(2.0);
  const std::string csv = to_csv(r.snapshot());
  // header + 2 rows = 3 newline-terminated lines
  std::size_t lines = 0;
  for (char c : csv) lines += c == '\n';
  EXPECT_EQ(lines, 3u);
  EXPECT_EQ(csv.rfind("kind,name,label", 0), 0u);
}

// --- detection latency under scripted injection ------------------------------

TEST(DetectionLatency, ScriptedWearoutProducesLatencySamples) {
  scenario::Fig10System rig({.seed = 77});
  const sim::SimTime start = sim::SimTime::zero() + sim::milliseconds(400);
  rig.injector().inject_wearout(1, start, sim::milliseconds(500), 0.7,
                                sim::milliseconds(10));
  rig.run(sim::seconds(6));

  const std::size_t recorded =
      rig.diag().record_detection_latency(rig.injector());
  EXPECT_GE(recorded, 1u);

  const Snapshot snap = rig.sim().metrics().snapshot();
  const SnapshotEntry* agg = snap.find("diag.detection_latency_us");
  ASSERT_NE(agg, nullptr);
  EXPECT_GE(agg->hist_count, 1u);
  EXPECT_GT(agg->hist_min, 0);  // detection strictly after injection

  // The per-FRU labelled histogram exists for the faulty component.
  const SnapshotEntry* fru =
      snap.find("diag.detection_latency_us", "fru=component.1");
  ASSERT_NE(fru, nullptr);
  EXPECT_EQ(fru->hist_count, 1u);

  // And the instrumented stack saw traffic.
  EXPECT_GT(snap.find("sim.events_executed")->counter, 0u);
  EXPECT_GT(snap.find("tta.bus.frames_sent")->counter, 0u);
  EXPECT_GT(snap.find("diag.symptoms_ingested")->counter, 0u);
}

TEST(DetectionLatency, HealthyRunRecordsNothing) {
  scenario::Fig10System rig({.seed = 78});
  rig.run(sim::seconds(1));
  EXPECT_EQ(rig.diag().record_detection_latency(rig.injector()), 0u);
  const obs::Snapshot snap = rig.sim().metrics().snapshot();
  const SnapshotEntry* agg = snap.find("diag.detection_latency_us");
  ASSERT_NE(agg, nullptr);  // registered (empty) by the call above
  EXPECT_EQ(agg->hist_count, 0u);
}

// --- BenchReporter flag parsing --------------------------------------------
//
// The bench harness is the repo's outermost CLI; a silently mis-parsed
// flag skews a whole campaign. Malformed input exits 1 at once, before
// the bench runs anything with a half-applied or default value; a flag
// the bench does not take fails the run at finish() (finish() != 0).

/// Builds a mutable argv from string literals (BenchReporter wants char**).
class FakeArgv {
 public:
  explicit FakeArgv(std::vector<std::string> args) : strings_(std::move(args)) {
    for (auto& s : strings_) argv_.push_back(s.data());
  }
  [[nodiscard]] int argc() { return static_cast<int>(argv_.size()); }
  [[nodiscard]] char** argv() { return argv_.data(); }

 private:
  std::vector<std::string> strings_;
  std::vector<char*> argv_;
};

TEST(BenchReporter, ValidFlagsParse) {
  FakeArgv args({"bench", "--seeds", "7,8,9", "--jobs", "3"});
  BenchReporter reporter("t", args.argc(), args.argv());
  EXPECT_EQ(reporter.seeds_or({1}), (std::vector<std::uint64_t>{7, 8, 9}));
  EXPECT_EQ(reporter.jobs(), 3u);
  EXPECT_EQ(reporter.finish(), 0);
}

/// Constructing a reporter from `args` exits 1 with `error` on stderr.
void expect_rejected(std::vector<std::string> args, const char* error) {
  EXPECT_EXIT(
      {
        FakeArgv argv(std::move(args));
        BenchReporter reporter("t", argv.argc(), argv.argv());
      },
      ::testing::ExitedWithCode(1), error);
}

TEST(BenchReporter, ExplicitJobsZeroIsRejected) {
  // Omitting the flag means hardware concurrency; an explicit 0 is a typo.
  expect_rejected({"bench", "--jobs", "0"}, "--jobs must be >= 1");
}

TEST(BenchReporter, MalformedJobsIsRejected) {
  expect_rejected({"bench", "--jobs", "many"}, "--jobs wants a number");
}

TEST(BenchReporter, EmptySeedListIsRejected) {
  expect_rejected({"bench", "--seeds", ""}, "--seeds wants a non-empty list");
}

TEST(BenchReporter, SeedListWithEmptyEntryIsRejected) {
  expect_rejected({"bench", "--seeds", "1,,2"}, "got '1,,2'");
}

TEST(BenchReporter, MalformedSeedEntryIsRejected) {
  expect_rejected({"bench", "--seeds", "1,two,3"}, "got '1,two,3'");
}

TEST(BenchReporter, DuplicateSeedsAreRejected) {
  // A duplicate would silently double-weight one seed's statistics.
  expect_rejected({"bench", "--seeds", "1,2,1"}, "got '1,2,1'");
}

TEST(BenchReporter, MissingFlagValuesAreRejected) {
  for (const char* flag : {"--seeds", "--jobs", "--json", "--csv"}) {
    expect_rejected({"bench", flag}, "requires a value");
  }
  // The bench's own flags: rejected when taken, and fail the run at
  // finish() when not.
  EXPECT_EXIT(
      {
        FakeArgv args({"bench", "--replay"});
        BenchReporter reporter("t", args.argc(), args.argv());
        (void)reporter.value("--replay");
      },
      ::testing::ExitedWithCode(1), "--replay requires a value");
  for (const char* flag : {"--replay", "--max-points"}) {
    FakeArgv args({"bench", flag});
    BenchReporter reporter("t", args.argc(), args.argv());
    EXPECT_NE(reporter.finish(), 0) << flag;
  }
}

TEST(BenchReporter, ReplayTokenParses) {
  FakeArgv args({"bench", "--replay", "heartbeat-send:17"});
  BenchReporter reporter("t", args.argc(), args.argv());
  EXPECT_EQ(reporter.value("--replay"), "heartbeat-send:17");
  EXPECT_EQ(reporter.finish(), 0);
}

TEST(BenchReporter, MalformedReplayTokenIsRejected) {
  // The reporter hands the token over as given; bench_fault_space rejects
  // it through fault::parse_fault_point, which knows the site names.
  for (const char* token : {"heartbeat-send", ":17", "heartbeat-send:",
                            "heartbeat-send:x", "heartbeat-send:1x"}) {
    FakeArgv args({"bench", "--replay", token});
    BenchReporter reporter("t", args.argc(), args.argv());
    const auto taken = reporter.value("--replay");
    ASSERT_TRUE(taken.has_value()) << token;
    EXPECT_FALSE(fault::parse_fault_point(*taken).has_value()) << token;
  }
}

TEST(BenchReporter, MaxPointsParses) {
  FakeArgv args({"bench", "--max-points", "50"});
  BenchReporter reporter("t", args.argc(), args.argv());
  EXPECT_EQ(reporter.count("--max-points"), 50u);
  EXPECT_EQ(reporter.finish(), 0);
}

TEST(BenchReporter, MaxPointsZeroOrMalformedIsRejected) {
  // 0 would silently mean "unbounded" — reject it so a typo cannot turn
  // a CI smoke into a full enumeration.
  for (const char* value : {"0", "many", "12x"}) {
    EXPECT_EXIT(
        {
          FakeArgv args({"bench", "--max-points", value});
          BenchReporter reporter("t", args.argc(), args.argv());
          (void)reporter.count("--max-points");
        },
        ::testing::ExitedWithCode(1), "--max-points wants a number >= 1")
        << value;
  }
}

TEST(BenchReporter, BerFlagParsesInRange) {
  FakeArgv args({"bench", "--ber", "0.25"});
  BenchReporter reporter("t", args.argc(), args.argv());
  EXPECT_EQ(reporter.number("--ber", 0.0, 1.0), 0.25);
  EXPECT_EQ(reporter.finish(), 0);
}

TEST(BenchReporter, BerBoundariesAreAccepted) {
  for (const char* value : {"0", "1", "0.0", "1.0", "5e-3"}) {
    FakeArgv args({"bench", "--ber", value});
    BenchReporter reporter("t", args.argc(), args.argv());
    EXPECT_TRUE(reporter.number("--ber", 0.0, 1.0).has_value()) << value;
    EXPECT_EQ(reporter.finish(), 0) << value;
  }
}

TEST(BenchReporter, BerOutsideUnitIntervalIsRejected) {
  for (const char* value : {"1.5", "-0.1", "nan", "rate", "2e3"}) {
    EXPECT_EXIT(
        {
          FakeArgv args({"bench", "--ber", value});
          BenchReporter reporter("t", args.argc(), args.argv());
          (void)reporter.number("--ber", 0.0, 1.0);
        },
        ::testing::ExitedWithCode(1), "--ber wants a number in \\[0, 1\\]")
        << value;
  }
}

TEST(BenchReporter, WearoutProfileParses) {
  FakeArgv args({"bench", "--wearout", "aged"});
  BenchReporter reporter("t", args.argc(), args.argv());
  EXPECT_EQ(reporter.value("--wearout").value_or("bathtub"), "aged");
  EXPECT_EQ(reporter.finish(), 0);
}

TEST(BenchReporter, UnknownWearoutProfileIsRejected) {
  // bench_bitfault resolves the taken name through
  // fault::WearoutCurve::profile and exits 1 when it does not resolve.
  FakeArgv args({"bench", "--wearout", "granite"});
  BenchReporter reporter("t", args.argc(), args.argv());
  const auto taken = reporter.value("--wearout");
  ASSERT_TRUE(taken.has_value());
  EXPECT_FALSE(fault::WearoutCurve::profile(*taken).has_value());
}

TEST(BenchReporter, BerAndWearoutMissingValuesAreRejected) {
  for (const char* flag : {"--ber", "--wearout"}) {
    EXPECT_EXIT(
        {
          FakeArgv args({"bench", flag});
          BenchReporter reporter("t", args.argc(), args.argv());
          (void)reporter.number("--ber", 0.0, 1.0);
          (void)reporter.value("--wearout");
        },
        ::testing::ExitedWithCode(1), "requires a value")
        << flag;
  }
}

TEST(BenchReporter, BerAndWearoutAreEchoedInJson) {
  const std::string path =
      std::string(::testing::TempDir()) + "/ber_echo_out.json";
  FakeArgv args({"bench", "--ber", "0.125", "--wearout", "infant", "--json",
                 path});
  BenchReporter reporter("t", args.argc(), args.argv());
  ASSERT_TRUE(reporter.number("--ber", 0.0, 1.0).has_value());
  ASSERT_TRUE(reporter.value("--wearout").has_value());
  ASSERT_EQ(reporter.finish(), 0);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text(1 << 12, '\0');
  text.resize(std::fread(text.data(), 1, text.size(), f));
  std::fclose(f);
  EXPECT_NE(text.find("\"ber\":0.125"), std::string::npos) << text;
  EXPECT_NE(text.find("\"wearout\":\"infant\""), std::string::npos) << text;
}

TEST(BenchReporter, UnknownArgumentsPassThrough) {
  FakeArgv args({"bench", "--seeds", "5", "--benchmark_filter=x"});
  BenchReporter reporter("t", args.argc(), args.argv());
  ASSERT_EQ(reporter.argc(), 2);
  EXPECT_STREQ(reporter.argv()[1], "--benchmark_filter=x");
  EXPECT_EQ(reporter.finish(), 0);
}

TEST(BenchReporter, FlagTheBenchDoesNotTakeFailsTheRun) {
  // A bench that does not serve --replay or --max-points must not run as
  // if they were absent.
  FakeArgv args({"bench", "--seeds", "1", "--quick", "--replay",
                 "resend-push:7", "--max-points", "5"});
  BenchReporter reporter("t", args.argc(), args.argv());
  EXPECT_TRUE(reporter.flag("--quick"));
  EXPECT_EQ(reporter.seeds_or({42}), (std::vector<std::uint64_t>{1}));
  EXPECT_NE(reporter.finish(), 0);
  // Once the bench takes them, the same arguments run clean.
  FakeArgv again({"bench", "--quick", "--replay", "resend-push:7",
                  "--max-points", "5"});
  BenchReporter served("t", again.argc(), again.argv());
  EXPECT_TRUE(served.flag("--quick"));
  EXPECT_EQ(served.value("--replay"), "resend-push:7");
  EXPECT_EQ(served.count("--max-points"), 5u);
  EXPECT_EQ(served.finish(), 0);
}

}  // namespace
}  // namespace decos::obs
