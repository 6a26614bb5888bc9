// Outside-in benchmark of the canonical rigs.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>]
//
// One run: set-up is timed five times (median reported), then an
// untraced pass runs units closed-loop for --seconds (at least the replay
// count), then the first units are replayed untraced (peak RSS is taken
// over this fixed work) and traced, with every layer boundary wrapped. The untraced pass gives the end-to-end metrics, the
// traced pass the per-layer ones; each replayed unit's simulated-
// statistics digest must equal its untraced twin's, so tracing provably
// changes nothing the simulator computes. The traced spans go to
// <out>/<workload>-seed<n>.trace.ndjson with a per-layer self-time table
// on the last line.
//
// stdout: a human-readable report, then one JSON line
//   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
// holding the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1). Exit 0 when the run completed, whatever `correct` says.
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "trace.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

constexpr int kSetupRepeats = 5;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string out = ".bench_build/perfbench-out";
};

bool parse_args(int argc, char** argv, Args& a, std::string& err) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view k = argv[i];
    if (i + 1 >= argc) {
      err = std::string("missing value for ") + argv[i];
      return false;
    }
    const char* v = argv[++i];
    char* end = nullptr;
    errno = 0;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      have_seed = true;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (k == "--trace") {
      a.trace = static_cast<int>(std::strtol(v, &end, 10));
    } else if (k == "--out") {
      a.out = v;
    } else {
      err = "unknown argument " + std::string(k);
      return false;
    }
    if (end != nullptr && (*end != '\0' || errno != 0 || end == v)) {
      err = "bad value for " + std::string(k) + ": " + v;
      return false;
    }
  }
  if (a.workload.empty() || !have_seed || a.trace < 0 || a.trace > 1 ||
      !(a.seconds > 0.0) || a.seconds > 600.0) {
    err = "need --workload, --seed, --seconds (0, 600] and --trace 0|1";
    return false;
  }
  return true;
}

/// Resets the kernel's resident-set high-water mark (VmHWM) to the
/// current resident set.
bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.close();
  return static_cast<bool>(f);
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_escape(std::string_view s) {
  std::string o;
  for (const char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    o += c;
  }
  return o;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

SimStats sum_stats(const std::vector<UnitResult>& units, std::size_t limit) {
  SimStats s{};
  for (std::size_t i = 0; i < units.size() && i < limit; ++i) {
    for (std::size_t k = 0; k < kStatCount; ++k) s[k] += units[i].stats[k];
  }
  return s;
}

/// Busy time, calls and allocations of the spans named `name`.
struct SpanSum {
  std::int64_t busy_ns = 0;
  std::uint64_t calls = 0;
  std::uint64_t allocs = 0;
};
SpanSum span_sum(const std::vector<const Span*>& spans, std::string_view name) {
  SpanSum s;
  for (const Span* p : spans) {
    if (name != p->name) continue;
    s.busy_ns += p->busy_ns;
    s.calls += p->calls;
    s.allocs += p->allocs;
  }
  return s;
}

void write_trace(const std::string& path, const PassResult& traced,
                 const LayerTable& table, std::int64_t wall_ns,
                 std::int64_t max_err_ns) {
  std::ofstream f(path);
  const auto emit = [&f](const std::vector<Span>& spans) {
    const std::vector<std::int64_t> self = self_times(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      f << "{\"unit\":" << s.unit << ",\"span\":" << s.id << ",\"parent\":"
        << (s.parent == kNoParent ? std::string("null") : std::to_string(s.parent))
        << ",\"name\":\"" << s.name << "\",\"layer\":\"" << layer_of(s.name)
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"calls\":" << s.calls << ",\"aggregate\":"
        << (s.aggregate ? "true" : "false") << ",\"timed_calls\":" << s.sampled
        << ",\"busy_ns\":" << s.busy_ns
        << ",\"self_ns\":" << self[i] << ",\"allocs\":" << s.allocs << "}\n";
    }
  };
  for (const UnitResult& u : traced.units) emit(u.spans);
  for (const Span& s : traced.extra_spans) emit({s});
  f << "{\"self_time_table\":[";
  bool first = true;
  for (const auto& [layer, row] : table) {
    f << (first ? "" : ",") << "{\"layer\":\"" << layer
      << "\",\"self_ns\":" << row.self_ns << ",\"share\":"
      << number(ratio(static_cast<double>(row.self_ns), static_cast<double>(wall_ns)))
      << ",\"calls\":" << row.calls << ",\"self_allocs\":" << row.self_allocs
      << "}";
    first = false;
  }
  f << "],\"units\":" << traced.units.size() << ",\"unit_wall_ns\":" << wall_ns
    << ",\"max_coverage_error_ns\":" << max_err_ns << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string err;
  if (!parse_args(argc, argv, args, err)) {
    std::fprintf(stderr, "perfbench: %s\n", err.c_str());
    return 2;
  }
  if (!self_test()) return 2;
  const std::unique_ptr<Workload> w = make_workload(args.workload, args.seed);
  if (!w) {
    std::string known;
    for (const std::string& n : workload_names()) known += " " + n;
    std::fprintf(stderr, "perfbench: unknown workload '%s' (known:%s)\n",
                 args.workload.c_str(), known.c_str());
    return 2;
  }

  // --- set-up, several times ---------------------------------------------
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const std::int64_t t0 = now_ns();
    w->setup();
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  // --- untraced pass: end-to-end metrics ----------------------------------
  const std::size_t replay = w->replay_units();
  const PassResult timed = w->run(Budget(args.seconds, replay, SIZE_MAX), false);
  const std::string verify_error = w->verify(timed);

  // --- replays: per-layer metrics, trace overhead, digest oracle ----------
  // The same first units again, untraced and then traced, back to back:
  // their time difference is the tracing overhead, and all three passes
  // must compute identical simulated statistics. Peak RSS is read over
  // the untraced replay: the same work on every host, however many units
  // the timed pass managed.
  const Budget replay_budget(0.0, replay, replay);
  const bool rss_reset = reset_peak_rss();
  const PassResult plain = w->run(replay_budget, false);
  const double rss_mb = peak_rss_mb();
  const PassResult traced = w->run(replay_budget, true);

  // A unit fails if it threw, or if a replay of it computed different
  // simulated statistics.
  std::vector<std::string> failures;
  std::size_t failed = 0;
  for (const UnitResult& u : timed.units) {
    bool bad = !u.ok;
    if (bad) failures.push_back("unit " + std::to_string(u.id) + " threw: " + u.error);
    for (const PassResult* p : {&plain, &traced}) {
      if (u.id >= p->units.size()) continue;
      const UnitResult& r = p->units[u.id];
      const char* pass = p == &plain ? "untraced replay" : "traced replay";
      if (!r.ok) {
        failures.push_back("unit " + std::to_string(u.id) + " threw in the " + pass +
                           ": " + r.error);
        bad = true;
      } else if (r.digest != u.digest) {
        failures.push_back("unit " + std::to_string(u.id) +
                           ": simulated statistics differ in the " + pass);
        bad = true;
      }
    }
    if (bad) ++failed;
  }
  if (!verify_error.empty()) failures.push_back(verify_error);
  if (!rss_reset) failures.push_back("cannot reset the peak RSS (/proc/self/clear_refs)");

  // --- end-to-end ------------------------------------------------------------
  std::vector<double> walls;
  double busy_ns = 0.0, wait_ns = 0.0;
  for (const UnitResult& u : timed.units) {
    if (!u.ok) continue;
    walls.push_back(u.wall_ms());
    busy_ns += static_cast<double>(u.end_ns - u.start_ns);
    wait_ns += static_cast<double>(u.start_ns - u.submit_ns);
  }
  const SimStats all = sum_stats(timed.units, SIZE_MAX);
  const double wall_s = static_cast<double>(timed.wall_ns) / 1e9;
  const bool fleet = std::string_view(w->sim_unit()) == "vehicle-epochs";
  const double steps = static_cast<double>(all[fleet ? kVehicleEpochs : kRounds]);
  const Tail tl = tail(walls);
  const double attempted = static_cast<double>(timed.units.size());

  const std::vector<Metric> e2e = {
      {"setup_s", median(setups), "s"},
      {"sim_steps_per_s", ratio(steps, wall_s), "1/s"},
      {"unit_p50_ms", median(walls), "ms"},
      {"unit_tail_ms", tl.value, "ms"},
      {"peak_rss_mb", rss_mb, "MB"},
  };
  std::vector<Metric> e2e_extra = {
      {fleet ? "vehicle_epochs_per_s" : "rounds_per_s", ratio(steps, wall_s), "1/s"},
      {"unit_tail_pct", tl.percentile, "%"},
      {"units", attempted, "count"},
      {"failed_frac", ratio(static_cast<double>(failed), attempted), "frac"},
  };
  if (!fleet) {
    e2e_extra.push_back({"diag_accuracy",
                         ratio(static_cast<double>(all[kMatched]),
                               static_cast<double>(all[kScored])),
                         "frac"});
  }
  if (all[kSubjects] > 0) {
    e2e_extra.push_back({"recovered_frac",
                         ratio(static_cast<double>(all[kRecovered]),
                               static_cast<double>(all[kSubjects])),
                         "frac"});
  }
  if (fleet || all[kSubjects] > 0) {
    e2e_extra.push_back({"nff_ratio",
                         ratio(static_cast<double>(all[kNffRemovals]),
                               static_cast<double>(all[kRemovals])),
                         "frac"});
  }

  // --- per-layer -------------------------------------------------------------
  LayerTable table;
  std::int64_t max_err = 0;
  std::int64_t unit_wall = 0;
  std::vector<const Span*> spans;
  for (const UnitResult& u : traced.units) {
    // The root span opens just after the unit's clock starts and closes
    // just before it stops: allow 1 us or 0.1 % for that.
    const std::int64_t wall = u.end_ns - u.start_ns;
    const std::int64_t e = std::abs(fold_unit(u.spans, table) - wall);
    if (e > std::max<std::int64_t>(1000, wall / 1000)) {
      failures.push_back("unit " + std::to_string(u.id) +
                         ": span self times do not add up to the unit's wall time");
    }
    max_err = std::max(max_err, e);
    unit_wall += wall;
    for (const Span& s : u.spans) spans.push_back(&s);
  }
  for (const Span& s : traced.extra_spans) {
    fold_unit({s}, table);
    spans.push_back(&s);
  }
  // The only tta span is tta.run, so the layer's self time is run()'s
  // time outside the wrapped hooks.
  const auto tta_row = table.find("tta");
  const std::int64_t residual_ns = tta_row == table.end() ? 0 : tta_row->second.self_ns;

  const SimStats rs = sum_stats(traced.units, replay);
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const auto sec = [](std::int64_t ns) { return static_cast<double>(ns) / 1e9; };
  const SpanSum dispatch = span_sum(spans, "platform.dispatch");
  const SpanSum deliver = span_sum(spans, "vnet.deliver");
  const SpanSum observe = span_sum(spans, "diag.observe");
  const SpanSum read = span_sum(spans, "diag.read");
  const SpanSum inject = span_sum(spans, "fault.inject");
  const SpanSum rig_build = span_sum(spans, "scenario.rig_build");
  const SpanSum batch_build = span_sum(spans, "fleet.batch_build");
  const SpanSum step = span_sum(spans, "fleet.step");
  const SpanSum merge = span_sum(spans, "analysis.merge");
  const double sim_steps = d(rs[fleet ? kVehicleEpochs : kRounds]);
  const double untraced_ns = static_cast<double>(plain.wall_ns);
  const double traced_ns = static_cast<double>(traced.wall_ns);

  const std::vector<Metric> layers = {
      {"sim.events", d(rs[kEvents]), "count"},
      {"sim.events_per_round", ratio(d(rs[kEvents]), sim_steps), "count"},
      {"sim.host_ns_per_event", ratio(static_cast<double>(unit_wall), d(rs[kEvents])), "ns"},
      {"tta.frames_sent", d(rs[kFramesSent]), "count"},
      {"tta.receptions", d(rs[kReceptions]), "count"},
      {"tta.crc_error_frac", ratio(d(rs[kCrcErrors]), d(rs[kReceptions])), "frac"},
      {"tta.residual_s", sec(residual_ns), "s"},
      {"tta.residual_ns_per_reception",
       ratio(static_cast<double>(residual_ns), d(rs[kReceptions])), "ns"},
      {"platform.dispatch_s", sec(dispatch.busy_ns), "s"},
      {"platform.dispatch_calls", d(dispatch.calls), "count"},
      {"platform.dispatch_allocs", d(dispatch.allocs), "count"},
      {"vnet.deliver_s", sec(deliver.busy_ns), "s"},
      {"vnet.deliver_calls", d(deliver.calls), "count"},
      {"vnet.deliver_allocs", d(deliver.allocs), "count"},
      {"vnet.messages_relayed", d(rs[kRelayed]), "count"},
      {"vnet.overflows", d(rs[kOverflows]), "count"},
      {"diag.observe_s", sec(observe.busy_ns), "s"},
      {"diag.observe_calls", d(observe.calls), "count"},
      {"diag.observe_allocs", d(observe.allocs), "count"},
      {"diag.symptoms_ingested", d(rs[kSymptoms]), "count"},
      {"diag.dedupe_useful_frac",
       ratio(d(rs[kSymptoms]), d(rs[kSymptoms]) + d(rs[kDuplicates])), "frac"},
      {"diag.tester_accepted", d(rs[kTesterAccepted]), "count"},
      {"diag.retransmissions", d(rs[kRetransmissions]), "count"},
      {"diag.classifications", d(rs[kClassifications]), "count"},
      {"diag.deltas_forwarded", d(rs[kDeltasForwarded]), "count"},
      {"diag.delta_useful_frac",
       ratio(d(rs[kDeltasAccepted]), d(rs[kDeltasAccepted]) + d(rs[kDeltasDuplicate])),
       "frac"},
      {"diag.failovers", d(rs[kFailovers]), "count"},
      {"diag.read_s", sec(read.busy_ns), "s"},
      {"diag.read_calls", d(read.calls), "count"},
      {"fault.inject_s", sec(inject.busy_ns), "s"},
      {"fault.injections", d(rs[kInjections]), "count"},
      {"fault.chaos_dropped", d(rs[kChaosDropped]), "count"},
      {"fault.chaos_corrupted", d(rs[kChaosCorrupted]), "count"},
      {"maintenance.work_orders", d(rs[kWorkOrders]), "count"},
      {"maintenance.repairs_verified", d(rs[kRepairsVerified]), "count"},
      {"maintenance.retries", d(rs[kMaintRetries]), "count"},
      {"scenario.rig_build_s", sec(rig_build.busy_ns), "s"},
      {"scenario.rig_build_allocs", d(rig_build.allocs), "count"},
      {"fleet.batch_build_s", sec(batch_build.busy_ns), "s"},
      {"fleet.step_s", sec(step.busy_ns), "s"},
      {"fleet.ns_per_vehicle_epoch",
       ratio(static_cast<double>(step.busy_ns), d(rs[kVehicleEpochs])), "ns"},
      {"fleet.steady_allocs", d(w->steady_allocs()), "count"},
      {"analysis.merge_s", sec(merge.busy_ns), "s"},
      {"exec.worker_busy_frac",
       ratio(busy_ns, static_cast<double>(timed.workers) * static_cast<double>(timed.wall_ns)),
       "frac"},
      {"exec.queue_wait_ms", ratio(wait_ns / 1e6, attempted), "ms"},
      {"obs.trace_overhead_frac", ratio(traced_ns, untraced_ns) - 1.0, "frac"},
  };

  // --- report ----------------------------------------------------------------
  std::error_code ec;
  std::filesystem::create_directories(args.out, ec);
  const std::string trace_path = args.out + "/" + args.workload + "-seed" +
                                 std::to_string(args.seed) + ".trace.ndjson";
  write_trace(trace_path, traced, table, unit_wall, max_err);

  std::printf("== perfbench %s seed %" PRIu64 " ==\n", args.workload.c_str(), args.seed);
  std::printf("end to end (untraced pass, %zu units, %.2f s, host time unless noted)\n",
              timed.units.size(), wall_s);
  for (const std::vector<Metric>* list : {&e2e, &std::as_const(e2e_extra)}) {
    for (const Metric& m : *list) {
      std::printf("  %-28s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  std::printf("  (set-up runs:");
  for (const double s : setups) std::printf(" %.4f", s);
  std::printf(" s; sim_steps counted in %s)\n", w->sim_unit());
  std::printf("per layer (traced replay of units 0..%zu; counts are simulated, exact)\n",
              replay - 1);
  for (const Metric& m : layers) {
    std::printf("  %-30s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("self time by layer (traced replay, %.3f s of unit wall time)\n",
              sec(unit_wall));
  std::printf("  %-12s %12s %8s %12s %12s\n", "layer", "self_s", "share", "calls",
              "self_allocs");
  for (const auto& [layer, row] : table) {
    std::printf("  %-12s %12.6f %7.1f%% %12" PRIu64 " %12" PRIu64 "\n", layer.c_str(),
                sec(row.self_ns),
                100.0 * ratio(static_cast<double>(row.self_ns), static_cast<double>(unit_wall)),
                row.calls, row.self_allocs);
  }
  std::uint64_t clamped = 0;
  for (const UnitResult& u : traced.units) clamped += u.clamped;
  std::printf("  spans written to %s (max coverage error %" PRId64
              " ns, %" PRIu64 " sampled estimates clamped to their parent)\n",
              trace_path.c_str(), max_err, clamped);
  // One fingerprint of the replayed units' simulated statistics: equal on
  // every run of a seed, on any host.
  std::uint64_t fingerprint = 0xCBF29CE484222325ull;
  for (std::size_t i = 0; i < replay && i < timed.units.size(); ++i) {
    fingerprint = (fingerprint ^ timed.units[i].digest) * 0x100000001B3ull;
  }
  std::printf("simulated-statistics digest of units 0..%zu: %016" PRIx64 "\n",
              replay - 1, fingerprint);
  for (const std::string& f : failures) std::printf("FAILED: %s\n", f.c_str());

  const bool correct = failures.empty() && !timed.units.empty();
  std::string json = "{\"correct\":" + std::string(correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(timed.units.size()) +
                     ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
  bool first = true;
  for (const Metric& m : args.trace == 1 ? layers : e2e) {
    json += (first ? "\"" : ",\"") + json_escape(m.name) + "\":{\"value\":" +
            number(m.value) + ",\"unit\":\"" + json_escape(m.unit) + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
