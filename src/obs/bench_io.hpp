// Shared bench harness I/O: command-line flags and the --json snapshot
// export.
//
// Every bench constructs a BenchReporter from argv, takes the flags it
// serves itself (a flag no one takes fails the run), absorbs the metrics
// registries of the simulations it ran (snapshots merge: counters and
// histograms add across runs), tags headline scalars with set_info(),
// and returns finish() from main. When the user passed `--json <path>`
// the merged snapshot is written as
//
//   {"bench": <name>, "info": {...}, "metrics": {counters/gauges/histograms}}
//
// giving the repo a machine-readable BENCH_*.json trajectory next to the
// human-readable tables the benches keep printing.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace decos::obs {

class BenchReporter {
 public:
  /// Parses and strips `--json <path>`, `--csv <path>`, `--seed <n>`,
  /// `--seeds <n,n,...>`, `--jobs <n>`, `--trace <path>` and
  /// `--trace-cap <n>` from argv. The bench takes its own flags from the
  /// rest with flag()/value()/count()/number(), or hands the rest on with
  /// argv(); finish() fails the run on any argument left untaken. A
  /// missing or malformed value, here or in a bench flag, prints an error
  /// and exits 1 at once, before the bench does any work.
  BenchReporter(std::string bench_name, int argc, char** argv);

  /// Folds a registry (or pre-built snapshot) into the bench snapshot.
  void absorb(const Registry& registry) { snapshot_.merge(registry.snapshot()); }
  void absorb(const Snapshot& snapshot) { snapshot_.merge(snapshot); }

  /// Headline scalar result, exported under "info".
  void set_info(std::string key, double value);

  /// Seeds for the bench's campaign: the `--seed`/`--seeds` override if
  /// given, else `fallback`. Whatever is returned is also echoed in the
  /// --json export under "seeds", so every snapshot records the exact
  /// seed list that produced it.
  [[nodiscard]] std::vector<std::uint64_t> seeds_or(
      std::vector<std::uint64_t> fallback);

  /// Worker threads for the bench's experiment sweeps: the `--jobs <n>`
  /// override if given, else the hardware concurrency (`--jobs 1` is the
  /// serial path; an explicit `--jobs 0` is rejected as a flag error —
  /// omit the flag to get hardware concurrency). The resolved value is
  /// echoed in the --json export under "jobs". The
  /// exec::ExperimentRunner's ordered merge makes the results identical
  /// for every value — this knob only trades wall-clock for cores.
  [[nodiscard]] unsigned jobs() const;

  [[nodiscard]] bool json_requested() const { return !json_path_.empty(); }
  [[nodiscard]] const Snapshot& snapshot() const { return snapshot_; }

  /// Standardized trace export: `--trace <path>` asks the bench to run
  /// with provenance tracing and dump the NDJSON journey record there;
  /// `--trace-cap <n>` bounds the per-run span arena (default 1<<16).
  /// The bench hands the payload over via set_trace_payload(); finish()
  /// writes it and echoes "trace"/"trace_cap" in the --json export.
  [[nodiscard]] bool trace_requested() const { return !trace_path_.empty(); }
  [[nodiscard]] const std::string& trace_path() const { return trace_path_; }
  [[nodiscard]] std::size_t trace_cap() const { return trace_cap_; }
  void set_trace_payload(std::string ndjson) {
    trace_payload_ = std::move(ndjson);
  }

  /// The bench's own flags. Each call takes its flag out of the remaining
  /// arguments: flag() a bare `name`, the others `name <value>`, returning
  /// nullopt when the flag is absent. A missing or malformed value exits
  /// the process with 1. Taken values are echoed in the --json export,
  /// keyed by the flag name without its dashes (`--max-points` ->
  /// "max_points").
  [[nodiscard]] bool flag(std::string_view name);
  [[nodiscard]] std::optional<std::string> value(std::string_view name);
  /// A whole number >= 1.
  [[nodiscard]] std::optional<std::size_t> count(std::string_view name);
  /// A number in [lo, hi].
  [[nodiscard]] std::optional<double> number(std::string_view name, double lo,
                                             double hi);

  /// The remaining arguments, for a bench that forwards them
  /// (google-benchmark), which then owns their validation:
  /// argv()[argc()] == nullptr.
  [[nodiscard]] int argc() const { return static_cast<int>(args_.size()) - 1; }
  [[nodiscard]] char** argv() {
    forwarded_ = true;
    return args_.data();
  }

  /// Writes the requested exports. Returns 0 on success (also when no
  /// export was requested), 1 on write failure or an argument the bench
  /// did not take — i.e. main's exit code.
  [[nodiscard]] int finish() const;

 private:
  std::string bench_;
  std::string json_path_;
  std::string csv_path_;
  std::string trace_path_;
  std::string trace_payload_;
  std::size_t trace_cap_ = 1 << 16;
  std::vector<char*> args_;  // non-owning views into the original argv
  bool forwarded_ = false;   // argv() handed the rest on
  /// Taken bench flags for the --json export: key, JSON-encoded value.
  std::vector<std::pair<std::string, std::string>> echoes_;
  std::vector<std::uint64_t> seeds_;  // resolved by seeds_or()
  unsigned jobs_ = 0;  // 0 = hardware concurrency
  Snapshot snapshot_;
  std::vector<std::pair<std::string, double>> info_;

  /// Takes `name` (and its value when `has_value`) out of args_; nullopt
  /// when absent or its value is missing.
  std::optional<std::string> take(std::string_view name, bool has_value);
  void echo(std::string_view name, std::string json_value);
};

}  // namespace decos::obs
