#include "obs/bench_io.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <thread>

#include "obs/export.hpp"

namespace decos::obs {
namespace {

/// Parses "1,2,3" into seeds. Returns false — leaving `out` untouched —
/// on an empty list, any malformed or out-of-range entry, or a duplicate
/// seed (a duplicate would silently skew per-seed statistics).
bool parse_seed_list(std::string_view text, std::vector<std::uint64_t>& out) {
  std::vector<std::uint64_t> parsed;
  while (!text.empty()) {
    const std::size_t comma = text.find(',');
    const std::string token(text.substr(0, comma));
    text = comma == std::string_view::npos ? std::string_view{}
                                           : text.substr(comma + 1);
    if (token.empty()) return false;
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(token.c_str(), &end, 10);
    if (end == token.c_str() || *end != '\0' || errno == ERANGE) return false;
    if (std::find(parsed.begin(), parsed.end(), v) != parsed.end()) {
      return false;
    }
    parsed.push_back(v);
  }
  if (parsed.empty()) return false;
  out = std::move(parsed);
  return true;
}

/// Parses a whole decimal number; false on empty, malformed or
/// out-of-range text.
bool parse_whole(const char* text, unsigned long& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long v = std::strtoul(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) return false;
  out = v;
  return true;
}

/// A malformed flag ends the run before the bench does any work.
[[noreturn, gnu::format(printf, 1, 2)]] void reject(const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::exit(1);
}

}  // namespace

BenchReporter::BenchReporter(std::string bench_name, int argc, char** argv)
    : bench_(std::move(bench_name)) {
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool known = arg == "--json" || arg == "--csv" ||
                       arg == "--trace" || arg == "--trace-cap" ||
                       arg == "--jobs" || arg == "--seed" || arg == "--seeds";
    if (!known) {
      args_.push_back(argv[i]);
      continue;
    }
    if (i + 1 >= argc) {
      reject("error: %.*s requires a value\n", static_cast<int>(arg.size()),
             arg.data());
    }
    const char* value = argv[++i];
    unsigned long v = 0;
    if (arg == "--json" || arg == "--csv" || arg == "--trace") {
      (arg == "--json" ? json_path_ : arg == "--csv" ? csv_path_
                                                     : trace_path_) = value;
    } else if (arg == "--trace-cap") {
      if (!parse_whole(value, v) || v == 0) {
        reject("error: --trace-cap wants a number >= 1, got '%s'\n", value);
      }
      trace_cap_ = static_cast<std::size_t>(v);
    } else if (arg == "--jobs") {
      if (!parse_whole(value, v)) {
        reject("error: --jobs wants a number, got '%s'\n", value);
      }
      if (v == 0) {
        reject("error: --jobs must be >= 1 (omit the flag to use hardware "
               "concurrency)\n");
      }
      jobs_ = static_cast<unsigned>(v);
    } else if (!parse_seed_list(value, seeds_)) {
      reject("error: %.*s wants a non-empty list of distinct integers (N or "
             "N,N,...), got '%s'\n",
             static_cast<int>(arg.size()), arg.data(), value);
    }
  }
  args_.push_back(nullptr);
}

std::optional<std::string> BenchReporter::take(std::string_view name,
                                               bool has_value) {
  // args_[0] is the program name and args_.back() the terminating nullptr.
  for (std::size_t i = 1; i + 1 < args_.size(); ++i) {
    if (name != args_[i]) continue;
    if (!has_value) {
      args_.erase(args_.begin() + static_cast<std::ptrdiff_t>(i));
      return std::string();
    }
    if (i + 2 >= args_.size()) {
      reject("error: %.*s requires a value\n", static_cast<int>(name.size()),
             name.data());
    }
    std::string value = args_[i + 1];
    args_.erase(args_.begin() + static_cast<std::ptrdiff_t>(i),
                args_.begin() + static_cast<std::ptrdiff_t>(i + 2));
    return value;
  }
  return std::nullopt;
}

void BenchReporter::echo(std::string_view name, std::string json_value) {
  std::string key(name.substr(name.find_first_not_of('-')));
  std::replace(key.begin(), key.end(), '-', '_');
  echoes_.emplace_back(std::move(key), std::move(json_value));
}

bool BenchReporter::flag(std::string_view name) {
  return take(name, false).has_value();
}

std::optional<std::string> BenchReporter::value(std::string_view name) {
  auto v = take(name, true);
  if (v) echo(name, std::string("\"").append(json_escape(*v)).append("\""));
  return v;
}

std::optional<std::size_t> BenchReporter::count(std::string_view name) {
  const auto text = take(name, true);
  if (!text) return std::nullopt;
  unsigned long v = 0;
  if (!parse_whole(text->c_str(), v) || v == 0) {
    reject("error: %.*s wants a number >= 1, got '%s'\n",
           static_cast<int>(name.size()), name.data(), text->c_str());
  }
  echo(name, std::to_string(v));
  return static_cast<std::size_t>(v);
}

std::optional<double> BenchReporter::number(std::string_view name, double lo,
                                            double hi) {
  const auto text = take(name, true);
  if (!text) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text->c_str(), &end);
  if (end == text->c_str() || *end != '\0' || errno == ERANGE ||
      !(v >= lo && v <= hi)) {
    reject("error: %.*s wants a number in [%g, %g], got '%s'\n",
           static_cast<int>(name.size()), name.data(), lo, hi, text->c_str());
  }
  echo(name, json_number(v));
  return v;
}

unsigned BenchReporter::jobs() const {
  if (jobs_ != 0) return jobs_;
  return std::max(1u, std::thread::hardware_concurrency());
}

std::vector<std::uint64_t> BenchReporter::seeds_or(
    std::vector<std::uint64_t> fallback) {
  if (seeds_.empty()) seeds_ = std::move(fallback);
  return seeds_;
}

void BenchReporter::set_info(std::string key, double value) {
  for (auto& [k, v] : info_) {
    if (k == key) {
      v = value;
      return;
    }
  }
  info_.emplace_back(std::move(key), value);
}

int BenchReporter::finish() const {
  bool ok = true;
  if (!forwarded_ && args_.size() > 2) {
    std::string rest;
    for (std::size_t i = 1; i + 1 < args_.size(); ++i) {
      rest += std::string(" ") + args_[i];
    }
    std::fprintf(stderr, "error: %s does not take:%s\n", bench_.c_str(),
                 rest.c_str());
    ok = false;
  }
  if (!json_path_.empty()) {
    std::string json = "{\"bench\":\"" + json_escape(bench_) + "\",\"info\":{";
    bool first = true;
    for (const auto& [k, v] : info_) {
      if (!first) json += ",";
      first = false;
      json += "\"" + json_escape(k) + "\":" + json_number(v);
    }
    json += "},\"seeds\":[";
    for (std::size_t i = 0; i < seeds_.size(); ++i) {
      if (i) json += ",";
      json += std::to_string(seeds_[i]);
    }
    json += "],\"jobs\":" + std::to_string(jobs());
    if (!trace_path_.empty()) {
      json += ",\"trace\":\"" + json_escape(trace_path_) +
              "\",\"trace_cap\":" + std::to_string(trace_cap_);
    }
    for (const auto& [key, value] : echoes_) {
      json += ",\"" + key + "\":" + value;
    }
    json += ",\"metrics\":" + to_json(snapshot_) + "}\n";
    if (!write_file(json_path_, json)) {
      std::fprintf(stderr, "error: could not write %s\n", json_path_.c_str());
      ok = false;
    } else {
      std::fprintf(stderr, "wrote metrics snapshot to %s\n", json_path_.c_str());
    }
  }
  if (!csv_path_.empty()) {
    if (!write_file(csv_path_, to_csv(snapshot_))) {
      std::fprintf(stderr, "error: could not write %s\n", csv_path_.c_str());
      ok = false;
    }
  }
  if (!trace_path_.empty()) {
    if (!write_file(trace_path_, trace_payload_)) {
      std::fprintf(stderr, "error: could not write %s\n", trace_path_.c_str());
      ok = false;
    } else {
      std::fprintf(stderr, "wrote journey trace to %s\n", trace_path_.c_str());
    }
  }
  return ok ? 0 : 1;
}

}  // namespace decos::obs
