#include "diag/log.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string_view>

namespace decos::diag {

std::string DiagnosticLog::serialize() const {
  std::string out;
  // Worst-case line: 20 (round) + 2 + 4 + 4 + 12 (job) + 17 (%.9g) +
  // 5 separators + newline ~= 64 bytes; typical lines are under 32.
  out.reserve(symptoms_.size() * 48);
  char buf[128];
  for (const Symptom& s : symptoms_) {
    std::snprintf(buf, sizeof buf, "%llu %u %u %u %d %.9g\n",
                  static_cast<unsigned long long>(s.round),
                  static_cast<unsigned>(s.type), s.observer,
                  s.subject_component,
                  s.subject_job ? static_cast<int>(*s.subject_job) : -1,
                  s.magnitude);
    out += buf;
  }
  return out;
}

namespace {

// Parses one whole token as T. from_chars range-checks and takes no sign
// for unsigned types, so "-1" as an observer or "70000" as a JobId fail
// instead of wrapping.
template <typename T>
bool parse_field(std::string_view token, T& out) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

}  // namespace

std::optional<DiagnosticLog> DiagnosticLog::parse(const std::string& text) {
  constexpr std::string_view kBlank = " \t\r";
  DiagnosticLog log;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    // Exactly six fields. A seventh is trailing garbage: the line is not
    // ours, so reject rather than silently truncate (the log is legal
    // evidence in the garage loop).
    std::array<std::string_view, 6> field;
    std::size_t n = 0;
    std::string_view rest = line;
    for (auto at = rest.find_first_not_of(kBlank); at != std::string_view::npos;
         at = rest.find_first_not_of(kBlank)) {
      if (n == field.size()) return std::nullopt;
      rest.remove_prefix(at);
      const std::size_t len = std::min(rest.find_first_of(kBlank), rest.size());
      field[n++] = rest.substr(0, len);
      rest.remove_prefix(len);
    }
    if (n != field.size()) return std::nullopt;
    Symptom s;
    unsigned type = 0;
    if (!parse_field(field[0], s.round) || !parse_field(field[1], type) ||
        !parse_field(field[2], s.observer) ||
        !parse_field(field[3], s.subject_component) ||
        !parse_field(field[5], s.magnitude)) {
      return std::nullopt;
    }
    if (type < 1 || type > 8) return std::nullopt;
    s.type = static_cast<SymptomType>(type);
    if (field[4] != "-1") {
      platform::JobId job = 0;
      if (!parse_field(field[4], job)) return std::nullopt;
      s.subject_job = job;
    }
    log.symptoms_.push_back(s);
  }
  return log;
}

bool DiagnosticLog::save(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << serialize();
  return static_cast<bool>(out);
}

std::optional<DiagnosticLog> DiagnosticLog::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse(buf.str());
}

void DiagnosticLog::replay_into(EvidenceStore& store) const {
  for (const Symptom& s : symptoms_) store.ingest(s);
}

}  // namespace decos::diag
