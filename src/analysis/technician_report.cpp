#include "analysis/technician_report.hpp"

#include <cstdio>

namespace decos::analysis {
namespace {

/// Width of the trust bar in characters.
constexpr int kBarWidth = 10;

}  // namespace

std::string render_technician_report(const std::vector<diag::FruReport>& rows) {
  std::string out;
  char buf[512];
  out += "FRU                                   trust        diagnosis"
         "               action\n";
  out += "--------------------------------------------------------------"
         "--------------------------\n";
  for (const auto& row : rows) {
    if (row.diagnosis.cls == fault::FaultClass::kNone && row.trust > 0.99) {
      continue;
    }
    // Trust bar: filled proportional to trust.
    std::string bar;
    const int filled = static_cast<int>(row.trust * kBarWidth + 0.5);
    for (int i = 0; i < kBarWidth; ++i) {
      bar += i < filled ? '#' : '.';
    }
    std::snprintf(buf, sizeof buf, "%-36s [%s] %-22s %s\n",
                  row.label().c_str(), bar.c_str(),
                  fault::to_string(row.diagnosis.cls),
                  fault::to_string(row.action));
    out += buf;
    if (row.diagnosis.cls != fault::FaultClass::kNone) {
      std::snprintf(buf, sizeof buf, "%-36s   \"%s\"\n", "",
                    diag::rationale(row.diagnosis).c_str());
      out += buf;
    }
    if (!row.asserted_onas.empty()) {
      std::string onas;
      for (const diag::Ona ona : row.asserted_onas) {
        if (!onas.empty()) onas += ", ";
        onas += diag::to_string(ona);
      }
      std::snprintf(buf, sizeof buf, "%-36s   ONAs asserted: %s\n", "",
                    onas.c_str());
      out += buf;
    }
  }
  return out;
}

}  // namespace decos::analysis
