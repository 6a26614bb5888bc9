// LIF specifications of application ports.
//
// The Linking Interface specification (Kopetz & Suri) is what makes
// out-of-norm detection possible: it states, per output port, the legal
// value range and the temporal send pattern. Diagnostic agents check every
// locally emitted message against the spec of its port.
#pragma once

#include <cstdint>
#include <map>

#include "platform/types.hpp"

namespace decos::diag {

struct PortSpec {
  double min_value = -1e308;
  double max_value = 1e308;
  /// Specified send period in rounds (0 = aperiodic, no gap checking).
  std::uint32_t period_rounds = 1;
  /// Gap tolerance: a message-gap symptom fires after this many missed
  /// periods (sporadic single misses are below the LIF's alarm bar).
  std::uint32_t gap_tolerance_periods = 2;
};

class SpecTable {
 public:
  void set(platform::PortId port, PortSpec spec) { specs_[port] = spec; }

  [[nodiscard]] const std::map<platform::PortId, PortSpec>& all() const {
    return specs_;
  }

 private:
  std::map<platform::PortId, PortSpec> specs_;
};

}  // namespace decos::diag
