// The service technician's report — the human-facing end of the pipeline.
//
// Renders the per-FRU maintenance rows (trust level as a bar, diagnosis,
// recommended action, the rationale of the verdict's rule) plus the
// asserted Out-of-Norm Assertions into the fixed-width text a workshop
// terminal would show.
#pragma once

#include <string>
#include <vector>

#include "diag/service.hpp"

namespace decos::analysis {

/// Renders the FRU rows of a DiagnosticService::report(), hiding FRUs
/// with full trust and no diagnosis.
[[nodiscard]] std::string render_technician_report(
    const std::vector<diag::FruReport>& rows);

}  // namespace decos::analysis
