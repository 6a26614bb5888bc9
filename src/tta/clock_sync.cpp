#include "tta/clock_sync.hpp"

#include <algorithm>
#include <numeric>

namespace decos::tta {

void FtaClockSync::record(NodeId, sim::Duration deviation) {
  measurements_.push_back(deviation);
}

sim::Duration FtaClockSync::finish_round() {
  // Sorted and averaged in place, then cleared: the buffer keeps its
  // capacity, so a steady-state round allocates nothing.
  auto& m = measurements_;
  const std::size_t k = p_.k;
  if (m.size() < 2 * k + 1) {
    m.clear();
    return sim::Duration{0};
  }

  std::sort(m.begin(), m.end());
  const auto first = m.begin() + static_cast<std::ptrdiff_t>(k);
  const auto last = m.end() - static_cast<std::ptrdiff_t>(k);

  std::int64_t sum = 0;
  for (auto it = first; it != last; ++it) sum += it->ns();
  const auto n = static_cast<std::int64_t>(last - first);
  const double mean = static_cast<double>(sum) / static_cast<double>(n);
  m.clear();

  // Deviation positive = local clock fast => move local time forward by a
  // negative correction (local perceives others late; shifting the local
  // clock back aligns it).
  return sim::Duration{static_cast<std::int64_t>(p_.gain * mean)};
}

}  // namespace decos::tta
