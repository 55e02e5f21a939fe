#include "model/clocks.hpp"

#include <algorithm>

namespace dbfs::model {

void VirtualClocks::collective(std::span<const int> group,
                               double transfer_seconds) {
  double start = 0.0;
  for (int r : group) {
    start = std::max(start, now_[static_cast<std::size_t>(r)]);
  }
  const double end = start + transfer_seconds;
  for (int r : group) {
    const auto i = static_cast<std::size_t>(r);
    comm_[i] += end - now_[i];
    now_[i] = end;
  }
  if (group.empty()) return;
  if (transfer_seconds >= 0.0) {
    max_now_ = std::max(max_now_, end);
  } else {
    rescan_max();  // members moved back to a negative-cost end
  }
}

void VirtualClocks::rescan_max() noexcept {
  max_now_ = 0.0;
  for (double t : now_) max_now_ = std::max(max_now_, t);
}

void VirtualClocks::seed(double t) {
  for (double& n : now_) n = std::max(n, t);
  if (!now_.empty()) max_now_ = std::max(max_now_, t);
}

void VirtualClocks::reset() {
  std::fill(now_.begin(), now_.end(), 0.0);
  std::fill(comp_.begin(), comp_.end(), 0.0);
  std::fill(comm_.begin(), comm_.end(), 0.0);
  max_now_ = 0.0;
}

}  // namespace dbfs::model
