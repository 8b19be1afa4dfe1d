#include "sim/dispatch.hpp"

#include <algorithm>

namespace radiocast::sim {

const char* to_string(DispatchKind k) {
  switch (k) {
    case DispatchKind::kAuto: return "auto";
    case DispatchKind::kScan: return "scan";
    case DispatchKind::kActiveSet: return "active";
  }
  return "?";
}

std::optional<DispatchKind> parse_dispatch(std::string_view name) {
  if (name == "auto") return DispatchKind::kAuto;
  if (name == "scan") return DispatchKind::kScan;
  if (name == "active") return DispatchKind::kActiveSet;
  return std::nullopt;
}

void WakeCalendar::gather(std::uint64_t round, std::vector<NodeId>& woken) {
  now_ = round;
  woken.clear();
  while (!far_.empty() && far_.top().first < now_ + kSlots) {
    const auto [r, v] = far_.top();
    far_.pop();
    if (wake_round_[v] == r) ring_[r % kSlots].push_back(v);
  }
  auto& bucket = ring_[now_ % kSlots];
  for (const NodeId v : bucket) {
    if (wake_round_[v] == now_) {
      // Clearing the wake also deduplicates: a second entry for the same
      // (node, round) no longer matches.
      wake_round_[v] = kNoWake;
      woken.push_back(v);
    }
  }
  bucket.clear();
  // Bucket pushes arrive as a few ascending runs (poll order, then delivery
  // order), so the list is usually already sorted; backends require strictly
  // increasing transmitter ids, which polling in id order guarantees.
  if (!std::is_sorted(woken.begin(), woken.end())) {
    std::sort(woken.begin(), woken.end());
  }
}

}  // namespace radiocast::sim
