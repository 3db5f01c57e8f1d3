#include "ff/server/reservation.h"

#include <algorithm>
#include <vector>

namespace ff::server {
namespace {

/// Grant at most this fraction of believed capacity (headroom for
/// batching latency).
constexpr double kSafetyFactor = 0.9;

}  // namespace

ReservationManager::ReservationManager(ReservationConfig config)
    : config_(config) {}

double ReservationManager::request(std::uint64_t client_id, double demand_fps) {
  demands_[client_id] = std::max(demand_fps, 0.0);
  recompute();
  return grants_[client_id];
}

void ReservationManager::release(std::uint64_t client_id) {
  demands_.erase(client_id);
  grants_.erase(client_id);
  recompute();
}

double ReservationManager::granted(std::uint64_t client_id) const {
  const auto it = grants_.find(client_id);
  return it == grants_.end() ? 0.0 : it->second;
}

double ReservationManager::total_granted() const {
  double sum = 0.0;
  for (const auto& [id, g] : grants_) sum += g;
  return sum;
}

void ReservationManager::recompute() {
  grants_.clear();
  if (demands_.empty()) return;

  double remaining = config_.capacity_fps * kSafetyFactor;

  // Water-filling: satisfy the smallest demands first; split what is left
  // equally among the still-unsatisfied.
  std::vector<std::pair<double, std::uint64_t>> by_demand;
  by_demand.reserve(demands_.size());
  for (const auto& [id, d] : demands_) by_demand.emplace_back(d, id);
  std::sort(by_demand.begin(), by_demand.end());

  std::size_t left = by_demand.size();
  for (const auto& [demand, id] : by_demand) {
    const double fair = remaining / static_cast<double>(left);
    const double grant = std::min(demand, fair);
    grants_[id] = grant;
    remaining -= grant;
    --left;
  }
}

}  // namespace ff::server
