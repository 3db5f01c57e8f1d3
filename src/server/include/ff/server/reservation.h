#pragma once

// ATOMS-style resource reservation (paper §V-B): clients declare demand
// and a central manager water-fills the server's estimated capacity among
// them. Implemented as the idealized best case -- the control plane is
// instantaneous and loss-free (the real ATOMS needs clock sync and RTT
// estimation on top). Even so, it is blind to network conditions and to
// tenants that bypass the reservation system, which is the paper's
// criticism; the comparison bench makes both failure modes measurable.

#include <cstdint>
#include <map>

#include "ff/util/units.h"

namespace ff::server {

struct ReservationConfig {
  /// The manager's belief about server capacity, frames/second.
  double capacity_fps{150.0};
};

class ReservationManager {
 public:
  explicit ReservationManager(ReservationConfig config);

  /// Declares (or updates) a client's demand and returns its current
  /// grant. Grants of other clients may change as a side effect
  /// (water-filling is global).
  double request(std::uint64_t client_id, double demand_fps);

  /// Removes a client; its share is redistributed.
  void release(std::uint64_t client_id);

  /// Current grant for a client (0 when unknown).
  [[nodiscard]] double granted(std::uint64_t client_id) const;

  [[nodiscard]] double total_granted() const;
  [[nodiscard]] std::size_t client_count() const { return demands_.size(); }
  [[nodiscard]] const ReservationConfig& config() const { return config_; }

 private:
  void recompute();

  ReservationConfig config_;
  std::map<std::uint64_t, double> demands_;
  std::map<std::uint64_t, double> grants_;
};

}  // namespace ff::server
