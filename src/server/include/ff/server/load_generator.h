#pragma once

// Background request injection: the paper's "other devices" that ramp
// multi-tenant load up and down (Table VI). Arrivals are Poisson at the
// scheduled rate and go straight into the server (their own network is not
// the variable under test).

#include <cstdint>
#include <string>
#include <vector>

#include "ff/server/edge_server.h"
#include "ff/sim/simulator.h"

namespace ff::server {

/// One phase of a load schedule, active from `start` until the next phase.
struct LoadPhase {
  SimTime start{0};
  Rate rate{};  ///< aggregate background request rate
};

class LoadSchedule {
 public:
  LoadSchedule() = default;

  LoadSchedule& add(SimTime start, Rate rate);

  [[nodiscard]] const std::vector<LoadPhase>& phases() const { return phases_; }
  [[nodiscard]] bool empty() const { return phases_.empty(); }

  /// Rate in force at `t` (zero before the first phase).
  [[nodiscard]] Rate at(SimTime t) const;

  /// The paper's Table VI schedule.
  [[nodiscard]] static LoadSchedule paper_table_vi();

  /// Constant background rate from t=0.
  [[nodiscard]] static LoadSchedule constant(Rate rate);

 private:
  std::vector<LoadPhase> phases_;
};

struct LoadGeneratorConfig {
  std::string name{"load-gen"};
  models::ModelId model{models::ModelId::kMobileNetV3Small};
  Bytes payload{Bytes{18000}};
  std::uint64_t client_id{1'000'000};  ///< distinct from real devices
};

/// Drives an EdgeServer with requests following a LoadSchedule.
class LoadGenerator {
 public:
  LoadGenerator(sim::Simulator& sim, EdgeServer& server, LoadSchedule schedule,
                LoadGeneratorConfig config);

  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Begins injecting; idempotent.
  void start();

  [[nodiscard]] std::uint64_t requests_sent() const { return sent_; }
  [[nodiscard]] std::uint64_t requests_completed() const { return completed_; }
  [[nodiscard]] std::uint64_t requests_rejected() const { return rejected_; }

  /// Scheduled rate right now.
  [[nodiscard]] Rate current_rate() const { return schedule_.at(sim_.now()); }

 private:
  void arm_next();
  void fire();

  sim::Simulator& sim_;
  EdgeServer& server_;
  LoadSchedule schedule_;
  LoadGeneratorConfig config_;
  Rng rng_;
  bool started_{false};
  std::uint64_t sent_{0};
  std::uint64_t completed_{0};
  std::uint64_t rejected_{0};
  std::uint64_t next_request_id_{1};
};

}  // namespace ff::server
