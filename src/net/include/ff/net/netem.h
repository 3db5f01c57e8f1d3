#pragma once

// Scheduled link-condition changes: the in-simulator equivalent of the
// paper's NetEm scripting (Table V), applied to any number of links.

#include <string>
#include <vector>

#include "ff/net/link.h"
#include "ff/sim/simulator.h"

namespace ff::net {

/// One phase of a network schedule, active from `start` until the next
/// phase begins (the last phase runs forever).
struct NetemPhase {
  SimTime start{0};
  LinkConditions conditions{};
  std::string label;
};

class NetemSchedule {
 public:
  NetemSchedule() = default;
  explicit NetemSchedule(std::vector<NetemPhase> phases);

  /// Adds a phase; phases must be appended in increasing start order, and
  /// the loss probability must lie in [0, 1] (std::invalid_argument
  /// otherwise, NaN included).
  NetemSchedule& add(SimTime start, LinkConditions conditions,
                     std::string label = "");

  [[nodiscard]] const std::vector<NetemPhase>& phases() const {
    return phases_;
  }
  [[nodiscard]] bool empty() const { return phases_.empty(); }

  /// Conditions in force at time `t` (first phase's conditions before it
  /// starts; default LinkConditions when the schedule is empty).
  [[nodiscard]] LinkConditions at(SimTime t) const;

  /// Index of the phase in force at `t` (0 when before the first phase).
  [[nodiscard]] std::size_t phase_index_at(SimTime t) const;

  /// Schedules a `set_conditions` call on `link` at each phase start, on
  /// the link's own simulator. The link must outlive the simulation run.
  void apply(Link& link) const;

  /// Minimum propagation delay over all phases (SimDuration max when the
  /// schedule is empty -- callers fold in the links' initial conditions).
  /// This is the schedule's contribution to a partitioned run's lookahead:
  /// no delivery crosses a partition boundary faster than this.
  [[nodiscard]] SimDuration min_propagation_delay() const;

  /// The paper's Table V schedule. Bandwidth values are the table's
  /// 10/4/1 figures scaled by `bandwidth_unit` (defaults to Mbps -- see
  /// DESIGN.md "Unit note").
  [[nodiscard]] static NetemSchedule paper_table_v(
      Bandwidth bandwidth_unit = Bandwidth::mbps(1.0));

  /// Constant conditions from t=0.
  [[nodiscard]] static NetemSchedule constant(LinkConditions conditions);

  /// Fig. 2's scenario: ideal network, then `loss` starting at `at`.
  [[nodiscard]] static NetemSchedule loss_injection(SimTime at, double loss,
                                                    Bandwidth bandwidth);

 private:
  std::vector<NetemPhase> phases_;
};

}  // namespace ff::net
