#include "ff/invariants/harness.h"

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "ff/control/frame_feedback.h"
#include "ff/invariants/invariants.h"
#include "ff/invariants/scenario_suite.h"

namespace ff::invariants {
namespace {

TEST(Suite, HasAtLeastFiveDistinctScenarios) {
  const auto suite = default_suite();
  EXPECT_GE(suite.size(), 5u);
  std::set<std::string> names;
  for (const auto& d : suite) {
    EXPECT_FALSE(d.name.empty());
    EXPECT_FALSE(d.description.empty());
    EXPECT_GT(d.scenario.duration, 0);
    EXPECT_GE(d.disturbance_end, d.disturbance_start);
    names.insert(d.name);
  }
  EXPECT_EQ(names.size(), suite.size());
}

TEST(Suite, FindScenarioRoundTripsAndThrowsOnUnknown) {
  const auto d = find_scenario("loss_burst");
  EXPECT_EQ(d.name, "loss_burst");
  EXPECT_THROW((void)find_scenario("no_such_scenario"),
               std::invalid_argument);
}

TEST(Suite, ScenariosAreSeededForReproducibility) {
  for (const auto& d : default_suite()) {
    EXPECT_EQ(d.scenario.seed, 42u) << d.name;
  }
}

// One full harness pass over a real disturbance. This is the in-tree
// version of the physics-CI gate: if a bugfix regresses conservation or
// convergence, this fails before the bench ever runs.
TEST(Harness, LossBurstHoldsAllInvariants) {
  const ScenarioReport report = run_scenario(find_scenario("loss_burst"));
  EXPECT_TRUE(report.passed()) << [&] {
    std::string s;
    for (const auto& c : report.checks) {
      if (!c.passed) s += c.name + ": " + c.detail + "\n";
    }
    return s;
  }();
  EXPECT_GT(report.fingerprint, 0u);
  EXPECT_GT(report.events_executed, 1000u);
  // No captures requested, none written.
  EXPECT_TRUE(report.capture_path.empty());
}

TEST(Invariants, ConservationCheckFailsWhenTotalsAreTampered) {
  const auto scenario = find_scenario("loss_burst");
  core::ExperimentResult result = core::run_experiment(
      scenario.scenario, core::make_controller_factory<
                             control::FrameFeedbackController>());
  auto checks = evaluate_invariants(scenario, result);
  const auto find = [](const std::vector<InvariantCheck>& cs,
                       const std::string& name) -> const InvariantCheck& {
    for (const auto& c : cs) {
      if (c.name == name) return c;
    }
    throw std::logic_error("missing check " + name);
  };
  EXPECT_TRUE(find(checks, "frame_conservation").passed);

  // The exact failure mode the in-flight bugfix closed: frames that
  // vanish from the accounting. Reverting the fix reproduces this.
  result.devices[0].totals.in_flight_at_end = 0;
  result.devices[0].totals.frames_captured += 3;
  checks = evaluate_invariants(scenario, result);
  const auto& conservation = find(checks, "frame_conservation");
  EXPECT_FALSE(conservation.passed);
  EXPECT_GE(conservation.observed, 3.0);
  EXPECT_EQ(conservation.bound, 0.0);
}

TEST(Invariants, PoFlappingCountsReversalsAboveTheDeadband) {
  DisturbanceScenario d = find_scenario("loss_burst");
  core::ExperimentResult result;
  result.duration = 60 * kSecond;  // one minute: reversals == per-minute rate
  core::DeviceResult dev;
  dev.name = "synthetic";
  TimeSeries& po = dev.series.series("Po_target");
  // 10, 20, 10, 20, ... : every move is a full reversal.
  for (int i = 0; i < 16; ++i) {
    po.record(i * kSecond, i % 2 == 0 ? 10.0 : 20.0);
  }
  result.devices.push_back(std::move(dev));

  auto checks = evaluate_invariants(d, result);
  for (const auto& c : checks) {
    if (c.name != "po_flapping") continue;
    EXPECT_FALSE(c.passed);
    EXPECT_DOUBLE_EQ(c.observed, 14.0);  // 15 moves, 14 reversals
    EXPECT_DOUBLE_EQ(c.bound, 12.0);
  }

  // Same shape inside the deadband: not flapping, just dither.
  TimeSeries& po2 = result.devices[0].series.series("Po_target");
  po2.clear();
  for (int i = 0; i < 16; ++i) {
    po2.record(i * kSecond, i % 2 == 0 ? 10.0 : 10.4);
  }
  checks = evaluate_invariants(d, result);
  for (const auto& c : checks) {
    if (c.name != "po_flapping") continue;
    EXPECT_TRUE(c.passed);
    EXPECT_DOUBLE_EQ(c.observed, 0.0);
  }
}

TEST(Invariants, ConvergenceCheckFailsWhenTimeoutsPersist) {
  DisturbanceScenario d = find_scenario("loss_burst");
  d.disturbance_start = 30 * kSecond;
  d.disturbance_end = 55 * kSecond;
  core::ExperimentResult result;
  result.duration = 90 * kSecond;
  core::DeviceResult dev;
  dev.name = "synthetic";
  TimeSeries& t = dev.series.series("T");
  // Timeouts spike during the disturbance and never recover.
  for (int i = 1; i < 90; ++i) {
    t.record(i * kSecond, i < 30 ? 0.0 : 8.0);
  }
  result.devices.push_back(std::move(dev));

  const auto checks = evaluate_invariants(d, result);
  bool found = false;
  for (const auto& c : checks) {
    if (c.name != "t_convergence") continue;
    found = true;
    EXPECT_FALSE(c.passed);
    EXPECT_NEAR(c.observed, 8.0, 1e-9);
  }
  EXPECT_TRUE(found);
}

// The partitioned-kernel determinism gate: the scenario runs on K=1 and
// re-runs on K=4; the harness must report bit-identical fingerprints.
TEST(Harness, PartitionDeterminismScenarioFingerprintsMatch) {
  const auto scenario = find_scenario("partition_determinism");
  EXPECT_EQ(scenario.scenario.partitions, 1u);
  EXPECT_EQ(scenario.compare_partitions, 4u);
  const ScenarioReport report = run_scenario(scenario);
  bool found = false;
  for (const auto& c : report.checks) {
    if (c.name == "partition_fingerprint_equality") {
      found = true;
      EXPECT_TRUE(c.passed) << c.detail;
    }
  }
  EXPECT_TRUE(found) << "comparison check missing from the report";
  EXPECT_TRUE(report.passed()) << [&] {
    std::string s;
    for (const auto& c : report.checks) {
      if (!c.passed) s += c.name + ": " + c.detail + "\n";
    }
    return s;
  }();
}

TEST(Invariants, JsonSummaryIsWellFormedEnoughToGrep) {
  ScenarioReport r;
  r.scenario = "loss_burst";
  r.controller = "frame-feedback";
  r.seed = 42;
  r.fingerprint = 0xdeadbeefu;
  r.checks.push_back({"frame_conservation", true, 0.0, 0.0, "ok"});
  r.checks.push_back({"t_convergence", false, 8.0, 1.0, "stuck \"high\""});
  std::ostringstream os;
  write_invariants_json({r}, os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"suite\": \"invariants\""), std::string::npos);
  EXPECT_NE(json.find("\"passed\": false"), std::string::npos);
  EXPECT_NE(json.find("0x00000000deadbeef"), std::string::npos);
  EXPECT_NE(json.find("stuck \\\"high\\\""), std::string::npos);
}

}  // namespace
}  // namespace ff::invariants
