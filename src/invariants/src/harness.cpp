#include "ff/invariants/harness.h"

#include <chrono>
#include <filesystem>
#include <utility>

#include "ff/core/scenario_config.h"
#include "ff/obs/trace.h"
#include "ff/sweep/sweep.h"
#include "ff/util/config.h"

namespace ff::invariants {
namespace {

/// Wall-clock cost per simulator event, sampled in 1024-event chunks so
/// two clock reads amortize over the chunk instead of bracketing every
/// event. The probe is observation-only: it never feeds back into the
/// simulation, so determinism is untouched.
class EventCostProbe {
 public:
  static void observe(void* ctx, SimTime /*time*/, std::uint64_t /*seq*/) {
    static_cast<EventCostProbe*>(ctx)->tick();
  }

  /// p99 of the per-event cost in microseconds; < 0 until one full chunk
  /// has been timed.
  [[nodiscard]] double p99_us() const {
    return p99_.count() > 0 ? p99_.value() : -1.0;
  }

 private:
  // ff-lint: allow(wall-clock) observation-only probe, never fed back
  using Clock = std::chrono::steady_clock;

  void tick() {
    if (in_chunk_ == 0) chunk_start_ = Clock::now();
    if (++in_chunk_ < kChunk) return;
    const auto elapsed = Clock::now() - chunk_start_;
    const double ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count());
    p99_.add(ns / (1000.0 * kChunk));
    in_chunk_ = 0;
  }

  static constexpr std::uint32_t kChunk = 1024;
  Clock::time_point chunk_start_{};
  std::uint32_t in_chunk_{0};
  P2Quantile p99_{0.99};
};

core::ControllerFactory factory_for(const std::string& controller) {
  Config cfg;
  cfg.set("controller", controller);
  return core::controller_factory_from_config(cfg);
}

}  // namespace

ScenarioReport run_scenario(const DisturbanceScenario& scenario,
                            const HarnessOptions& options) {
  ScenarioReport report;
  report.scenario = scenario.name;
  report.controller = scenario.controller;
  report.description = scenario.description;
  report.seed = scenario.scenario.seed;

  core::Experiment experiment(scenario.scenario,
                              factory_for(scenario.controller));
  EventCostProbe probe;
  if (options.measure_event_cost) {
    experiment.simulator().set_event_observer(&EventCostProbe::observe,
                                              &probe);
  }
  const core::ExperimentResult result = experiment.run();
  report.fingerprint = sweep::result_fingerprint(result);
  report.events_executed = result.events_executed;
  report.checks = evaluate_invariants(
      scenario, result, options.measure_event_cost ? probe.p99_us() : -1.0);

  // Partitioned-kernel determinism: re-run with the comparison partition
  // count; the result fingerprint must match bit-for-bit.
  if (scenario.compare_partitions > 0) {
    core::Scenario repartitioned = scenario.scenario;
    repartitioned.partitions = scenario.compare_partitions;
    const core::ExperimentResult other = core::run_experiment(
        repartitioned, factory_for(scenario.controller));
    const std::uint64_t other_fp = sweep::result_fingerprint(other);
    InvariantCheck check;
    check.name = "partition_fingerprint_equality";
    check.passed = other_fp == report.fingerprint;
    check.observed = static_cast<double>(other_fp);
    check.bound = static_cast<double>(report.fingerprint);
    check.detail = "K=" + std::to_string(scenario.scenario.partitions) +
                   " vs K=" + std::to_string(scenario.compare_partitions) +
                   (check.passed ? " fingerprints match"
                                 : " fingerprints DIVERGE");
    report.checks.push_back(std::move(check));
  }

  const bool want_capture =
      !options.capture_dir.empty() && (!report.passed() || options.capture_all);
  if (!want_capture) return report;

  std::filesystem::create_directories(options.capture_dir);
  const std::string stem = options.capture_dir + "/" + scenario.name;

  // Verification re-run with tracing attached: the simulation is
  // deterministic, so the traced run must reproduce the original
  // fingerprint exactly -- otherwise the capture would not actually
  // reproduce what failed, and the report says so.
  obs::JsonlTraceSink trace(stem + ".trace.jsonl");
  core::Experiment rerun(scenario.scenario, factory_for(scenario.controller));
  rerun.set_trace_sink(&trace);
  const core::ExperimentResult repeated = rerun.run();
  trace.flush();
  report.replay_verified =
      sweep::result_fingerprint(repeated) == report.fingerprint;

  Capture capture;
  capture.scenario = scenario.name;
  capture.controller = scenario.controller;
  capture.seed = scenario.scenario.seed;
  capture.fingerprint = report.fingerprint;
  capture.events_executed = report.events_executed;
  capture.frames_captured =
      result.devices.empty() ? 0 : result.devices[0].totals.frames_captured;
  capture.failed = report.failed_names();
  capture.trace_path = stem + ".trace.jsonl";
  report.capture_path = stem + ".capture";
  write_capture(capture, report.capture_path);
  return report;
}

std::vector<ScenarioReport> run_suite(
    const std::vector<DisturbanceScenario>& suite,
    const HarnessOptions& options) {
  std::vector<ScenarioReport> reports;
  reports.reserve(suite.size());
  for (const DisturbanceScenario& scenario : suite) {
    reports.push_back(run_scenario(scenario, options));
  }
  return reports;
}

}  // namespace ff::invariants
