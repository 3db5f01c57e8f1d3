// End-to-end observability: a scenario run with a trace sink attached must
// produce events that reconcile exactly with the run's telemetry counters,
// and the JSONL export of the same run must be line-parseable, with every
// frame event keyed by its device and frame id.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ff/control/frame_feedback.h"
#include "ff/core/experiment.h"
#include "ff/core/obs_export.h"
#include "ff/core/scenario_config.h"
#include "ff/obs/metrics.h"
#include "ff/obs/trace.h"

namespace ff::core {
namespace {

ControllerFactory frame_feedback_factory() {
  return make_controller_factory<control::FrameFeedbackController>();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream ss(text);
  std::string line;
  while (std::getline(ss, line)) out.push_back(line);
  return out;
}

std::size_t count_type(const std::vector<std::string>& lines,
                       std::string_view type) {
  const std::string needle = "\"type\":\"" + std::string(type) + "\"";
  std::size_t n = 0;
  for (const auto& line : lines) {
    if (line.find(needle) != std::string::npos) ++n;
  }
  return n;
}

/// The string value of `"key":"..."` in a JSONL line, or nullopt.
std::optional<std::string> string_field(const std::string& line,
                                        std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":\"";
  const auto at = line.find(needle);
  if (at == std::string::npos) return std::nullopt;
  const auto begin = at + needle.size();
  return line.substr(begin, line.find('"', begin) - begin);
}

/// The integer value of `"id":N` in a JSONL line, or nullopt.
std::optional<std::uint64_t> id_field(const std::string& line) {
  const std::string needle = "\"id\":";
  const auto at = line.find(needle);
  if (at == std::string::npos) return std::nullopt;
  return std::stoull(line.substr(at + needle.size()));
}

TEST(ObsIntegration, TraceEventsReconcileWithTelemetry) {
  const auto scenario = Scenario::ideal(10 * kSecond);
  Experiment experiment(scenario, frame_feedback_factory());
  obs::CollectingTraceSink collected;
  experiment.set_trace_sink(&collected);

  const ExperimentResult result = experiment.run();
  const auto& totals = result.devices[0].totals;
  ASSERT_GT(totals.frames_captured, 0u);

  // Every telemetry counter has a one-to-one span event.
  EXPECT_EQ(collected.count(obs::ev::kFrameCaptured), totals.frames_captured);
  EXPECT_EQ(collected.count(obs::ev::kFrameLocalCompleted),
            totals.local_completions);
  EXPECT_EQ(collected.count(obs::ev::kFrameLocalDropped), totals.local_drops);
  EXPECT_EQ(collected.count(obs::ev::kFrameOffloadSent),
            totals.offload_attempts);
  EXPECT_EQ(collected.count(obs::ev::kFrameOffloadSuccess),
            totals.offload_successes);
  EXPECT_EQ(collected.count(obs::ev::kFrameTimeoutNetwork),
            totals.timeouts_network);
  EXPECT_EQ(collected.count(obs::ev::kFrameTimeoutLoad), totals.timeouts_load);

  // Server-side completions pair with device-side offload accounting.
  EXPECT_EQ(collected.count(obs::ev::kServerComplete),
            result.servers.front().stats.requests_completed);
  EXPECT_EQ(collected.count(obs::ev::kServerBatchStart),
            result.servers.front().stats.batches_executed);
  // The horizon can cut one batch mid-execution: started but never done.
  const std::size_t batch_dones = collected.count(obs::ev::kServerBatchDone);
  EXPECT_LE(batch_dones, result.servers.front().stats.batches_executed);
  EXPECT_GE(batch_dones + 1, result.servers.front().stats.batches_executed);

  // One controller tick per elapsed measurement period.
  EXPECT_GT(collected.count(obs::ev::kControlTick), 0u);

  // A JSONL export of the same seed sees the identical stream, one object
  // per line.
  Experiment rerun(scenario, frame_feedback_factory());
  std::ostringstream jsonl_out;
  obs::JsonlTraceSink jsonl(jsonl_out);
  rerun.set_trace_sink(&jsonl);
  (void)rerun.run();
  EXPECT_EQ(jsonl.events_written(), collected.events().size());
  const auto lines = lines_of(jsonl_out.str());
  ASSERT_EQ(lines.size(), collected.events().size());
  for (const auto& line : lines) {
    ASSERT_GE(line.size(), 2u);
    EXPECT_EQ(line.rfind("{\"t\":", 0), 0u) << line;
    EXPECT_EQ(line.back(), '}') << line;
  }
  EXPECT_EQ(count_type(lines, obs::ev::kFrameCaptured),
            totals.frames_captured);
  EXPECT_EQ(count_type(lines, obs::ev::kControlTick),
            collected.count(obs::ev::kControlTick));
}

// Several devices number their frames independently, so a frame is named
// by (device, id): each frame event must carry both, each pair is captured
// exactly once, and per-device captures match that device's telemetry.
TEST(ObsIntegration, EveryFrameLineNamesDeviceAndId) {
  Config config;
  config.set("scenario", "ideal");
  config.set("devices", "4");
  config.set("duration_s", "10");
  Experiment experiment(scenario_from_config(config),
                        frame_feedback_factory());
  std::ostringstream jsonl_out;
  obs::JsonlTraceSink jsonl(jsonl_out);
  experiment.set_trace_sink(&jsonl);
  const ExperimentResult result = experiment.run();
  ASSERT_EQ(result.devices.size(), 4u);

  std::set<std::pair<std::string, std::uint64_t>> captured;
  std::map<std::string, std::uint64_t> captures_by_source;
  std::size_t frame_events = 0;
  std::size_t repeated_captures = 0;
  for (const auto& line : lines_of(jsonl_out.str())) {
    const auto type = string_field(line, "type");
    ASSERT_TRUE(type.has_value()) << line;
    if (type->rfind("frame.", 0) != 0) continue;
    ++frame_events;
    const auto src = string_field(line, "src");
    const auto id = id_field(line);
    ASSERT_TRUE(src.has_value()) << line;
    ASSERT_TRUE(id.has_value()) << line;
    if (*type == obs::ev::kFrameCaptured) {
      if (!captured.emplace(*src, *id).second) ++repeated_captures;
      ++captures_by_source[*src];
    }
  }
  EXPECT_EQ(repeated_captures, 0u);
  EXPECT_GT(frame_events, captured.size());

  ASSERT_EQ(captures_by_source.size(), result.devices.size());
  for (const auto& device : result.devices) {
    ASSERT_GT(device.totals.frames_captured, 0u) << device.name;
    EXPECT_EQ(captures_by_source[device.name], device.totals.frames_captured)
        << device.name;
  }
}

TEST(ObsIntegration, ExportedMetricsMatchRunTotals) {
  Experiment experiment(Scenario::ideal(5 * kSecond),
                        frame_feedback_factory());
  const ExperimentResult result = experiment.run();

  obs::MetricsRegistry registry;
  export_metrics(result, registry);
  const obs::Labels labels{
      {"device", result.devices[0].name},
      {"controller", result.devices[0].controller}};
  EXPECT_DOUBLE_EQ(
      registry.counter("device.frames_captured", labels).value(),
      static_cast<double>(result.devices[0].totals.frames_captured));
  EXPECT_DOUBLE_EQ(
      registry.counter("server.requests_completed",
                       {{"scenario", result.scenario}})
          .value(),
      static_cast<double>(result.servers.front().stats.requests_completed));

  std::ostringstream os;
  write_metrics_json(result, os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"metrics\":["), std::string::npos);
  EXPECT_NE(json.find("\"device.frames_captured\""), std::string::npos);
}

// Paper §III: under total offload failure the controller settles at the
// standing probe Po = 0.1*Fs -- and the very first tick already lands there,
// because from Po = 0 the error e = Fs saturates the +0.1*Fs update clamp.
// The sliding-window warm-up fix matters here: rates observed during the
// first window are no longer halved, so tick-1 telemetry is unbiased.
TEST(ObsIntegration, FirstTickReachesFailureEquilibriumUnderTotalLoss) {
  Scenario scenario = Scenario::ideal(5 * kSecond);
  const net::LinkConditions dead{Bandwidth::mbps(50.0), 1.0, kMillisecond};
  scenario.network = net::NetemSchedule::constant(dead);
  scenario.uplink_template.initial = dead;
  scenario.downlink_template.initial = dead;

  Experiment experiment(std::move(scenario), frame_feedback_factory());
  obs::CollectingTraceSink collected;
  experiment.set_trace_sink(&collected);
  (void)experiment.run();

  const double fs = 30.0;
  std::vector<const obs::CollectingTraceSink::Stored*> ticks;
  for (const auto& e : collected.events()) {
    if (e.type == obs::ev::kControlTick) ticks.push_back(&e);
  }
  ASSERT_GE(ticks.size(), 2u);

  auto field = [](const obs::CollectingTraceSink::Stored& e,
                  std::string_view key) {
    for (const auto& [k, v] : e.fields) {
      if (k == key) return v;
    }
    ADD_FAILURE() << "missing field " << key;
    return 0.0;
  };

  // Tick 1: T == 0 (nothing offloaded yet), so e = Fs - Po = Fs and the
  // update clamps to +0.1*Fs, putting Po exactly at the failure equilibrium.
  EXPECT_DOUBLE_EQ(field(*ticks[0], "e"), fs);
  EXPECT_DOUBLE_EQ(field(*ticks[0], "u"), 0.1 * fs);
  EXPECT_DOUBLE_EQ(field(*ticks[0], "po"), 0.1 * fs);
}

}  // namespace
}  // namespace ff::core
