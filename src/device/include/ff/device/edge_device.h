#pragma once

// The composed edge device: camera -> dispatcher -> {local engine, offload
// client}, plus telemetry. A controller runtime (core::Experiment) reads
// controller_input() each period and writes set_offload_rate().

#include <cstdint>
#include <optional>
#include <string>

#include "ff/control/controller.h"
#include "ff/device/dispatcher.h"
#include "ff/device/frame_source.h"
#include "ff/device/local_engine.h"
#include "ff/device/offload_client.h"
#include "ff/device/offload_transport.h"
#include "ff/device/telemetry.h"
#include "ff/models/device_profile.h"
#include "ff/models/frame.h"
#include "ff/models/power.h"
#include "ff/obs/trace.h"
#include "ff/sim/simulator.h"

namespace ff::device {

struct DeviceConfig {
  std::string name{"device"};
  models::DeviceId profile{models::DeviceId::kPi4BR12};
  models::ModelId model{models::ModelId::kMobileNetV3Small};
  models::FrameSpec frame{};
  double source_fps{30.0};
  std::uint64_t frame_limit{0};            ///< 0 = unlimited; paper uses 4000
  SimDuration deadline{250 * kMillisecond};
};

class EdgeDevice {
 public:
  /// `sim` and `transport` must outlive the device.
  EdgeDevice(sim::Simulator& sim, OffloadTransport& transport,
             DeviceConfig config);

  EdgeDevice(const EdgeDevice&) = delete;
  EdgeDevice& operator=(const EdgeDevice&) = delete;

  /// Begins capturing frames.
  void start();
  void stop();

  /// Sets the offload-rate target Po (frames/s), as decided by a controller.
  void set_offload_rate(double rate);
  [[nodiscard]] double offload_rate() const {
    return dispatcher_.offload_rate();
  }

  /// Changes the JPEG quality used for subsequently offloaded frames
  /// (quality-adapting controllers); recomputes the per-frame payload.
  void set_frame_quality(int quality);
  [[nodiscard]] const models::FrameSpec& frame_spec() const {
    return config_.frame;
  }

  /// Effective top-1 accuracy of results at the current frame spec.
  [[nodiscard]] double effective_accuracy() const;

  /// Assembles the controller's telemetry snapshot for the current time.
  [[nodiscard]] control::ControllerInput controller_input();

  /// Issues a heartbeat probe; the outcome becomes available to
  /// take_probe_result() once resolved.
  void send_probe();

  /// Consumes the most recent resolved probe outcome, if any.
  [[nodiscard]] std::optional<bool> take_probe_result();

  /// Device CPU utilization model (paper §II-A: ~50% local, ~22% offload).
  [[nodiscard]] double cpu_utilization();

  /// Instantaneous electrical draw in watts, from the power model fed by
  /// current CPU utilization and estimated radio airtime.
  [[nodiscard]] double power_draw_w();

  [[nodiscard]] Telemetry& telemetry() { return telemetry_; }
  [[nodiscard]] const DeviceConfig& config() const { return config_; }
  [[nodiscard]] const OffloadClient& offload_client() const { return offload_; }
  [[nodiscard]] const LocalEngine& local_engine() const { return local_; }
  [[nodiscard]] std::uint64_t frames_captured() const {
    return source_.frames_emitted();
  }
  [[nodiscard]] bool finished() const {
    return config_.frame_limit > 0 &&
           source_.frames_emitted() >= config_.frame_limit;
  }

  /// Frames captured but not yet resolved: sitting in the JPEG-encode
  /// stage, awaiting an offload outcome, or queued/executing locally.
  /// Drained into TelemetryTotals::in_flight_at_end at the end of a run so
  /// the frame-conservation identity holds exactly at any horizon.
  [[nodiscard]] std::uint64_t in_flight_frames() const {
    return encoding_frames_ + offload_.pending_frames() +
           local_.queue_depth();
  }

  /// Per-frame payload size implied by the frame spec.
  [[nodiscard]] Bytes frame_payload() const { return frame_payload_; }

  /// Attaches a trace sink observing the device's per-frame lifecycle
  /// events (nullptr detaches). Not owned; must outlive tracing.
  void attach_trace_sink(obs::TraceSink* sink);

 private:
  void on_frame(std::uint64_t index, SimTime t);

  void trace(SimTime t, std::string_view type, std::uint64_t frame_id) {
    if (sink_ == nullptr) return;
    sink_->emit(obs::TraceEvent(t, type, config_.name).with_id(frame_id));
  }

  sim::Simulator& sim_;
  DeviceConfig config_;
  Bytes frame_payload_;
  Telemetry telemetry_;
  Dispatcher dispatcher_;
  LocalEngine local_;
  OffloadClient offload_;
  FrameSource source_;
  /// Frames routed offload whose JPEG encode has not finished yet.
  std::uint64_t encoding_frames_{0};
  std::uint64_t next_probe_id_;
  std::optional<bool> probe_result_;
  obs::TraceSink* sink_{nullptr};
};

}  // namespace ff::device
