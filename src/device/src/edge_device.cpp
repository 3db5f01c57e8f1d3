#include "ff/device/edge_device.h"

#include <algorithm>
#include <utility>

namespace ff::device {
namespace {

/// Probe ids live far above any frame index so the transport can share one
/// id space.
constexpr std::uint64_t kProbeIdBase = 1ULL << 48;
/// Span of the telemetry's sliding rate windows.
constexpr SimDuration kTelemetryWindow = 2 * kSecond;
/// Relative jitter (sigma) of local inference latency around 1/Pl.
constexpr double kLocalJitterSigma = 0.08;
/// Nominal Wi-Fi PHY rate used to estimate radio airtime for the power
/// model (the radio transmits at PHY rate even when the shaped goodput
/// is lower).
constexpr Bandwidth kRadioPhyRate = Bandwidth::mbps(20.0);

}  // namespace

EdgeDevice::EdgeDevice(sim::Simulator& sim, OffloadTransport& transport,
                       DeviceConfig config)
    : sim_(sim),
      config_(std::move(config)),
      frame_payload_(models::frame_bytes(config_.frame)),
      telemetry_(kTelemetryWindow),
      dispatcher_(config_.source_fps, 0.0),
      local_(sim,
             models::LocalLatencyModel(models::get_device(config_.profile),
                                       config_.model,
                                       sim.make_rng(config_.name + "/local"),
                                       kLocalJitterSigma),
             [this](std::uint64_t frame_id, SimTime) {
               telemetry_.record_local_completion(sim_.now());
               trace(sim_.now(), obs::ev::kFrameLocalCompleted, frame_id);
             }),
      offload_(sim, transport, telemetry_,
               OffloadClientConfig{config_.deadline, config_.name}),
      source_(sim,
              FrameSourceConfig{Rate{config_.source_fps}, config_.frame_limit},
              [this](std::uint64_t index, SimTime t) { on_frame(index, t); }),
      next_probe_id_(kProbeIdBase) {}

void EdgeDevice::start() { source_.start(); }

void EdgeDevice::stop() { source_.stop(); }

void EdgeDevice::set_offload_rate(double rate) {
  dispatcher_.set_offload_rate(rate);
}

void EdgeDevice::set_frame_quality(int quality) {
  config_.frame.jpeg_quality = std::clamp(quality, 1, 100);
  frame_payload_ = models::frame_bytes(config_.frame);
}

double EdgeDevice::effective_accuracy() const {
  return models::effective_accuracy(models::get_model(config_.model),
                                    config_.frame);
}

void EdgeDevice::attach_trace_sink(obs::TraceSink* sink) {
  sink_ = sink;
  offload_.attach_trace_sink(sink);
}

void EdgeDevice::on_frame(std::uint64_t index, SimTime t) {
  telemetry_.record_frame_captured(t);
  trace(t, obs::ev::kFrameCaptured, index);
  const Route route = dispatcher_.route_next();
  if (route == Route::kOffload) {
    trace(t, obs::ev::kFrameRoutedOffload, index);
    // JPEG encoding happens on-device before transmission; the deadline
    // clock is already running.
    const SimDuration encode = models::encode_time(config_.frame);
    ++encoding_frames_;
    sim_.schedule_in(encode, [this, index, t] {
      --encoding_frames_;
      offload_.offload_frame(index, t, frame_payload_);
    });
  } else {
    trace(t, obs::ev::kFrameRoutedLocal, index);
    if (!local_.submit(index, t)) {
      telemetry_.record_local_drop(t);
      trace(t, obs::ev::kFrameLocalDropped, index);
    }
  }
}

control::ControllerInput EdgeDevice::controller_input() {
  const SimTime now = sim_.now();
  control::ControllerInput in;
  in.now = now;
  in.source_fps = config_.source_fps;
  in.offload_rate = dispatcher_.offload_rate();
  in.timeout_rate = telemetry_.timeout_rate(now);
  in.network_timeout_rate = telemetry_.network_timeout_rate(now);
  in.load_timeout_rate = telemetry_.load_timeout_rate(now);
  in.admission_reject_rate = telemetry_.admission_reject_rate(now);
  in.offload_success_rate = telemetry_.offload_success_rate(now);
  in.local_rate = telemetry_.local_rate(now);
  in.frame_quality = config_.frame.jpeg_quality;
  in.probe_success = probe_result_;
  return in;
}

void EdgeDevice::send_probe() {
  const std::uint64_t id = next_probe_id_++;
  offload_.send_probe(id, frame_payload_, [this](bool ok) {
    probe_result_ = ok;
  });
}

std::optional<bool> EdgeDevice::take_probe_result() {
  const std::optional<bool> r = probe_result_;
  probe_result_.reset();
  return r;
}

double EdgeDevice::power_draw_w() {
  const SimTime now = sim_.now();
  const models::PowerProfile profile =
      models::default_power_profile(config_.profile);
  // Airtime estimate: frames/s * on-air time per frame at the PHY rate.
  const double tx_per_frame_s = sim_to_seconds(
      kRadioPhyRate.serialization_time(frame_payload_));
  const double tx_fraction =
      telemetry_.offload_attempt_rate(now) * tx_per_frame_s;
  const double rx_per_result_s = sim_to_seconds(
      kRadioPhyRate.serialization_time(Bytes{models::kResultBytes}));
  const double rx_fraction =
      telemetry_.offload_success_rate(now) * rx_per_result_s;
  return models::power_draw_w(profile, cpu_utilization(), tx_fraction,
                              rx_fraction);
}

double EdgeDevice::cpu_utilization() {
  const SimTime now = sim_.now();
  const double local_busy =
      telemetry_.local_rate(now) / std::max(local_.service_rate(), 1e-9);
  const double offload_fraction =
      telemetry_.offload_attempt_rate(now) / std::max(config_.source_fps, 1e-9);
  return models::device_cpu_utilization(local_busy, offload_fraction);
}

}  // namespace ff::device
