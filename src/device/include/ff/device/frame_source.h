#pragma once

// Video capture stand-in: emits frame ids at the source frame rate Fs,
// one exact frame period apart.
// The paper sources ImageNet frames at 30 fps; content never crosses this
// interface, only timing and (downstream) encoded size.

#include <cstdint>
#include <functional>

#include "ff/sim/simulator.h"

namespace ff::device {

struct FrameSourceConfig {
  Rate fps{Rate{30.0}};
  /// Stop after this many frames (0 = unlimited). The paper's experiments
  /// stream 4000 frames.
  std::uint64_t frame_limit{0};
};

class FrameSource {
 public:
  /// `on_frame(frame_index, capture_time)` fires once per frame.
  using FrameFn = std::function<void(std::uint64_t, SimTime)>;

  FrameSource(sim::Simulator& sim, FrameSourceConfig config, FrameFn on_frame);

  FrameSource(const FrameSource&) = delete;
  FrameSource& operator=(const FrameSource&) = delete;

  /// Starts emitting (first frame after one period); idempotent.
  void start();
  void stop();

  [[nodiscard]] bool running() const { return running_; }
  [[nodiscard]] std::uint64_t frames_emitted() const { return emitted_; }
  [[nodiscard]] const FrameSourceConfig& config() const { return config_; }

 private:
  void arm();
  void emit();

  sim::Simulator& sim_;
  FrameSourceConfig config_;
  FrameFn on_frame_;
  bool running_{false};
  std::uint64_t emitted_{0};
  sim::EventId pending_{};
};

}  // namespace ff::device
