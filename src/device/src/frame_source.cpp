#include "ff/device/frame_source.h"

#include <utility>

namespace ff::device {

FrameSource::FrameSource(sim::Simulator& sim, FrameSourceConfig config,
                         FrameFn on_frame)
    : sim_(sim), config_(config), on_frame_(std::move(on_frame)) {}

void FrameSource::start() {
  if (running_) return;
  running_ = true;
  arm();
}

void FrameSource::stop() {
  if (!running_) return;
  running_ = false;
  sim_.cancel(pending_);
  pending_ = {};
}

void FrameSource::arm() {
  pending_ = sim_.schedule_in(config_.fps.period(), [this] { emit(); });
}

void FrameSource::emit() {
  if (!running_) return;
  const std::uint64_t index = emitted_++;
  if (config_.frame_limit > 0 && emitted_ >= config_.frame_limit) {
    running_ = false;
  } else {
    arm();
  }
  on_frame_(index, sim_.now());
}

}  // namespace ff::device
