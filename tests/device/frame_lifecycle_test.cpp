// Device-level frame lifecycle as seen through the obs trace: the
// `frame.*` events a device emits count its routing decisions and order
// each frame's lifecycle.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ff/device/edge_device.h"
#include "ff/obs/trace.h"

namespace ff::device {
namespace {

using Stored = obs::CollectingTraceSink::Stored;

class EchoTransport final : public OffloadTransport {
 public:
  EchoTransport(sim::Simulator& sim, SimDuration delay)
      : sim_(sim), delay_(delay) {}
  void offload(std::uint64_t id, Bytes) override {
    (void)sim_.schedule_in(delay_, [this, id] {
      if (on_response_) on_response_(id, OffloadReply::kCompleted);
    });
  }
  void cancel(std::uint64_t) override {}
  void set_on_response(ResponseFn fn) override { on_response_ = std::move(fn); }
  void set_on_failure(FailureFn fn) override {}

 private:
  sim::Simulator& sim_;
  SimDuration delay_;
  ResponseFn on_response_;
};

/// The `frame.*` events of one frame, in emit order.
std::vector<Stored> lifecycle(const obs::CollectingTraceSink& sink,
                              std::uint64_t frame_id) {
  std::vector<Stored> out;
  for (const auto& e : sink.events()) {
    if (e.has_id && e.id == frame_id && e.type.rfind("frame.", 0) == 0) {
      out.push_back(e);
    }
  }
  return out;
}

TEST(FrameLifecycle, DeviceLifecycleEndToEnd) {
  sim::Simulator sim(3);
  EchoTransport transport(sim, 50 * kMillisecond);
  DeviceConfig dc;
  dc.source_fps = 30.0;
  EdgeDevice dev(sim, transport, dc);
  obs::CollectingTraceSink trace;
  dev.attach_trace_sink(&trace);
  dev.set_offload_rate(15.0);
  dev.start();
  sim.run_until(5 * kSecond);

  const auto count = [&](std::string_view type) {
    return static_cast<double>(trace.count(type));
  };
  EXPECT_NEAR(count(obs::ev::kFrameCaptured), 150, 2);
  EXPECT_NEAR(count(obs::ev::kFrameRoutedOffload), 75, 2);
  EXPECT_NEAR(count(obs::ev::kFrameRoutedLocal), 75, 2);
  EXPECT_GT(trace.count(obs::ev::kFrameOffloadSuccess), 70u);
  EXPECT_GT(trace.count(obs::ev::kFrameLocalCompleted), 50u);

  // A specific offloaded frame's lifecycle is ordered and complete.
  std::uint64_t offloaded_frame = 0;
  for (const auto& e : trace.events()) {
    if (e.type == obs::ev::kFrameOffloadSuccess) {
      offloaded_frame = e.id;
      break;
    }
  }
  const auto life = lifecycle(trace, offloaded_frame);
  ASSERT_GE(life.size(), 4u);
  EXPECT_EQ(life[0].type, obs::ev::kFrameCaptured);
  EXPECT_EQ(life[1].type, obs::ev::kFrameRoutedOffload);
  EXPECT_EQ(life[2].type, obs::ev::kFrameOffloadSent);
  EXPECT_EQ(life[3].type, obs::ev::kFrameOffloadSuccess);
  for (std::size_t i = 1; i < life.size(); ++i) {
    EXPECT_GE(life[i].time, life[i - 1].time);
  }
}

TEST(FrameLifecycle, DetachStopsRecording) {
  sim::Simulator sim(4);
  EchoTransport transport(sim, kMillisecond);
  DeviceConfig dc;
  EdgeDevice dev(sim, transport, dc);
  obs::CollectingTraceSink trace;
  dev.attach_trace_sink(&trace);
  dev.start();
  sim.run_until(kSecond);
  const auto before = trace.events().size();
  EXPECT_GT(before, 0u);
  dev.attach_trace_sink(nullptr);
  sim.run_until(2 * kSecond);
  EXPECT_EQ(trace.events().size(), before);
}

}  // namespace
}  // namespace ff::device
