#include "ff/device/frame_trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "ff/device/edge_device.h"
#include "ff/server/edge_server.h"

namespace ff::device {
namespace {

TEST(FrameTracer, RecordsInOrder) {
  FrameTracer t;
  t.record(0, 1, FrameEvent::kCaptured);
  t.record(1, 1, FrameEvent::kRoutedOffload);
  t.record(2, 1, FrameEvent::kOffloadSuccess);
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.total_recorded(), 3u);
  const auto life = t.lifecycle(1);
  ASSERT_EQ(life.size(), 3u);
  EXPECT_EQ(life[0].event, FrameEvent::kCaptured);
  EXPECT_EQ(life[2].event, FrameEvent::kOffloadSuccess);
}

TEST(FrameTracer, RingEvictsOldest) {
  FrameTracer t(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    t.record(static_cast<SimTime>(i), i, FrameEvent::kCaptured);
  }
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.total_recorded(), 10u);
  EXPECT_EQ(t.records().front().frame_id, 6u);
}

TEST(FrameTracer, CountByEvent) {
  FrameTracer t;
  t.record(0, 1, FrameEvent::kCaptured);
  t.record(0, 2, FrameEvent::kCaptured);
  t.record(0, 1, FrameEvent::kLocalDropped);
  EXPECT_EQ(t.count(FrameEvent::kCaptured), 2u);
  EXPECT_EQ(t.count(FrameEvent::kLocalDropped), 1u);
  EXPECT_EQ(t.count(FrameEvent::kTimeoutLoad), 0u);
}

TEST(FrameTracer, ClearResets) {
  FrameTracer t;
  t.record(0, 1, FrameEvent::kCaptured);
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.total_recorded(), 0u);
}

TEST(FrameTracer, EventNamesDistinct) {
  EXPECT_EQ(frame_event_name(FrameEvent::kCaptured), "captured");
  EXPECT_EQ(frame_event_name(FrameEvent::kTimeoutNetwork), "timeout_network");
  EXPECT_NE(frame_event_name(FrameEvent::kRoutedLocal),
            frame_event_name(FrameEvent::kRoutedOffload));
}

TEST(FrameTracer, CsvExport) {
  FrameTracer t;
  t.record(kSecond, 7, FrameEvent::kRoutedLocal);
  const std::string path = ::testing::TempDir() + "/trace.csv";
  t.write_csv(path);
  std::ifstream in(path);
  std::string header, row;
  std::getline(in, header);
  std::getline(in, row);
  EXPECT_EQ(header, "time_s,frame,event");
  EXPECT_EQ(row, "1,7,routed_local");
  std::remove(path.c_str());
}

/// Device-level integration: the tracer sees the full lifecycle.
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

TEST(FrameTracer, DeviceLifecycleEndToEnd) {
  sim::Simulator sim(3);
  EchoTransport transport(sim, 50 * kMillisecond);
  DeviceConfig dc;
  dc.source_fps = 30.0;
  EdgeDevice dev(sim, transport, dc);
  FrameTracer tracer;
  dev.attach_trace_sink(&tracer);
  dev.set_offload_rate(15.0);
  dev.start();
  sim.run_until(5 * kSecond);

  EXPECT_NEAR(static_cast<double>(tracer.count(FrameEvent::kCaptured)), 150, 2);
  EXPECT_NEAR(static_cast<double>(tracer.count(FrameEvent::kRoutedOffload)),
              75, 2);
  EXPECT_NEAR(static_cast<double>(tracer.count(FrameEvent::kRoutedLocal)), 75,
              2);
  EXPECT_GT(tracer.count(FrameEvent::kOffloadSuccess), 70u);
  EXPECT_GT(tracer.count(FrameEvent::kLocalCompleted), 50u);

  // A specific offloaded frame's lifecycle is ordered and complete.
  std::uint64_t offloaded_frame = 0;
  for (const auto& r : tracer.records()) {
    if (r.event == FrameEvent::kOffloadSuccess) {
      offloaded_frame = r.frame_id;
      break;
    }
  }
  const auto life = tracer.lifecycle(offloaded_frame);
  ASSERT_GE(life.size(), 4u);
  EXPECT_EQ(life[0].event, FrameEvent::kCaptured);
  EXPECT_EQ(life[1].event, FrameEvent::kRoutedOffload);
  EXPECT_EQ(life[2].event, FrameEvent::kOffloadSent);
  EXPECT_EQ(life[3].event, FrameEvent::kOffloadSuccess);
  for (std::size_t i = 1; i < life.size(); ++i) {
    EXPECT_GE(life[i].time, life[i - 1].time);
  }
}

TEST(FrameTracer, DetachStopsRecording) {
  sim::Simulator sim(4);
  EchoTransport transport(sim, kMillisecond);
  DeviceConfig dc;
  EdgeDevice dev(sim, transport, dc);
  FrameTracer tracer;
  dev.attach_trace_sink(&tracer);
  dev.start();
  sim.run_until(kSecond);
  const auto before = tracer.total_recorded();
  EXPECT_GT(before, 0u);
  dev.attach_trace_sink(nullptr);
  sim.run_until(2 * kSecond);
  EXPECT_EQ(tracer.total_recorded(), before);
}

}  // namespace
}  // namespace ff::device
