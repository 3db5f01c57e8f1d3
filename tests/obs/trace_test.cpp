#include "ff/obs/trace.h"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>
#include <vector>

namespace ff::obs {
namespace {

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream ss(text);
  std::string line;
  while (std::getline(ss, line)) out.push_back(line);
  return out;
}

TEST(TraceEvent, BuilderFillsFields) {
  TraceEvent e(kSecond, ev::kFrameCaptured, "pi-1");
  e.with_id(42).with("frag", 3.0).with_detail("model", "mobilenet_v3_small");
  EXPECT_EQ(e.time, kSecond);
  EXPECT_EQ(e.type, ev::kFrameCaptured);
  EXPECT_TRUE(e.has_id);
  EXPECT_EQ(e.id, 42u);
  EXPECT_DOUBLE_EQ(e.field("frag"), 3.0);
  EXPECT_DOUBLE_EQ(e.field("missing", -1.0), -1.0);
  EXPECT_EQ(e.detail_value, "mobilenet_v3_small");
}

TEST(TraceEvent, FieldCapacityIsBounded) {
  TraceEvent e(0, ev::kControlTick, "x");
  for (int i = 0; i < 20; ++i) e.with("k", i);
  EXPECT_EQ(e.field_count, TraceEvent::kMaxFields);
}

TEST(JsonlTraceSink, WritesOneJsonObjectPerEvent) {
  std::ostringstream os;
  JsonlTraceSink sink(os);
  sink.emit(TraceEvent(kSecond / 2, ev::kFrameCaptured, "pi-1").with_id(7));
  sink.emit(TraceEvent(kSecond, ev::kControlTick, "pi-1")
                .with("po", 3.0)
                .with("e", 27.5));
  EXPECT_EQ(sink.events_written(), 2u);

  const auto lines = lines_of(os.str());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0],
            "{\"t\":0.500000,\"type\":\"frame.captured\",\"src\":\"pi-1\","
            "\"id\":7}");
  EXPECT_EQ(lines[1],
            "{\"t\":1.000000,\"type\":\"ctl.tick\",\"src\":\"pi-1\","
            "\"po\":3,\"e\":27.5}");
}

TEST(JsonlTraceSink, DetailAndNonFiniteValues) {
  std::ostringstream os;
  JsonlTraceSink sink(os);
  sink.emit(TraceEvent(0, ev::kServerBatchStart, "server")
                .with_detail("model", "a\"b")
                .with("bad", std::numeric_limits<double>::infinity()));
  const std::string line = os.str();
  EXPECT_NE(line.find("\"model\":\"a\\\"b\""), std::string::npos);
  EXPECT_NE(line.find("\"bad\":null"), std::string::npos);
}

TEST(CollectingTraceSink, RetainsAndCounts) {
  CollectingTraceSink sink;
  sink.emit(TraceEvent(1, ev::kFrameCaptured, "d").with_id(1));
  sink.emit(TraceEvent(2, ev::kFrameCaptured, "d").with_id(2));
  sink.emit(TraceEvent(3, ev::kFrameRoutedLocal, "d").with_id(2));
  EXPECT_EQ(sink.events().size(), 3u);
  EXPECT_EQ(sink.count(ev::kFrameCaptured), 2u);
  EXPECT_EQ(sink.count(ev::kServerReject), 0u);
  sink.clear();
  EXPECT_TRUE(sink.events().empty());
}

TEST(NullTraceSink, CountsOnly) {
  NullTraceSink sink;
  sink.emit(TraceEvent(0, ev::kFrameCaptured, "d"));
  EXPECT_EQ(sink.events_seen(), 1u);
}

}  // namespace
}  // namespace ff::obs
