#pragma once

// Structured tracing: components emit typed span events (per-frame
// lifecycle, per-tick controller decisions, transport retransmissions,
// server batching) into a TraceSink. Sinks are attached by pointer and
// every emit site is guarded by a null check, so the disabled path costs
// one predictable branch -- hot simulation loops pay nothing for the
// machinery when no sink is attached.

#include <array>
#include <cstdint>
#include <fstream>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "ff/util/sync.h"
#include "ff/util/thread_annotations.h"
#include "ff/util/units.h"

namespace ff::obs {

/// Stable wire names for event types. Consumers (tests, regression
/// tooling, external plotting) key on these strings; treat them as API.
namespace ev {
// Device-side per-frame lifecycle.
inline constexpr std::string_view kFrameCaptured = "frame.captured";
inline constexpr std::string_view kFrameRoutedLocal = "frame.routed_local";
inline constexpr std::string_view kFrameRoutedOffload = "frame.routed_offload";
inline constexpr std::string_view kFrameLocalCompleted =
    "frame.local_completed";
inline constexpr std::string_view kFrameLocalDropped = "frame.local_dropped";
inline constexpr std::string_view kFrameOffloadSent = "frame.offload_sent";
inline constexpr std::string_view kFrameOffloadSuccess =
    "frame.offload_success";
inline constexpr std::string_view kFrameTimeoutNetwork =
    "frame.timeout_network";
inline constexpr std::string_view kFrameTimeoutLoad = "frame.timeout_load";
// Transport / link events.
inline constexpr std::string_view kNetRetransmit = "net.retransmit";
inline constexpr std::string_view kNetSendFailed = "net.send_failed";
inline constexpr std::string_view kNetTailDrop = "net.tail_drop";
inline constexpr std::string_view kNetLoss = "net.loss";
inline constexpr std::string_view kNetPurge = "net.purge";
// Server batching lifecycle.
inline constexpr std::string_view kServerBatchStart = "server.batch_start";
inline constexpr std::string_view kServerBatchDone = "server.batch_done";
inline constexpr std::string_view kServerComplete = "server.complete";
inline constexpr std::string_view kServerReject = "server.reject";
inline constexpr std::string_view kServerAdmissionReject =
    "server.admission_reject";
// Controller decisions.
inline constexpr std::string_view kControlTick = "ctl.tick";
// Sweep engine lifecycle (ff::sweep).
inline constexpr std::string_view kSweepStart = "sweep.start";
inline constexpr std::string_view kSweepPoint = "sweep.point";
inline constexpr std::string_view kSweepDone = "sweep.done";
}  // namespace ev

/// One span event. Built inline at the emit site; `type` must be a
/// string with static storage (use the ev:: constants) and `source` must
/// outlive the emit call (component names do).
struct TraceEvent {
  static constexpr std::size_t kMaxFields = 8;

  struct Field {
    std::string_view key;
    double value{0.0};
  };

  SimTime time{0};
  std::string_view type{};
  std::string_view source{};
  std::uint64_t id{0};
  bool has_id{false};
  std::string_view detail_key{};   ///< optional single string attribute
  std::string_view detail_value{};
  std::array<Field, kMaxFields> fields{};
  std::size_t field_count{0};

  TraceEvent(SimTime t, std::string_view event_type, std::string_view src)
      : time(t), type(event_type), source(src) {}

  TraceEvent& with_id(std::uint64_t event_id) {
    id = event_id;
    has_id = true;
    return *this;
  }

  TraceEvent& with(std::string_view key, double value) {
    if (field_count < kMaxFields) fields[field_count++] = {key, value};
    return *this;
  }

  TraceEvent& with_detail(std::string_view key, std::string_view value) {
    detail_key = key;
    detail_value = value;
    return *this;
  }

  /// Value of a numeric field, or `fallback` if absent (test helper).
  [[nodiscard]] double field(std::string_view key, double fallback = 0.0) const;
};

/// Receiver of trace events. Implementations must tolerate events of any
/// type: new instrumentation points may appear without sink changes.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void emit(const TraceEvent& event) = 0;
};

/// Discards everything; for overhead measurement of the emit path itself.
class NullTraceSink final : public TraceSink {
 public:
  void emit(const TraceEvent&) override { ++events_; }
  [[nodiscard]] std::uint64_t events_seen() const { return events_; }

 private:
  std::uint64_t events_{0};
};

/// Writes one JSON object per event (JSONL). Schema:
///   {"t":<seconds>,"type":"...","src":"...","id":N,"<k>":<v>,...}
/// `id` appears only when the event has one; the optional string detail
/// appears as "<detail_key>":"<detail_value>".
class JsonlTraceSink final : public TraceSink {
 public:
  /// Writes to an externally owned stream.
  explicit JsonlTraceSink(std::ostream& os);

  /// Opens `path` for writing; throws std::runtime_error on failure.
  explicit JsonlTraceSink(const std::string& path);

  JsonlTraceSink(const JsonlTraceSink&) = delete;
  JsonlTraceSink& operator=(const JsonlTraceSink&) = delete;

  void emit(const TraceEvent& event) override;
  void flush();

  [[nodiscard]] std::uint64_t events_written() const { return events_; }

 private:
  std::ofstream file_;
  std::ostream* os_;
  std::uint64_t events_{0};
};

/// Serializes emits into a wrapped sink (not owned). TraceSink
/// implementations are single-threaded by contract; wrap one in this when
/// several threads must share it (a partitioned Experiment does this when
/// its windows run on more than one worker). Event order across threads
/// is whatever the mutex arbitration yields; each event is delivered
/// intact.
class SynchronizedTraceSink final : public TraceSink {
 public:
  explicit SynchronizedTraceSink(TraceSink& inner) : inner_(&inner) {}

  void emit(const TraceEvent& event) override {
    const MutexLock lock(mutex_);
    inner_->emit(event);
  }

 private:
  Mutex mutex_;
  /// The pointer itself is immutable; the wrapped sink it designates is
  /// single-threaded by contract and must only be reached under mutex_.
  TraceSink* const inner_ FF_PT_GUARDED_BY(mutex_);
};

/// In-memory sink retaining every event; for tests.
class CollectingTraceSink final : public TraceSink {
 public:
  struct Stored {
    SimTime time;
    std::string type;
    std::string source;
    std::uint64_t id;
    bool has_id;
    std::vector<std::pair<std::string, double>> fields;
  };

  void emit(const TraceEvent& event) override;

  [[nodiscard]] const std::vector<Stored>& events() const { return events_; }
  [[nodiscard]] std::size_t count(std::string_view type) const;
  void clear() { events_.clear(); }

 private:
  std::vector<Stored> events_;
};

}  // namespace ff::obs
