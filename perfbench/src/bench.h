#pragma once

// Shared declarations of ffbench, the repo benchmark program. It
// measures the simulator from outside, through its public entry points
// only: scenario factories, core::Experiment, sweep::run,
// sweep::result_fingerprint, Simulator::set_event_observer and
// obs::TraceSink. Host time and simulated statistics are kept apart:
// simulated statistics repeat exactly for a seed, host time does not.

#include <array>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "ff/core/experiment.h"
#include "ff/obs/trace.h"

namespace ffbench {

// --- Host clocks -----------------------------------------------------

/// Monotonic host time in seconds.
[[nodiscard]] double wall_now();
/// User + system CPU time of the whole process, in seconds.
[[nodiscard]] double cpu_now();
/// Peak resident set size of the process so far, in MB (10^6 bytes).
[[nodiscard]] double peak_rss_mb();

// --- Simulated statistics -------------------------------------------

/// Simulated counters summed over every experiment of one repeat. All of
/// them are deterministic for a seed.
struct SimTotals {
  std::uint64_t experiments{0};
  std::uint64_t events{0};
  std::uint64_t frames{0};
  std::uint64_t successes{0};
  std::uint64_t timeouts_network{0};
  std::uint64_t timeouts_load{0};
  std::uint64_t offload_attempts{0};
  std::uint64_t fragments{0};
  std::uint64_t retransmissions{0};
  std::uint64_t messages_sent{0};
  std::uint64_t sends_failed{0};
  std::uint64_t server_received{0};
  std::uint64_t server_rejected{0};
  std::uint64_t batches{0};
  double batched_requests{0.0};
  double gpu_util_sum{0.0};
  std::uint64_t servers{0};
  std::uint64_t po_reversals{0};
  double device_minutes{0.0};

  void add(const ff::core::ExperimentResult& result);
};

// --- Correctness checks ---------------------------------------------

/// Experiments attempted and failed, with the first few failure reasons.
struct Tally {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<std::string> reasons;

  void fail(std::string reason);
};

/// Frame conservation on every device and request conservation on every
/// server. Returns an empty string when both hold, else the first
/// violation.
[[nodiscard]] std::string conservation_error(
    const ff::core::ExperimentResult& result);

/// Compares a repeat's per-experiment fingerprints (or trace hashes) with
/// the first repeat's. Returns the number of experiments that differ; a
/// missing or extra entry counts as a difference.
[[nodiscard]] std::size_t fingerprint_mismatches(
    const std::vector<std::uint64_t>& reference,
    const std::vector<std::uint64_t>& observed);

/// Feeds tampered results into every check above (and into the guarded
/// runner with a throwing controller) and confirms each one fires.
/// Returns the checks that did not fire; empty means all did.
[[nodiscard]] std::vector<std::string> tamper_self_check();

/// Runs `body` and returns an empty string, or the exception's message
/// when it throws.
template <class F>
[[nodiscard]] std::string guarded(F&& body) {
  try {
    body();
    return {};
  } catch (const std::exception& e) {
    return std::string("threw: ") + e.what();
  } catch (...) {
    return "threw a non-standard exception";
  }
}

// --- Trace capture --------------------------------------------------

/// Stream buffer that keeps nothing: it counts the bytes written through
/// it and hashes them, so a JSONL trace can be produced at full cost
/// without touching disk.
class HashingBuf final : public std::streambuf {
 public:
  HashingBuf();
  [[nodiscard]] std::uint64_t bytes() const;
  /// Hash of every byte written so far; independent of flush points.
  [[nodiscard]] std::uint64_t digest() const;

 protected:
  int_type overflow(int_type ch) override;

 private:
  void consume();

  std::vector<char> buffer_;
  std::uint64_t consumed_{0};
  std::uint64_t hash_;
};

/// TraceSink wrapper that counts events by layer (the prefix of the event
/// type), hashes their content in arrival order and forwards them to an
/// optional inner sink.
class CountingSink final : public ff::obs::TraceSink {
 public:
  explicit CountingSink(ff::obs::TraceSink* inner) : inner_(inner) {}

  void emit(const ff::obs::TraceEvent& event) override;

  std::uint64_t frame{0};
  std::uint64_t net{0};
  std::uint64_t server{0};
  std::uint64_t ctl{0};
  std::uint64_t hash{0xcbf29ce484222325ULL};

 private:
  ff::obs::TraceSink* inner_;
};

// --- Spans ----------------------------------------------------------

/// One timed interval of the benchmark's own code around a call into a
/// layer, or one chunk of simulator events.
struct Span {
  std::string_view name;  ///< static storage
  std::uint64_t id{0};
  std::uint64_t parent{0};  ///< 0 = root
  std::uint64_t trace{0};   ///< repeat the span belongs to
  std::uint64_t detail{0};  ///< partition index for sim.chunk spans
  double start{0.0};        ///< wall_now() seconds
  double end{0.0};
};

/// In-memory span store; spans are written out once, at the end of the
/// run. Recording is thread-safe (sweep points finish on pool workers).
class SpanRecorder {
 public:
  [[nodiscard]] std::uint64_t next_id();
  void record(Span span);
  void record_all(std::vector<Span> spans);
  [[nodiscard]] std::vector<Span> take();

 private:
  std::mutex mutex_;
  std::uint64_t next_id_{1};
  std::vector<Span> spans_;
};

/// Times one span of the calling scope when a recorder is attached.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string_view name,
             std::uint64_t parent, std::uint64_t trace);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint64_t id() const { return span_.id; }

 private:
  SpanRecorder* recorder_;
  Span span_;
};

/// Event observer timing chunks of 1024 simulator events on one simulator
/// (or one partition), as the invariants EventCostProbe does. Chunks stay
/// in memory; the probe never feeds back into the simulation.
class ChunkProbe {
 public:
  static constexpr std::uint32_t kChunk = 1024;

  static void observe(void* ctx, ff::SimTime time, std::uint64_t seq);

  std::size_t partition{0};
  std::vector<Span> chunks;  ///< id/parent/trace filled in by the caller

 private:
  double chunk_start_{0.0};
  std::uint32_t in_chunk_{0};
};

// --- Workloads ------------------------------------------------------

enum class Workload { kPaperSweep, kFleetSerial, kFleetPartitioned,
                      kFleetTraced };

struct WorkloadInfo {
  Workload id;
  std::string_view name;
  unsigned threads;  ///< host threads the workload runs on
};

/// The four workloads, in the order BENCHMARK.json lists them.
[[nodiscard]] const std::vector<WorkloadInfo>& workloads();

/// Which trace sink a repeat attaches. kWorkload is the workload's own
/// configuration (a JSONL sink on fleet_traced, none elsewhere); kNone and
/// kHash are the comparison phases of the traced run.
enum class SinkMode { kWorkload, kNone, kHash };

/// One run of a workload to completion, with its measurements.
struct Repeat {
  /// Set-up samples: scenario generation plus Experiment construction.
  std::vector<double> setup_s;
  double wall_s{0.0};
  double cpu_s{0.0};
  SimTotals sim;
  std::vector<std::uint64_t> fingerprints;  ///< one per experiment
  /// Experiments that threw or broke conservation, with reasons.
  Tally tally;
  bool traced{false};  ///< a sink was attached
  std::uint64_t trace_bytes{0};
  std::uint64_t trace_hash{0};
  std::array<std::uint64_t, 4> trace_events{};  ///< frame, net, server, ctl
  // Filled only when spans are recorded:
  std::vector<double> point_wall_s;  ///< per sweep point
  std::vector<double> event_cost_ns;  ///< per 1024-event chunk
  std::vector<std::uint64_t> partition_events;
};

/// Runs `workload` once with scenario seed `seed`. Spans are recorded
/// under trace id `trace` when `spans` is non-null.
[[nodiscard]] Repeat run_repeat(Workload workload, std::uint64_t seed,
                                SinkMode sink, SpanRecorder* spans,
                                std::uint64_t trace);

// --- Output helpers -------------------------------------------------

/// Shortest text that reads back as the same double.
[[nodiscard]] std::string num(double value);
[[nodiscard]] std::string hex64(std::uint64_t value);

}  // namespace ffbench
