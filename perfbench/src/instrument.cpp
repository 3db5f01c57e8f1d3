// Host clocks, simulated-statistics roll-up, correctness checks and the
// in-memory trace capture of ffbench.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "bench.h"
#include "ff/control/frame_feedback.h"
#include "ff/core/scenario.h"
#include "ff/sweep/sweep.h"

namespace ffbench {

double wall_now() {
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double>(now).count();
}

double cpu_now() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB on Linux
}

namespace {

/// Direction changes of a series, ignoring flat steps.
std::uint64_t reversals(const ff::TimeSeries& series) {
  std::uint64_t count = 0;
  int last_sign = 0;
  for (std::size_t i = 1; i < series.size(); ++i) {
    const double delta = series.at(i).value - series.at(i - 1).value;
    const int sign = (delta > 0.0) - (delta < 0.0);
    if (sign == 0) continue;
    if (last_sign != 0 && sign != last_sign) ++count;
    last_sign = sign;
  }
  return count;
}

}  // namespace

void SimTotals::add(const ff::core::ExperimentResult& result) {
  ++experiments;
  events += result.events_executed;
  const double minutes = ff::sim_to_seconds(result.duration) / 60.0;
  for (const ff::core::DeviceResult& d : result.devices) {
    frames += d.totals.frames_captured;
    successes += d.totals.successes();
    timeouts_network += d.totals.timeouts_network;
    timeouts_load += d.totals.timeouts_load;
    offload_attempts += d.totals.offload_attempts;
    fragments += d.uplink.fragments_sent;
    retransmissions += d.uplink.retransmissions;
    messages_sent += d.uplink.messages_sent;
    sends_failed += d.uplink.sends_failed;
    if (const ff::TimeSeries* po = d.series.find("Po_target")) {
      po_reversals += reversals(*po);
    }
    device_minutes += minutes;
  }
  for (const ff::core::ServerResult& s : result.servers) {
    server_received += s.stats.requests_received;
    server_rejected +=
        s.stats.requests_rejected + s.stats.requests_admission_rejected;
    batches += s.stats.batches_executed;
    batched_requests += s.stats.mean_batch_size() *
                        static_cast<double>(s.stats.batches_executed);
    gpu_util_sum += s.gpu_utilization;
    ++servers;
  }
}

void Tally::fail(std::string reason) {
  ++failed;
  if (reasons.size() < 8) reasons.push_back(std::move(reason));
}

std::string conservation_error(const ff::core::ExperimentResult& result) {
  for (const ff::core::DeviceResult& d : result.devices) {
    if (d.totals.accounted() != d.totals.frames_captured) {
      return "device " + d.name + ": " +
             std::to_string(d.totals.frames_captured) +
             " frames captured, " + std::to_string(d.totals.accounted()) +
             " accounted";
    }
  }
  for (const ff::core::ServerResult& s : result.servers) {
    if (!s.conserved()) {
      return "server " + s.name + ": requests not conserved (" +
             std::to_string(s.stats.requests_received) + " received)";
    }
  }
  return {};
}

std::size_t fingerprint_mismatches(
    const std::vector<std::uint64_t>& reference,
    const std::vector<std::uint64_t>& observed) {
  const std::size_t common = std::min(reference.size(), observed.size());
  std::size_t differ = std::max(reference.size(), observed.size()) - common;
  for (std::size_t i = 0; i < common; ++i) {
    if (reference[i] != observed[i]) ++differ;
  }
  return differ;
}

std::vector<std::string> tamper_self_check() {
  using ff::core::ExperimentResult;
  std::vector<std::string> silent;
  const auto factory = ff::core::make_controller_factory<
      ff::control::FrameFeedbackController>();
  ExperimentResult clean;
  const std::string run_error = guarded([&] {
    clean = ff::core::run_experiment(ff::core::Scenario::ideal(2 * ff::kSecond),
                                     factory);
  });
  if (!run_error.empty() || !conservation_error(clean).empty()) {
    silent.push_back("reference run itself fails: " + run_error +
                     conservation_error(clean));
    return silent;
  }
  const std::uint64_t clean_fp = ff::sweep::result_fingerprint(clean);

  ExperimentResult tampered = clean;
  tampered.devices.at(0).totals.frames_captured += 1;
  if (conservation_error(tampered).empty()) {
    silent.push_back("device frame conservation");
  }

  tampered = clean;
  tampered.servers.at(0).stats.requests_received += 1;
  if (conservation_error(tampered).empty()) {
    silent.push_back("server request conservation");
  }

  tampered = clean;
  tampered.devices.at(0).totals.local_completions += 1;
  if (fingerprint_mismatches({clean_fp},
                             {ff::sweep::result_fingerprint(tampered)}) == 0) {
    silent.push_back("result fingerprint across repeats");
  }

  CountingSink a(nullptr);
  CountingSink b(nullptr);
  a.emit(ff::obs::TraceEvent(1, ff::obs::ev::kNetLoss, "link").with("b", 1));
  b.emit(ff::obs::TraceEvent(1, ff::obs::ev::kNetLoss, "link").with("b", 2));
  HashingBuf x;
  HashingBuf y;
  x.sputn("{\"t\":1}\n", 8);
  y.sputn("{\"t\":2}\n", 8);
  if (fingerprint_mismatches({a.hash}, {b.hash}) == 0 ||
      fingerprint_mismatches({x.digest()}, {y.digest()}) == 0) {
    silent.push_back("trace hash across repeats");
  }

  const std::string thrown = guarded([] {
    ff::core::Experiment experiment(
        ff::core::Scenario::ideal(ff::kSecond),
        [](std::size_t) -> std::unique_ptr<ff::control::Controller> {
          throw std::runtime_error("tampered controller factory");
        });
    (void)experiment.run();
  });
  if (thrown.empty()) silent.push_back("experiment that throws");
  return silent;
}

// --- HashingBuf -----------------------------------------------------

namespace {
constexpr std::size_t kBlock = 1 << 16;
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t mix_word(std::uint64_t h, std::uint64_t w) {
  h = (h ^ w) * 0x9e3779b97f4a7c15ULL;
  return h ^ (h >> 29);
}

std::uint64_t fnv_bytes(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * kFnvPrime;
  return h;
}

template <class T>
std::uint64_t fnv_value(std::uint64_t h, const T& value) {
  return fnv_bytes(h, &value, sizeof value);
}
}  // namespace

HashingBuf::HashingBuf() : buffer_(kBlock), hash_(kFnvOffset) {
  setp(buffer_.data(), buffer_.data() + buffer_.size());
}

std::uint64_t HashingBuf::bytes() const {
  return consumed_ + static_cast<std::uint64_t>(pptr() - pbase());
}

std::uint64_t HashingBuf::digest() const {
  // Only the tail is hashed here, so the digest is a function of the byte
  // stream alone, not of where flushes happened.
  const std::size_t n = static_cast<std::size_t>(pptr() - pbase());
  std::uint64_t h = mix_word(hash_, n);
  return fnv_bytes(h, pbase(), n);
}

HashingBuf::int_type HashingBuf::overflow(int_type ch) {
  consume();
  if (!traits_type::eq_int_type(ch, traits_type::eof())) {
    *pptr() = traits_type::to_char_type(ch);
    pbump(1);
  }
  return traits_type::not_eof(ch);
}

void HashingBuf::consume() {
  const std::size_t n = static_cast<std::size_t>(pptr() - pbase());
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, pbase() + i, 8);
    hash_ = mix_word(hash_, w);
  }
  hash_ = fnv_bytes(hash_, pbase() + i, n - i);
  consumed_ += n;
  setp(buffer_.data(), buffer_.data() + buffer_.size());
}

// --- CountingSink ---------------------------------------------------

void CountingSink::emit(const ff::obs::TraceEvent& event) {
  const std::string_view type = event.type;
  if (type.starts_with("frame.")) {
    ++frame;
  } else if (type.starts_with("net.")) {
    ++net;
  } else if (type.starts_with("server.")) {
    ++server;
  } else if (type.starts_with("ctl.")) {
    ++ctl;
  }
  std::uint64_t h = fnv_value(hash, event.time);
  h = fnv_bytes(h, type.data(), type.size());
  h = fnv_bytes(h, event.source.data(), event.source.size());
  h = fnv_value(h, event.id);
  for (std::size_t i = 0; i < event.field_count; ++i) {
    h = fnv_value(h, event.fields[i].value);
  }
  hash = fnv_bytes(h, event.detail_value.data(), event.detail_value.size());
  if (inner_ != nullptr) inner_->emit(event);
}

// --- Spans ----------------------------------------------------------

std::uint64_t SpanRecorder::next_id() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void SpanRecorder::record(Span span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

void SpanRecorder::record_all(std::vector<Span> spans) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (Span& s : spans) {
    s.id = next_id_++;
    spans_.push_back(s);
  }
}

std::vector<Span> SpanRecorder::take() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return std::move(spans_);
}

ScopedSpan::ScopedSpan(SpanRecorder* recorder, std::string_view name,
                       std::uint64_t parent, std::uint64_t trace)
    : recorder_(recorder) {
  span_.name = name;
  span_.id = recorder_ != nullptr ? recorder_->next_id() : 0;
  span_.parent = parent;
  span_.trace = trace;
  span_.start = wall_now();
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ == nullptr) return;
  span_.end = wall_now();
  recorder_->record(span_);
}

void ChunkProbe::observe(void* ctx, ff::SimTime /*time*/,
                         std::uint64_t /*seq*/) {
  auto* self = static_cast<ChunkProbe*>(ctx);
  if (self->in_chunk_ == 0) self->chunk_start_ = wall_now();
  if (++self->in_chunk_ < kChunk) return;
  Span chunk;
  chunk.name = "sim.chunk";
  chunk.detail = self->partition;
  chunk.start = self->chunk_start_;
  chunk.end = wall_now();
  self->chunks.push_back(chunk);
  self->in_chunk_ = 0;
}

// --- Output helpers -------------------------------------------------

std::string num(double value) {
  std::array<char, 64> buf{};
  const auto res = std::to_chars(buf.data(), buf.data() + buf.size(), value);
  return std::string(buf.data(), res.ptr);
}

std::string hex64(std::uint64_t value) {
  std::array<char, 17> buf{};
  const auto res =
      std::to_chars(buf.data(), buf.data() + buf.size(), value, 16);
  std::string digits(buf.data(), res.ptr);
  return std::string(16 - digits.size(), '0') + digits;
}

}  // namespace ffbench
