#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <vector>

#include "ff/control/frame_feedback.h"
#include "ff/core/experiment.h"
#include "ff/obs/trace.h"
#include "ff/sweep/sweep.h"

namespace ff::core {
namespace {

/// A small but genuinely multi-device scenario: four devices in two
/// shared-medium groups, a loss burst mid-run, background server load --
/// enough cross-partition traffic to catch any ordering leak.
Scenario partition_scenario(std::uint64_t seed) {
  Scenario s = Scenario::ideal(20 * kSecond);
  s.name = "partition-determinism";
  s.seed = seed;
  const device::DeviceConfig proto = s.devices.at(0);
  s.devices.clear();
  for (int i = 0; i < 4; ++i) {
    device::DeviceConfig d = proto;
    d.name = "pi-" + std::to_string(i);
    s.add_device(std::move(d));
  }
  s.shared_uplink_medium = true;
  s.uplink_medium_groups = 2;
  s.network = net::NetemSchedule::loss_injection(8 * kSecond, 0.05,
                                                 Bandwidth::mbps(10.0));
  s.background_load = server::LoadSchedule::constant(Rate{40.0});
  return s;
}

std::uint64_t fingerprint_at(std::uint64_t seed, std::size_t partitions,
                             unsigned threads) {
  Scenario s = partition_scenario(seed);
  s.partitions = partitions;
  s.partition_threads = threads;
  ExperimentResult r = run_experiment(
      s, make_controller_factory<control::FrameFeedbackController>());
  return sweep::result_fingerprint(r);
}

/// Bit-identical result fingerprints for every partition count, K = 0
/// included, over several seeds.
TEST(PartitionDeterminism, FingerprintMatrixAcrossPartitionCounts) {
  for (const std::uint64_t seed : {42ull, 7ull, 1234ull}) {
    const std::uint64_t reference = fingerprint_at(seed, 1, 1);
    for (const std::size_t k : {std::size_t{0}, std::size_t{2},
                                std::size_t{4}, std::size_t{8}}) {
      EXPECT_EQ(reference, fingerprint_at(seed, k, 1))
          << "seed " << seed << " K=" << k << " (serial)";
    }
  }
}

/// FNV-1a over every byte written, so a JSONL trace can be compared
/// without holding it in memory.
class HashingBuf final : public std::streambuf {
 public:
  std::uint64_t hash{0xcbf29ce484222325ull};

 protected:
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      mix(traits_type::to_char_type(c));
    }
    return c;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) mix(s[i]);
    return n;
  }

 private:
  void mix(char c) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  }
};

struct FleetRun {
  std::uint64_t fingerprint{0};
  std::uint64_t trace_hash{0};
};

/// 256 devices in 32 shared-medium groups on four servers, a clean
/// 400 Mbps / 2 ms link, 10 s: enough link deliveries tie at one timestamp
/// that a K-dependent tie-break shows in the fingerprint.
FleetRun run_tied_fleet(std::size_t partitions, unsigned threads,
                        bool traced) {
  Scenario s = Scenario::ideal(10 * kSecond);
  s.name = "tied-fleet";
  s.seed = 1;
  const device::DeviceConfig proto = s.devices.at(0);
  s.devices.clear();
  for (int i = 0; i < 256; ++i) {
    device::DeviceConfig d = proto;
    d.name = "dev-" + std::to_string(i);
    s.add_device(std::move(d));
  }
  s.shared_uplink_medium = true;
  s.uplink_medium_groups = 32;
  const net::LinkConditions link{Bandwidth::mbps(400.0), 0.0,
                                 2 * kMillisecond};
  s.network = net::NetemSchedule::constant(link);
  s.uplink_template.initial = link;
  s.downlink_template.initial = link;
  s.fleet = FleetTopology::uniform(s.server, 4);
  s.partitions = partitions;
  s.partition_threads = threads;

  Experiment e(s, make_controller_factory<control::FrameFeedbackController>());
  HashingBuf buf;
  std::ostream os(&buf);
  obs::JsonlTraceSink sink(os);
  if (traced) e.set_trace_sink(&sink);
  FleetRun run;
  run.fingerprint = sweep::result_fingerprint(e.run());
  sink.flush();
  run.trace_hash = buf.hash;
  return run;
}

/// A fleet where many link deliveries tie gives one fingerprint at every
/// K and thread count, and one trace at K = 0 and K = 1.
TEST(PartitionDeterminism, TiedFleetAgreesAcrossKAndThreads) {
  const FleetRun k0 = run_tied_fleet(0, 1, true);
  const FleetRun k1 = run_tied_fleet(1, 1, true);
  EXPECT_EQ(k0.fingerprint, k1.fingerprint);
  EXPECT_EQ(k0.trace_hash, k1.trace_hash);
  for (const std::size_t k : {std::size_t{0}, std::size_t{1},
                              std::size_t{4}}) {
    for (const unsigned threads : {1u, 2u}) {
      if (threads == 1 && k <= 1) continue;  // the traced runs above
      EXPECT_EQ(run_tied_fleet(k, threads, false).fingerprint,
                k0.fingerprint)
          << "K=" << k << " threads=" << threads;
    }
  }
}

/// Thread count must not leak into results: the worker gang at K=4 with
/// 4 threads reproduces the serial fingerprint exactly.
TEST(PartitionDeterminism, ThreadCountDoesNotChangeResults) {
  const std::uint64_t serial = fingerprint_at(42, 4, 1);
  EXPECT_EQ(serial, fingerprint_at(42, 4, 4));
  EXPECT_EQ(serial, fingerprint_at(42, 4, 2));
  EXPECT_EQ(serial, fingerprint_at(42, 4, 0));  // one thread per partition
}

/// The partitioned runs actually do something: results carry frames and
/// the run completes the full horizon.
TEST(PartitionDeterminism, PartitionedRunProducesWork) {
  Scenario s = partition_scenario(42);
  s.partitions = 4;
  s.partition_threads = 1;
  ExperimentResult r = run_experiment(
      s, make_controller_factory<control::FrameFeedbackController>());
  EXPECT_EQ(r.duration, 20 * kSecond);
  EXPECT_GT(r.events_executed, 1000u);
  ASSERT_EQ(r.devices.size(), 4u);
  for (const DeviceResult& d : r.devices) {
    EXPECT_GT(d.totals.frames_captured, 0u) << d.name;
    EXPECT_GT(d.uplink.messages_delivered, 0u) << d.name;
  }
}

/// A zero propagation delay has no lookahead; the builder must refuse it
/// up front rather than deadlock or serialize.
TEST(PartitionDeterminism, ZeroDelayScenarioRejected) {
  Scenario s = partition_scenario(42);
  s.partitions = 2;
  net::LinkConditions zero;
  zero.propagation_delay = 0;
  s.network = net::NetemSchedule::constant(zero);
  s.uplink_template.initial.propagation_delay = 0;
  s.downlink_template.initial.propagation_delay = 0;
  EXPECT_THROW(
      (void)run_experiment(
          s, make_controller_factory<control::FrameFeedbackController>()),
      std::invalid_argument);
}

/// The sweep axis helper labels and applies partition counts.
TEST(PartitionDeterminism, PartitionAxisAppliesCounts) {
  sweep::Axis axis = sweep::partition_axis({0, 1, 4});
  ASSERT_EQ(axis.values.size(), 3u);
  EXPECT_EQ(axis.values[0].label, "K=0");
  EXPECT_EQ(axis.values[2].label, "K=4");
  Scenario s = Scenario::ideal();
  axis.values[2].apply(s);
  EXPECT_EQ(s.partitions, 4u);
}

}  // namespace
}  // namespace ff::core
