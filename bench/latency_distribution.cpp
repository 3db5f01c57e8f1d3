// Offload latency distributions: where each policy's successful offloads
// land relative to the 250 ms deadline under intermediate conditions
// (6 Mbps, 3% loss). The margin distribution explains the timeout rates
// the figures report: policies that run the link hot push the whole
// distribution toward the deadline cliff.

#include <iostream>

#include "ff/core/framefeedback.h"
#include "ff/rt/thread_pool.h"
#include "ff/sweep/sweep.h"
#include "ff/util/histogram.h"

int main() {
  using namespace ff;

  std::cout << "=== Offload latency vs the 250 ms deadline (6 Mbps, 3% "
               "loss) ===\n\n";

  core::Scenario scenario = core::Scenario::ideal(120 * kSecond);
  scenario.seed = 42;
  const net::LinkConditions mid{Bandwidth::mbps(6.0), 0.03, 2 * kMillisecond};
  scenario.network = net::NetemSchedule::constant(mid);
  scenario.uplink_template.initial = mid;
  scenario.downlink_template.initial = mid;

  sweep::SweepConfig cfg;
  cfg.name = "latency_distribution";
  cfg.base = scenario;
  cfg.seed_mode = sweep::SeedMode::kScenario;
  cfg.controllers = {
      {"frame-feedback",
       core::make_controller_factory<control::FrameFeedbackController>()},
      {"always-offload",
       core::make_controller_factory<control::AlwaysOffloadController>()},
      {"fixed @ 12 fps",
       core::make_controller_factory<control::FixedRateController>(12.0)},
  };
  const sweep::SweepResult runs = sweep::run(cfg);

  TextTable table({"controller", "offload ok", "p50 (ms)", "p95 (ms)",
                   "p99 (ms)", "max (ms)", "timeouts"});
  for (const auto& point : runs.points) {
    const auto& o = point.result.devices[0].offload;
    table.add_row({point.desc.controller, std::to_string(o.successes),
                   fmt(o.latency_p50.value() / 1000.0, 0),
                   fmt(o.latency_p95.value() / 1000.0, 0),
                   fmt(o.latency_p99.value() / 1000.0, 0),
                   fmt(o.latency_us.max() / 1000.0, 0),
                   std::to_string(o.timeouts_network + o.timeouts_load)});
  }
  std::cout << table.render();

  std::cout << "\nSuccess-latency histogram, frame-feedback (ms):\n";
  // Rebuild a histogram from a dedicated run with the same seed (the
  // stats objects retain quantiles, not raw samples).
  {
    core::Experiment e(
        scenario,
        core::make_controller_factory<control::FrameFeedbackController>());
    Histogram h(0.0, 250.0, 10);
    // Sample through a tracer-free channel: poll telemetry-level latency
    // is windowed, so instead watch the client stats deltas each second.
    sim::PeriodicTimer sampler(e.simulator(), [&](std::uint64_t) {
      // mean over the last window, one sample per second
      const double ms =
          e.device(0).telemetry().mean_offload_latency_us(e.simulator().now()) /
          1000.0;
      if (ms > 0) h.add(ms);
    });
    sampler.start(kSecond, kSecond);
    (void)e.run();
    std::cout << h.render(60);
  }

  std::cout << "\nReading: the feedback controller keeps p95 comfortably\n"
               "inside the deadline by not saturating the link; always-\n"
               "offload queues itself toward the cliff, converting the tail\n"
               "into timeouts.\n";
  rt::shutdown_default_pool();
  return 0;
}
