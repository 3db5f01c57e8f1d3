// The four benchmark workloads and the code that runs one repeat of each.
// Why each workload exists is recorded in perfbench/README.md.

#include <ostream>

#include "bench.h"
#include "ff/control/baselines.h"
#include "ff/control/frame_feedback.h"
#include "ff/core/scenario.h"
#include "ff/sweep/sweep.h"

namespace ffbench {
namespace {

using ff::core::Experiment;
using ff::core::ExperimentResult;
using ff::core::Scenario;

// --- paper_sweep ------------------------------------------------------

constexpr std::size_t kSweepReplicates = 2;
constexpr std::size_t kSweepThreads = 4;

/// The Fig. 3 / Fig. 4 / combined scenarios x the four controllers of the
/// paper's comparison x replicates, seeds derived from `seed`.
ff::sweep::SweepConfig paper_sweep_config(std::uint64_t seed) {
  ff::sweep::SweepConfig cfg;
  cfg.name = "paper_sweep";
  cfg.base.seed = seed;
  ff::sweep::Axis axis;
  axis.name = "scenario";
  const std::pair<const char*, Scenario> scenarios[] = {
      {"fig3", Scenario::paper_network()},
      {"fig4", Scenario::paper_server_load()},
      {"combined", Scenario::paper_combined()},
  };
  for (const auto& [label, scenario] : scenarios) {
    axis.values.push_back(
        {label, [scenario](Scenario& s) { s = scenario; }});
  }
  cfg.axes.push_back(std::move(axis));
  cfg.controllers = {
      {"frame-feedback", ff::core::make_controller_factory<
                             ff::control::FrameFeedbackController>()},
      {"local-only", ff::core::make_controller_factory<
                         ff::control::LocalOnlyController>()},
      {"always-offload", ff::core::make_controller_factory<
                             ff::control::AlwaysOffloadController>()},
      {"interval", ff::core::make_controller_factory<
                       ff::control::IntervalOffloadController>()},
  };
  cfg.replicates = kSweepReplicates;
  cfg.seed_mode = ff::sweep::SeedMode::kDerived;
  cfg.threads = kSweepThreads;
  return cfg;
}

/// Start of the sweep point running on this worker: taken when the
/// controller factory builds device 0, read when the probe extracts.
thread_local double t_point_start = 0.0;

constexpr int kSweepSetupSamples = 5;

/// One set-up of paper_sweep. The sweep builds its experiments on pool
/// workers, inside wall_s; here each (scenario, controller) cell is built
/// once more on this thread so that construction cost shows on this
/// workload's setup_s too.
double paper_sweep_setup(std::uint64_t seed) {
  const double t0 = wall_now();
  const ff::sweep::SweepConfig cfg = paper_sweep_config(seed);
  for (const ff::sweep::AxisValue& value : cfg.axes.at(0).values) {
    Scenario scenario = cfg.base;
    value.apply(scenario);
    for (const ff::sweep::ControllerVariant& variant : cfg.controllers) {
      const Experiment experiment(scenario, variant.factory);
    }
  }
  return wall_now() - t0;
}

/// Wraps the controller factories and adds a probe so each sweep point
/// records a sweep.point span on the worker that ran it.
void instrument_points(ff::sweep::SweepConfig& cfg, SpanRecorder* spans,
                       std::uint64_t parent, std::uint64_t trace) {
  for (ff::sweep::ControllerVariant& variant : cfg.controllers) {
    variant.factory = [inner = variant.factory](std::size_t device) {
      if (device == 0) t_point_start = wall_now();
      return inner(device);
    };
  }
  cfg.probes.push_back(
      {"point_wall_s", [spans, parent, trace](const ExperimentResult&) {
         Span span;
         span.name = "sweep.point";
         span.id = spans->next_id();
         span.parent = parent;
         span.trace = trace;
         span.start = t_point_start;
         span.end = wall_now();
         spans->record(span);
         return span.end - span.start;
       }});
}

Repeat run_paper_sweep(std::uint64_t seed, SpanRecorder* spans,
                       std::uint64_t trace) {
  Repeat out;
  for (int i = 0; i < kSweepSetupSamples; ++i) {
    out.setup_s.push_back(paper_sweep_setup(seed));
  }
  const ScopedSpan root(spans, "bench.repeat", 0, trace);
  ff::sweep::SweepConfig cfg;
  {
    const ScopedSpan span(spans, "core.scenario", root.id(), trace);
    cfg = paper_sweep_config(seed);
  }
  const std::size_t points = cfg.axes.at(0).values.size() *
                             cfg.controllers.size() * cfg.replicates;
  out.tally.attempted = points;

  ff::sweep::SweepResult result;
  std::string error;
  {
    const ScopedSpan span(spans, "sweep.run", root.id(), trace);
    if (spans != nullptr) instrument_points(cfg, spans, span.id(), trace);
    const double c0 = cpu_now();
    const double w0 = wall_now();
    error = guarded([&] { result = ff::sweep::run(cfg); });
    out.wall_s = wall_now() - w0;
    out.cpu_s = cpu_now() - c0;
  }
  if (!error.empty()) {
    for (std::size_t i = 0; i < points; ++i) out.tally.fail(error);
    return out;
  }
  {
    const ScopedSpan span(spans, "sweep.fingerprint", root.id(), trace);
    for (const ff::sweep::SweepPoint& p : result.points) {
      out.fingerprints.push_back(ff::sweep::result_fingerprint(p.result));
    }
  }
  for (const ff::sweep::SweepPoint& p : result.points) {
    out.sim.add(p.result);
    const std::string why = conservation_error(p.result);
    if (!why.empty()) out.tally.fail(p.desc.label + ": " + why);
    if (spans != nullptr) out.point_wall_s.push_back(p.metrics.at(0));
  }
  return out;
}

// --- fleet workloads --------------------------------------------------

struct FleetShape {
  std::size_t devices;
  std::size_t groups;  ///< shared uplink media
  std::size_t servers;
  ff::SimDuration duration;
  std::size_t partitions;  ///< 0 = single simulator
  unsigned partition_threads;
  bool jsonl;  ///< the workload attaches a JSONL trace sink
};

FleetShape fleet_shape(Workload workload) {
  using ff::kSecond;
  switch (workload) {
    case Workload::kFleetPartitioned:
      return {1024, 128, 16, 4 * kSecond, 4, 4, false};
    case Workload::kFleetTraced:
      return {256, 32, 4, 60 * kSecond, 0, 1, true};
    default:
      return {1024, 128, 16, 4 * kSecond, 0, 1, false};
  }
}

/// N FrameFeedback devices in shared-medium groups on a clean
/// 400 Mbps / 2 ms link, offloading to M uniform servers.
Scenario fleet_scenario(const FleetShape& shape, std::uint64_t seed) {
  Scenario s = Scenario::ideal(shape.duration);
  s.name = "fleet";
  s.seed = seed;
  const ff::device::DeviceConfig proto = s.devices.at(0);
  s.devices.clear();
  for (std::size_t i = 0; i < shape.devices; ++i) {
    ff::device::DeviceConfig d = proto;
    d.name = "dev-" + std::to_string(i);
    s.add_device(std::move(d));
  }
  s.shared_uplink_medium = true;
  s.uplink_medium_groups = shape.groups;
  const ff::net::LinkConditions link{ff::Bandwidth::mbps(400.0), 0.0,
                                     2 * ff::kMillisecond};
  s.network = ff::net::NetemSchedule::constant(link);
  s.uplink_template.initial = link;
  s.downlink_template.initial = link;
  s.fleet = ff::core::FleetTopology::uniform(s.server, shape.servers);
  s.partitions = shape.partitions;
  s.partition_threads = shape.partition_threads;
  return s;
}

ff::core::ControllerFactory fleet_controllers() {
  return ff::core::make_controller_factory<
      ff::control::FrameFeedbackController>();
}

Repeat run_fleet(Workload workload, std::uint64_t seed, SinkMode sink,
                 SpanRecorder* spans, std::uint64_t trace) {
  const FleetShape shape = fleet_shape(workload);
  Repeat out;
  out.tally.attempted = 1;
  // Observers and sinks are declared first so they outlive the experiment
  // that points at them.
  std::vector<ChunkProbe> probes;
  HashingBuf bytes;
  std::ostream stream(&bytes);
  ff::obs::JsonlTraceSink jsonl(stream);
  const bool want_jsonl = shape.jsonl && sink == SinkMode::kWorkload;
  CountingSink counting(want_jsonl ? &jsonl : nullptr);

  const ScopedSpan root(spans, "bench.repeat", 0, trace);
  const double t0 = wall_now();
  std::unique_ptr<Experiment> experiment;
  std::string error = guarded([&] {
    Scenario scenario;
    {
      const ScopedSpan span(spans, "core.scenario", root.id(), trace);
      scenario = fleet_scenario(shape, seed);
    }
    const ScopedSpan span(spans, "core.build", root.id(), trace);
    experiment =
        std::make_unique<Experiment>(std::move(scenario), fleet_controllers());
  });
  out.setup_s.push_back(wall_now() - t0);
  if (!error.empty()) {
    out.tally.fail(error);
    return out;
  }

  ff::sim::PartitionedSimulator* psim = experiment->partitioned_simulator();
  const std::size_t partitions = psim ? psim->partition_count() : 1;
  probes.resize(spans != nullptr ? partitions : 0);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    probes[i].partition = i;
    ff::sim::Simulator& sim =
        psim ? psim->partition(i) : experiment->simulator();
    sim.set_event_observer(&ChunkProbe::observe, &probes[i]);
  }

  out.traced = want_jsonl || sink == SinkMode::kHash;
  if (out.traced) experiment->set_trace_sink(&counting);

  ExperimentResult result;
  std::uint64_t run_span = 0;
  {
    const ScopedSpan span(spans, "core.run", root.id(), trace);
    run_span = span.id();
    const double c0 = cpu_now();
    const double w0 = wall_now();
    error = guarded([&] { result = experiment->run(); });
    out.wall_s = wall_now() - w0;
    out.cpu_s = cpu_now() - c0;
  }
  if (!error.empty()) {
    out.tally.fail(error);
    return out;
  }

  if (out.traced) {
    jsonl.flush();
    out.trace_bytes = bytes.bytes();
    out.trace_hash = want_jsonl ? bytes.digest() : counting.hash;
    out.trace_events = {counting.frame, counting.net, counting.server,
                        counting.ctl};
  }
  for (std::size_t i = 0; psim != nullptr && i < partitions; ++i) {
    out.partition_events.push_back(psim->partition(i).events_executed());
  }
  for (ChunkProbe& probe : probes) {
    for (Span& chunk : probe.chunks) {
      chunk.parent = run_span;
      chunk.trace = trace;
      out.event_cost_ns.push_back((chunk.end - chunk.start) * 1e9 /
                                  ChunkProbe::kChunk);
    }
    spans->record_all(std::move(probe.chunks));
  }
  {
    const ScopedSpan span(spans, "sweep.fingerprint", root.id(), trace);
    out.fingerprints.push_back(ff::sweep::result_fingerprint(result));
  }
  out.sim.add(result);
  const std::string why = conservation_error(result);
  if (!why.empty()) out.tally.fail(why);
  return out;
}

}  // namespace

const std::vector<WorkloadInfo>& workloads() {
  static const std::vector<WorkloadInfo> kAll = {
      {Workload::kPaperSweep, "paper_sweep", kSweepThreads},
      {Workload::kFleetSerial, "fleet_serial", 1},
      {Workload::kFleetPartitioned, "fleet_partitioned",
       fleet_shape(Workload::kFleetPartitioned).partition_threads},
      {Workload::kFleetTraced, "fleet_traced", 1},
  };
  return kAll;
}

Repeat run_repeat(Workload workload, std::uint64_t seed, SinkMode sink,
                  SpanRecorder* spans, std::uint64_t trace) {
  if (workload == Workload::kPaperSweep) {
    return run_paper_sweep(seed, spans, trace);
  }
  return run_fleet(workload, seed, sink, spans, trace);
}

}  // namespace ffbench
