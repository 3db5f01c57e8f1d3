#include "ff/core/experiment.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "ff/control/frame_feedback.h"

namespace ff::core {
namespace {

/// Cadence of the recorded time series (figures sample at 1 Hz).
constexpr SimDuration kSamplePeriod = kSecond;

}  // namespace

double DeviceResult::goodput_fraction() const {
  if (totals.frames_captured == 0) return 0.0;
  return static_cast<double>(totals.successes()) /
         static_cast<double>(totals.frames_captured);
}

double DeviceResult::mean_throughput() const {
  const TimeSeries* p = series.find("P");
  if (!p || p->empty()) return 0.0;
  return p->stats().mean();
}

double DeviceResult::joules_per_inference() const {
  if (totals.successes() == 0) return 0.0;
  return energy_joules / static_cast<double>(totals.successes());
}

double ExperimentResult::total_mean_throughput() const {
  double sum = 0.0;
  for (const auto& d : devices) sum += d.mean_throughput();
  return sum;
}

Experiment::Experiment(Scenario scenario, ControllerFactory controllers)
    : scenario_(std::move(scenario)),
      factory_(std::move(controllers)),
      // K = 0 is an alias for K = 1.
      psim_(scenario_.seed, {std::max<std::size_t>(scenario_.partitions, 1),
                             scenario_.partition_threads}) {
  scenario_.validate();
  build();
}

Experiment::~Experiment() = default;

void Experiment::resolve_topology() {
  if (scenario_.fleet.enabled()) {
    specs_ = scenario_.fleet.servers;
    if (scenario_.fleet.placement) {
      placement_ = scenario_.fleet.placement();
      if (!placement_) {
        throw std::invalid_argument(
            "Experiment: placement factory returned null");
      }
    }
  } else {
    // Legacy single-server scenario: the M = 1 degenerate topology.
    ServerSpec spec;
    spec.config = scenario_.server;
    spec.background_load = scenario_.background_load;
    spec.background = scenario_.background;
    specs_.push_back(std::move(spec));
  }

  const std::size_t server_count = specs_.size();
  std::vector<std::size_t> counts(server_count, 0);
  PlacementView view;
  view.server_count = server_count;
  view.assigned_counts = &counts;
  view.topology = &scenario_.fleet;

  assignments_.reserve(scenario_.devices.size());
  const auto& hints = scenario_.fleet.placement_hints;
  for (std::size_t i = 0; i < scenario_.devices.size(); ++i) {
    std::size_t target;
    if (i < hints.size() && hints[i] >= 0) {
      target = static_cast<std::size_t>(hints[i]);
    } else if (placement_) {
      target = placement_->place(i, scenario_.devices[i], view);
    } else {
      target = i % server_count;
    }
    if (target >= server_count) {
      throw std::invalid_argument(
          "Experiment: device placed on nonexistent server");
    }
    ++counts[target];
    assignments_.push_back(target);
  }
}

NetworkedTransportConfig Experiment::path_config(
    std::size_t device_index, const device::DeviceConfig& dconf,
    std::size_t server_index) const {
  // With one server the names are exactly the legacy single-server names:
  // RNG streams fork off component labels, so identical naming is what
  // makes the M = 1 topology bit-identical to the historical path.
  const std::string base =
      specs_.size() == 1
          ? dconf.name
          : dconf.name + "~s" + std::to_string(server_index);
  NetworkedTransportConfig tconf;
  tconf.name = base;
  tconf.client_id = device_index + 1;
  tconf.model = dconf.model;
  tconf.uplink = scenario_.uplink_template;
  tconf.uplink.name = base + "/up";
  tconf.downlink = scenario_.downlink_template;
  tconf.downlink.name = base + "/down";
  return tconf;
}

void Experiment::build() {
  resolve_topology();
  const std::size_t parts = psim_.partition_count();

  // Server s lives on partition s % K (s = 0 on partition 0, preserving
  // the single-server mapping): its EdgeServer, background load, and
  // every reverse link it transmits on.
  for (std::size_t s = 0; s < specs_.size(); ++s) {
    const ServerSpec& spec = specs_[s];
    sim::Simulator& server_sim = psim_.partition(s % parts);
    servers_.push_back(
        std::make_unique<server::EdgeServer>(server_sim, spec.config));
    if (!spec.background_load.empty()) {
      loads_.push_back(std::make_unique<server::LoadGenerator>(
          server_sim, *servers_.back(), spec.background_load,
          spec.background));
    }
  }

  // A shared medium is one contention domain: all its links must live on
  // one simulator, so devices of one medium group are co-partitioned.
  if (scenario_.shared_uplink_medium) {
    const std::size_t groups =
        std::max<std::size_t>(scenario_.uplink_medium_groups, 1);
    for (std::size_t g = 0; g < groups; ++g) {
      uplink_media_.push_back(std::make_unique<net::SharedMedium>(
          groups == 1 ? "uplink-ap" : "uplink-ap-" + std::to_string(g)));
    }
  }

  // Every link gets its creation index as its delivery id, in the same
  // order at every K, so each receiver sees one delivery order for any K.
  // Only a link whose ends sit on different partitions posts through a
  // boundary edge. Its lookahead is the floor of every propagation delay
  // the run can configure: the netem phases and both link templates.
  const SimDuration floor = std::min(
      {scenario_.network.min_propagation_delay(),
       scenario_.uplink_template.initial.propagation_delay,
       scenario_.downlink_template.initial.propagation_delay});
  std::uint32_t next_link_id = 0;
  const auto bind = [&](net::Link& link, std::size_t from, std::size_t to) {
    link.set_delivery_id(next_link_id++);
    if (from == to) return;
    if (floor <= 0) {
      throw std::invalid_argument(
          "Experiment: links across partitions require a strictly positive "
          "propagation delay on every link and netem phase (the "
          "conservative lookahead); this scenario's minimum is zero");
    }
    link.bind_boundary(&psim_.add_edge(from, to, floor));
  };

  for (std::size_t i = 0; i < scenario_.devices.size(); ++i) {
    const auto& dconf = scenario_.devices[i];
    auto rig = std::make_unique<DeviceRig>();
    rig->index = i;
    const std::size_t group =
        uplink_media_.empty() ? i : i % uplink_media_.size();
    rig->partition = group % parts;
    sim::Simulator& dev_sim = psim_.partition(rig->partition);

    // A device can only ever be homed on its build-time server unless a
    // placement policy may re-home it (on_rejection may return any
    // server), so only the paths it can reach are built.
    rig->transport = std::make_unique<FleetOffloadTransport>(servers_.size());
    for (std::size_t s = 0; s < servers_.size(); ++s) {
      if (!placement_ && s != assignments_[i]) continue;
      auto path = std::make_unique<NetworkedOffloadTransport>(
          dev_sim, psim_.partition(s % parts), *servers_[s],
          path_config(i, dconf, s));
      net::Link& fwd = path->path().forward_link();
      net::Link& rev = path->path().reverse_link();
      // Netem is applied per link on the link's home partition: phase
      // changes are sender-side state, and one event per (phase, link)
      // keeps the event count independent of the partition count.
      scenario_.network.apply(fwd);
      scenario_.network.apply(rev);
      bind(fwd, rig->partition, s % parts);
      bind(rev, s % parts, rig->partition);
      if (!uplink_media_.empty()) {
        // The AP is on the device side: every server path of this device
        // contends on the device group's medium.
        fwd.attach_medium(uplink_media_[group].get());
      }
      rig->transport->add_path(s, std::move(path));
    }
    rig->transport->set_active(assignments_[i]);
    rig->initial_server = assignments_[i];

    rig->device =
        std::make_unique<device::EdgeDevice>(dev_sim, *rig->transport, dconf);
    rig->controller = factory_(i);
    if (!rig->controller) {
      throw std::invalid_argument(
          "Experiment: controller factory returned null");
    }

    DeviceRig* raw = rig.get();
    rig->control_timer = std::make_unique<sim::PeriodicTimer>(
        dev_sim, [this, raw](std::uint64_t) { control_tick(*raw); });
    rig->sample_timer = std::make_unique<sim::PeriodicTimer>(
        dev_sim, [this, raw](std::uint64_t) { sample_rig(*raw); });
    rigs_.push_back(std::move(rig));
  }

}

void Experiment::set_trace_sink(obs::TraceSink* sink) {
  // Windows run on several workers emit concurrently; TraceSink
  // implementations are single-threaded by contract, so interpose the
  // serializing wrapper.
  if (psim_.worker_count() > 1 && sink != nullptr) {
    synced_sink_ = std::make_unique<obs::SynchronizedTraceSink>(*sink);
    sink = synced_sink_.get();
  } else {
    synced_sink_.reset();
  }
  trace_sink_ = sink;
  for (auto& server : servers_) server->attach_trace_sink(sink);
  for (auto& rig : rigs_) {
    rig->device->attach_trace_sink(sink);
    for (std::size_t s = 0; s < rig->transport->server_count(); ++s) {
      if (!rig->transport->has_path(s)) continue;
      rig->transport->path(s).path().attach_trace_sink(sink);
    }
  }
}

void Experiment::control_tick(DeviceRig& rig) {
  device::EdgeDevice& dev = *rig.device;
  control::Controller& ctl = *rig.controller;

  control::ControllerInput input = dev.controller_input();
  if (ctl.wants_probe()) {
    input.probe_success = dev.take_probe_result();
  }
  const double po = ctl.update(input);
  dev.set_offload_rate(po);
  if (const auto quality = ctl.frame_quality()) {
    dev.set_frame_quality(*quality);
  }
  if (ctl.wants_probe()) dev.send_probe();
  maybe_rehome(rig);

  if (trace_sink_ != nullptr) {
    obs::TraceEvent event(psim_.partition(rig.partition).now(),
                          obs::ev::kControlTick, dev.config().name);
    event.with("po", po)
        .with("T", input.timeout_rate)
        .with("pl", input.local_rate)
        .with("ps", input.offload_success_rate);
    if (const auto* ffc =
            dynamic_cast<const control::FrameFeedbackController*>(&ctl)) {
      event.with("e", ffc->last_error()).with("u", ffc->last_update());
    }
    trace_sink_->emit(event);
  }
}

/// Rejection -> re-placement: when the server turned this device away at
/// admission since the last tick, ask the placement policy where to go
/// next. Runs on the device's own partition; on_rejection is const and
/// thread-safe by contract, and set_active only mutates this rig.
void Experiment::maybe_rehome(DeviceRig& rig) {
  if (!placement_ || rig.transport->server_count() <= 1) return;
  const std::uint64_t rejections =
      rig.device->offload_client().stats().admission_rejections;
  if (rejections <= rig.admission_rejections_seen) return;
  rig.admission_rejections_seen = rejections;
  const std::size_t current = rig.transport->active();
  const std::size_t next = placement_->on_rejection(
      rig.index, current, rig.transport->server_count(), rejections);
  if (next != current && next < rig.transport->server_count()) {
    rig.transport->set_active(next);
  }
}

void Experiment::sample_rig(DeviceRig& rig) {
  const SimTime now = psim_.partition(rig.partition).now();
  device::EdgeDevice& dev = *rig.device;
  device::Telemetry& t = dev.telemetry();
  rig.series.series("P").record(now, t.throughput(now));
  rig.series.series("Pl").record(now, t.local_rate(now));
  rig.series.series("Po_target").record(now, dev.offload_rate());
  rig.series.series("Po_achieved").record(now, t.offload_attempt_rate(now));
  rig.series.series("Po_success").record(now, t.offload_success_rate(now));
  rig.series.series("T").record(now, t.timeout_rate(now));
  rig.series.series("Tn").record(now, t.network_timeout_rate(now));
  rig.series.series("Tl").record(now, t.load_timeout_rate(now));
  rig.series.series("cpu").record(now, dev.cpu_utilization());
  rig.series.series("quality").record(now, dev.frame_spec().jpeg_quality);
  rig.series.series("accuracy").record(now, dev.effective_accuracy());
  const double power = dev.power_draw_w();
  rig.series.series("power_w").record(now, power);
  rig.energy.accumulate(power, kSamplePeriod);
}

ExperimentResult Experiment::run() {
  if (ran_) throw std::logic_error("Experiment::run called twice");
  ran_ = true;

  SimDuration first_control = 0;
  for (auto& rig : rigs_) {
    rig->device->start();
    rig->control_timer->start(rig->controller->measure_period(),
                              rig->controller->measure_period());
    first_control = std::max(first_control,
                             rig->controller->measure_period());
  }
  for (auto& load : loads_) load->start();
  // Offset sampling half a period after control ticks so each sample sees
  // the period's settled state; the first sample lands half a sample
  // period after the last rig's first control tick, so no series ever
  // records the pre-control transient.
  const SimTime first_sample = first_control + kSamplePeriod / 2;
  for (auto& rig : rigs_) {
    rig->sample_timer->start(kSamplePeriod, first_sample);
  }
  psim_.run_until(scenario_.duration);

  ExperimentResult result;
  result.scenario = scenario_.name;
  result.seed = scenario_.seed;
  result.duration = psim_.now();
  result.events_executed = psim_.events_executed();

  for (std::size_t s = 0; s < servers_.size(); ++s) {
    ServerResult sr;
    sr.name = specs_[s].config.name;
    sr.stats = servers_[s]->stats();
    sr.gpu_utilization = servers_[s]->gpu_utilization();
    sr.admission = servers_[s]->admission().stats();
    sr.queue_depth_at_end = servers_[s]->queue_depth();
    sr.in_flight_batch_at_end = servers_[s]->in_flight_batch();
    result.servers.push_back(std::move(sr));
  }

  for (auto& rig : rigs_) {
    DeviceResult d;
    d.name = rig->device->config().name;
    d.controller = std::string(rig->controller->name());
    // Terminal accounting: frames the horizon cut off mid-pipeline would
    // otherwise vanish from the totals and break frame conservation.
    rig->device->telemetry().record_in_flight_at_end(
        rig->device->in_flight_frames());
    d.totals = rig->device->telemetry().totals();
    d.offload = rig->device->offload_client().stats();
    d.uplink = rig->transport->uplink_stats();
    d.energy_joules = rig->energy.joules();
    d.series = std::move(rig->series);
    d.initial_server = rig->initial_server;
    d.final_server = rig->transport->active();
    result.devices.push_back(std::move(d));
  }

  for (const TenantSloSpec& spec : scenario_.fleet.tenants) {
    TenantResult tr;
    tr.name = spec.name;
    tr.min_goodput = spec.min_goodput;
    tr.min_throughput_fps = spec.min_throughput_fps;
    for (const std::size_t member : spec.devices) {
      const DeviceResult& d = result.devices.at(member);
      tr.totals += d.totals;
      tr.mean_throughput_fps += d.mean_throughput();
    }
    result.tenants.push_back(std::move(tr));
  }
  return result;
}

ExperimentResult run_experiment(Scenario scenario,
                                ControllerFactory controllers) {
  Experiment e(std::move(scenario), std::move(controllers));
  return e.run();
}

}  // namespace ff::core
