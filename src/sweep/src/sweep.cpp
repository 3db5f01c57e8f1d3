#include "ff/sweep/sweep.h"

#include <bit>
#include <fstream>
#include <future>
#include <optional>
#include <stdexcept>
#include <utility>

#include "ff/rt/thread_pool.h"
#include "ff/util/csv.h"
#include "ff/util/rng.h"

namespace ff::sweep {

namespace {

/// FNV-1a over 64-bit words, mixed byte-wise (the same construction the
/// golden determinism test uses for event streams).
struct Fnv64 {
  std::uint64_t hash{1469598103934665603ull};

  void mix(std::uint64_t v) {
    for (int shift = 0; shift < 64; shift += 8) {
      hash ^= (v >> shift) & 0xff;
      hash *= 1099511628211ull;
    }
  }
  void mix_double(double d) { mix(std::bit_cast<std::uint64_t>(d)); }
  void mix_str(const std::string& s) { mix(hash_label(s)); }
  void mix_stats(const StreamingStats& s) {
    mix(s.count());
    mix_double(s.mean());
    mix_double(s.min());
    mix_double(s.max());
  }
};

std::size_t checked_total(const SweepConfig& config) {
  if (config.controllers.empty()) {
    throw std::invalid_argument("sweep::run: no controller variants");
  }
  if (config.replicates == 0) {
    throw std::invalid_argument("sweep::run: zero replicates");
  }
  std::size_t total = config.controllers.size() * config.replicates;
  for (const Axis& axis : config.axes) {
    if (axis.values.empty()) {
      throw std::invalid_argument("sweep::run: axis '" + axis.name +
                                  "' has no values");
    }
    total *= axis.values.size();
  }
  return total;
}

/// Builds the identity of every point, in linear order: axes vary
/// slowest (first axis outermost), then controller, then replicate.
std::vector<PointDesc> enumerate_points(const SweepConfig& config,
                                        std::size_t total) {
  std::vector<PointDesc> descs;
  descs.reserve(total);
  std::vector<std::size_t> axis_indices(config.axes.size(), 0);

  for (std::size_t index = 0; index < total; ++index) {
    PointDesc d;
    d.index = index;
    // Decompose the linear index, replicate fastest.
    std::size_t rest = index;
    d.replicate = rest % config.replicates;
    rest /= config.replicates;
    d.controller_index = rest % config.controllers.size();
    rest /= config.controllers.size();
    for (std::size_t a = config.axes.size(); a-- > 0;) {
      axis_indices[a] = rest % config.axes[a].values.size();
      rest /= config.axes[a].values.size();
    }
    d.axis_indices = axis_indices;
    d.controller = config.controllers[d.controller_index].name;
    for (std::size_t a = 0; a < config.axes.size(); ++a) {
      d.coordinates.push_back(config.axes[a].values[axis_indices[a]].label);
      d.label += config.axes[a].name + "=" + d.coordinates.back() + ",";
    }
    d.label += d.controller;
    if (config.replicates > 1) {
      d.label += "#" + std::to_string(d.replicate);
    }
    descs.push_back(std::move(d));
  }
  return descs;
}

/// Applies the axis mutations and seed policy, runs the experiment and
/// extracts the probes. Called from pool workers; everything it touches
/// is either point-local or const shared config.
SweepPoint run_point(const SweepConfig& config, PointDesc desc) {
  core::Scenario scenario = config.base;
  for (std::size_t a = 0; a < config.axes.size(); ++a) {
    const AxisValue& value = config.axes[a].values[desc.axis_indices[a]];
    if (value.apply) value.apply(scenario);
  }
  scenario.seed = desc.seed;

  core::Experiment experiment(
      scenario, config.controllers[desc.controller_index].factory);

  SweepPoint point;
  point.desc = std::move(desc);
  point.result = experiment.run();
  point.metrics.reserve(config.probes.size());
  for (const MetricProbe& probe : config.probes) {
    point.metrics.push_back(probe.extract(point.result));
  }
  return point;
}

void cell_key_columns(CsvWriter& w, const PointDesc& desc) {
  for (const std::string& coordinate : desc.coordinates) {
    w.field(coordinate);
  }
  w.field(desc.controller);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

std::uint64_t derive_point_seed(std::uint64_t base_seed,
                                std::uint64_t point_index) {
  // One splitmix64 step of the base seed perturbed by the index; the
  // golden-ratio multiplier keeps consecutive indices far apart in the
  // input domain before mixing.
  std::uint64_t state = base_seed ^ (0x9e3779b97f4a7c15ULL * (point_index + 1));
  return splitmix64(state);
}

std::size_t SweepResult::index_of(
    const std::vector<std::size_t>& axis_indices, std::size_t controller,
    std::size_t replicate) const {
  if (axis_indices.size() != axis_sizes.size()) {
    throw std::out_of_range("SweepResult::index_of: axis rank mismatch");
  }
  std::size_t index = 0;
  for (std::size_t a = 0; a < axis_sizes.size(); ++a) {
    if (axis_indices[a] >= axis_sizes[a]) {
      throw std::out_of_range("SweepResult::index_of: axis index");
    }
    index = index * axis_sizes[a] + axis_indices[a];
  }
  if (controller >= controller_count || replicate >= replicate_count) {
    throw std::out_of_range("SweepResult::index_of: controller/replicate");
  }
  return (index * controller_count + controller) * replicate_count + replicate;
}

SweepResult run(const SweepConfig& config) {
  const std::size_t total = checked_total(config);
  std::vector<PointDesc> descs = enumerate_points(config, total);

  // Seed policy. Both modes depend only on the point identity, never on
  // execution order, which is what makes parallel == serial.
  for (PointDesc& d : descs) {
    if (config.seed_mode == SeedMode::kDerived) {
      d.seed = derive_point_seed(config.base.seed, d.index);
    } else {
      core::Scenario probe = config.base;
      for (std::size_t a = 0; a < config.axes.size(); ++a) {
        const AxisValue& value = config.axes[a].values[d.axis_indices[a]];
        if (value.apply) value.apply(probe);
      }
      d.seed = probe.seed + d.replicate;
    }
  }

  // Observability plumbing: sweep-level events and registry updates
  // happen on this thread only, so the sink needs no lock.
  obs::TraceSink* const sink = config.trace;

  const obs::Labels labels{{"sweep", config.name}};
  obs::Counter* points_done = nullptr;
  obs::Counter* events_executed = nullptr;
  std::vector<obs::Distribution*> probe_dists;
  if (config.metrics != nullptr) {
    config.metrics->gauge("sweep.points_total", labels)
        .set(static_cast<double>(total));
    points_done = &config.metrics->counter("sweep.points_done", labels);
    events_executed = &config.metrics->counter("sweep.events_executed", labels);
    for (const MetricProbe& probe : config.probes) {
      obs::Labels probe_labels = labels;
      probe_labels.emplace_back("metric", probe.name);
      probe_dists.push_back(
          &config.metrics->distribution("sweep.metric", probe_labels));
    }
  }

  if (sink != nullptr) {
    sink->emit(obs::TraceEvent(0, obs::ev::kSweepStart, config.name)
                   .with("points", static_cast<double>(total))
                   .with("replicates",
                         static_cast<double>(config.replicates)));
  }

  SweepResult result;
  result.name = config.name;
  for (const Axis& axis : config.axes) {
    result.axis_names.push_back(axis.name);
    result.axis_sizes.push_back(axis.values.size());
  }
  result.controller_count = config.controllers.size();
  result.replicate_count = config.replicates;
  for (const MetricProbe& probe : config.probes) {
    result.metric_names.push_back(probe.name);
  }
  result.points.reserve(total);

  std::size_t done = 0;
  auto land = [&](SweepPoint point) {
    if (points_done != nullptr) points_done->add(1.0);
    if (events_executed != nullptr) {
      events_executed->add(static_cast<double>(point.result.events_executed));
    }
    for (std::size_t m = 0; m < probe_dists.size(); ++m) {
      probe_dists[m]->observe(point.metrics[m]);
    }
    if (sink != nullptr) {
      sink->emit(obs::TraceEvent(point.result.duration, obs::ev::kSweepPoint,
                                 config.name)
                     .with_id(point.desc.index)
                     .with_detail("point", point.desc.label)
                     .with("events",
                           static_cast<double>(point.result.events_executed))
                     .with("replicate",
                           static_cast<double>(point.desc.replicate)));
    }
    ++done;
    if (config.on_point) config.on_point(point.desc, done, total);
    result.points.push_back(std::move(point));
  };

  if (config.threads == 1) {
    // Literal serial mode: no pool involved at all. The reference
    // ordering every parallel run must reproduce.
    for (PointDesc& d : descs) {
      land(run_point(config, std::move(d)));
    }
  } else {
    std::optional<rt::ThreadPool> owned;
    if (config.threads > 1) owned.emplace(config.threads);
    rt::ThreadPool& pool = owned ? *owned : rt::default_pool();

    std::vector<std::future<SweepPoint>> futures;
    futures.reserve(total);
    for (PointDesc& d : descs) {
      futures.push_back(pool.submit(
          [&config, desc = std::move(d)]() mutable {
            return run_point(config, std::move(desc));
          }));
    }
    // Collect in linear order: output order, metrics and progress are
    // then independent of completion order.
    for (auto& future : futures) {
      land(future.get());
    }
  }

  if (sink != nullptr) {
    sink->emit(obs::TraceEvent(0, obs::ev::kSweepDone, config.name)
                   .with("points", static_cast<double>(total)));
  }
  return result;
}

Axis partition_axis(std::vector<std::size_t> counts) {
  Axis axis;
  axis.name = "partitions";
  for (const std::size_t k : counts) {
    axis.values.push_back(AxisValue{
        "K=" + std::to_string(k),
        [k](core::Scenario& s) { s.partitions = k; }});
  }
  return axis;
}

Axis server_count_axis(std::vector<std::size_t> counts) {
  Axis axis;
  axis.name = "servers";
  for (const std::size_t m : counts) {
    axis.values.push_back(AxisValue{
        "M=" + std::to_string(m), [m](core::Scenario& s) {
          core::FleetTopology fleet =
              core::FleetTopology::uniform(s.server, std::max<std::size_t>(
                                                        m, 1));
          for (auto& spec : fleet.servers) {
            spec.background_load = s.background_load;
            spec.background = s.background;
          }
          // Preserve placement/tenancy settings composed by earlier axes.
          fleet.placement = std::move(s.fleet.placement);
          fleet.placement_hints = std::move(s.fleet.placement_hints);
          fleet.tenants = std::move(s.fleet.tenants);
          s.fleet = std::move(fleet);
        }});
  }
  return axis;
}

Axis placement_axis(
    std::vector<std::pair<std::string, core::PlacementFactory>> policies) {
  Axis axis;
  axis.name = "placement";
  for (auto& [label, factory] : policies) {
    axis.values.push_back(AxisValue{
        label, [factory](core::Scenario& s) { s.fleet.placement = factory; }});
  }
  return axis;
}

std::uint64_t result_fingerprint(const core::ExperimentResult& result) {
  Fnv64 f;
  f.mix_str(result.scenario);
  f.mix(result.seed);
  f.mix(static_cast<std::uint64_t>(result.duration));
  f.mix(result.events_executed);
  f.mix(result.devices.size());
  for (const core::DeviceResult& d : result.devices) {
    f.mix_str(d.name);
    f.mix_str(d.controller);
    f.mix(d.totals.frames_captured);
    f.mix(d.totals.local_completions);
    f.mix(d.totals.local_drops);
    f.mix(d.totals.offload_attempts);
    f.mix(d.totals.offload_successes);
    f.mix(d.totals.timeouts_network);
    f.mix(d.totals.timeouts_load);
    f.mix(d.totals.admission_rejections);
    f.mix(d.totals.in_flight_at_end);
    f.mix(d.initial_server);
    f.mix(d.final_server);
    f.mix(d.offload.attempts);
    f.mix(d.offload.successes);
    f.mix(d.offload.timeouts_network);
    f.mix(d.offload.timeouts_load);
    f.mix(d.offload.late_responses);
    f.mix(d.offload.probes_sent);
    f.mix(d.offload.probes_ok);
    f.mix(d.offload.probes_failed);
    f.mix_stats(d.offload.latency_us);
    f.mix(d.uplink.messages_sent);
    f.mix(d.uplink.sends_succeeded);
    f.mix(d.uplink.sends_failed);
    f.mix(d.uplink.sends_cancelled);
    f.mix(d.uplink.messages_delivered);
    f.mix(d.uplink.fragments_sent);
    f.mix(d.uplink.retransmissions);
    f.mix(d.uplink.acks_received);
    f.mix(d.uplink.duplicate_fragments);
    f.mix(d.uplink.partials_expired);
    f.mix_double(d.energy_joules);
    for (const std::string& name : d.series.names()) {
      const TimeSeries* series = d.series.find(name);
      f.mix_str(name);
      f.mix(series->size());
      for (const TimePoint& p : series->points()) {
        f.mix(static_cast<std::uint64_t>(p.time));
        f.mix_double(p.value);
      }
    }
  }
  f.mix(result.servers.size());
  for (const core::ServerResult& s : result.servers) {
    f.mix_str(s.name);
    f.mix(s.stats.requests_received);
    f.mix(s.stats.requests_completed);
    f.mix(s.stats.requests_rejected);
    f.mix(s.stats.requests_admission_rejected);
    f.mix(s.stats.batches_executed);
    f.mix_stats(s.stats.batch_size);
    f.mix_stats(s.stats.service_latency_us);
    f.mix(static_cast<std::uint64_t>(s.stats.gpu_busy_time));
    f.mix_double(s.gpu_utilization);
    f.mix(s.admission.admitted);
    f.mix(s.admission.rejected);
    f.mix(s.queue_depth_at_end);
    f.mix(s.in_flight_batch_at_end);
  }
  f.mix(result.tenants.size());
  for (const core::TenantResult& t : result.tenants) {
    f.mix_str(t.name);
    f.mix(t.totals.frames_captured);
    f.mix(t.totals.offload_successes);
    f.mix(t.totals.local_completions);
    f.mix_double(t.mean_throughput_fps);
    f.mix(t.slo_met() ? 1u : 0u);
  }
  return f.hash;
}

std::vector<CellSummary> aggregate(const SweepResult& result) {
  std::vector<CellSummary> cells;
  if (result.points.empty()) return cells;
  const std::size_t reps = result.replicate_count;
  cells.reserve(result.points.size() / reps);
  for (std::size_t base = 0; base < result.points.size(); base += reps) {
    CellSummary cell;
    cell.first = result.points[base].desc;
    for (std::size_t m = 0; m < result.metric_names.size(); ++m) {
      MetricSummary summary;
      summary.name = result.metric_names[m];
      std::vector<double> samples;
      samples.reserve(reps);
      for (std::size_t r = 0; r < reps; ++r) {
        const double v = result.points[base + r].metrics[m];
        summary.stats.add(v);
        samples.push_back(v);
      }
      summary.ci = mean_ci(samples);
      cell.metrics.push_back(std::move(summary));
    }
    cells.push_back(std::move(cell));
  }
  return cells;
}

void write_points_csv(const SweepResult& result, std::ostream& os) {
  CsvWriter w(os);
  std::vector<std::string> header{"index"};
  header.insert(header.end(), result.axis_names.begin(),
                result.axis_names.end());
  header.insert(header.end(), {"controller", "replicate", "seed",
                               "fingerprint"});
  header.insert(header.end(), result.metric_names.begin(),
                result.metric_names.end());
  w.header(header);
  for (const SweepPoint& point : result.points) {
    w.field(point.desc.index);
    cell_key_columns(w, point.desc);
    w.field(point.desc.replicate);
    w.field(static_cast<std::size_t>(point.desc.seed));
    w.field(static_cast<std::size_t>(result_fingerprint(point.result)));
    for (const double v : point.metrics) w.field(v);
    w.end_row();
  }
}

void write_summary_csv(const SweepResult& result,
                       const std::vector<CellSummary>& cells,
                       std::ostream& os) {
  CsvWriter w(os);
  std::vector<std::string> header = result.axis_names;
  header.insert(header.end(), {"controller", "n"});
  for (const std::string& metric : result.metric_names) {
    header.push_back(metric + "_mean");
    header.push_back(metric + "_stddev");
    header.push_back(metric + "_ci95");
  }
  w.header(header);
  for (const CellSummary& cell : cells) {
    cell_key_columns(w, cell.first);
    w.field(result.replicate_count);
    for (const MetricSummary& metric : cell.metrics) {
      w.field(metric.stats.mean());
      w.field(metric.stats.stddev());
      w.field(metric.ci.half_width);
    }
    w.end_row();
  }
}

void write_series_csv(const SweepResult& result, const std::string& series,
                      std::size_t device_index, std::ostream& os) {
  CsvWriter w(os);
  w.header({"time_s", "series", "value"});
  for (const SweepPoint& point : result.points) {
    const TimeSeries* s =
        point.result.device(device_index).series.find(series);
    if (s == nullptr) continue;
    for (const TimePoint& p : s->points()) {
      w.field(sim_to_seconds(p.time)).field(point.desc.label).field(p.value);
      w.end_row();
    }
  }
}

void write_bench_json(const SweepResult& result, std::ostream& os) {
  os << "{\n  \"suite\": \"" << json_escape(result.name)
     << "\",\n  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    const SweepPoint& point = result.points[i];
    os << "    {\"name\": \"" << json_escape(point.desc.label)
       << "\", \"seed\": " << point.desc.seed
       << ", \"fingerprint\": " << result_fingerprint(point.result)
       << ", \"events\": " << point.result.events_executed;
    for (std::size_t m = 0; m < result.metric_names.size(); ++m) {
      os << ", \"" << json_escape(result.metric_names[m])
         << "\": " << point.metrics[m];
    }
    os << "}" << (i + 1 < result.points.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

namespace {

template <class Fn>
void write_to_path(const std::string& path, Fn fn) {
  std::ofstream file(path);
  if (!file) {
    throw std::runtime_error("sweep: cannot open " + path);
  }
  fn(file);
}

}  // namespace

void write_points_csv(const SweepResult& result, const std::string& path) {
  write_to_path(path,
                [&](std::ostream& os) { write_points_csv(result, os); });
}

void write_summary_csv(const SweepResult& result,
                       const std::vector<CellSummary>& cells,
                       const std::string& path) {
  write_to_path(path, [&](std::ostream& os) {
    write_summary_csv(result, cells, os);
  });
}

void write_series_csv(const SweepResult& result, const std::string& series,
                      std::size_t device_index, const std::string& path) {
  write_to_path(path, [&](std::ostream& os) {
    write_series_csv(result, series, device_index, os);
  });
}

void write_bench_json(const SweepResult& result, const std::string& path) {
  write_to_path(path,
                [&](std::ostream& os) { write_bench_json(result, os); });
}

}  // namespace ff::sweep
