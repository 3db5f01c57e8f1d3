#include "ff/core/report.h"

#include "ff/util/ascii_plot.h"

namespace ff::core {

void print_summary(std::ostream& os, const ExperimentResult& result) {
  os << "scenario: " << result.scenario << "  seed: " << result.seed
     << "  sim-time: " << fmt(sim_to_seconds(result.duration), 1) << "s"
     << "  events: " << result.events_executed << "\n";

  TextTable table({"device", "controller", "frames", "P mean (fps)",
                   "goodput %", "offloads", "timeouts (Tn/Tl)",
                   "latency p50/p95 (ms)", "cpu %"});
  for (const auto& d : result.devices) {
    const QosSummary q = summarize(d);
    const std::string latency =
        d.offload.latency_us.empty()
            ? "-"
            : fmt(d.offload.latency_p50.value() / 1000.0, 0) + "/" +
                  fmt(d.offload.latency_p95.value() / 1000.0, 0);
    table.add_row({d.name, d.controller,
                   std::to_string(d.totals.frames_captured),
                   fmt(q.mean_throughput, 2), fmt(q.goodput_fraction * 100, 1),
                   std::to_string(d.totals.offload_attempts),
                   std::to_string(d.totals.timeouts_network) + "/" +
                       std::to_string(d.totals.timeouts_load),
                   latency, fmt(q.mean_cpu_utilization * 100, 1)});
  }
  os << table.render();
  if (result.servers.size() == 1) {
    const ServerResult& s = result.servers.front();
    os << "server: batches=" << s.stats.batches_executed
       << " mean-batch=" << fmt(s.stats.mean_batch_size(), 2)
       << " completed=" << s.stats.requests_completed
       << " rejected=" << s.stats.requests_rejected
       << " gpu-util=" << fmt(s.gpu_utilization * 100, 1) << "%\n";
  } else {
    for (const auto& s : result.servers) {
      os << "server " << s.name << ": batches=" << s.stats.batches_executed
         << " mean-batch=" << fmt(s.stats.mean_batch_size(), 2)
         << " completed=" << s.stats.requests_completed
         << " rejected=" << s.stats.requests_rejected
         << " admission-rejected=" << s.stats.requests_admission_rejected
         << " gpu-util=" << fmt(s.gpu_utilization * 100, 1) << "%\n";
    }
  }
  for (const auto& t : result.tenants) {
    os << "tenant " << t.name << ": frames=" << t.totals.frames_captured
       << " goodput=" << fmt(t.goodput_fraction() * 100, 1)
       << "% P=" << fmt(t.mean_throughput_fps, 2)
       << " slo=" << (t.slo_met() ? "met" : "MISSED") << "\n";
  }
}

void print_phase_comparison(std::ostream& os,
                            const std::vector<std::string>& run_names,
                            const std::vector<std::vector<PhaseStat>>&
                                phase_stats) {
  if (phase_stats.empty()) return;
  std::vector<std::string> headers{"phase", "window (s)"};
  headers.insert(headers.end(), run_names.begin(), run_names.end());
  TextTable table(headers);
  const std::size_t phases = phase_stats.front().size();
  for (std::size_t p = 0; p < phases; ++p) {
    const auto& first = phase_stats.front().at(p);
    std::vector<std::string> row{
        first.label, fmt(sim_to_seconds(first.from), 0) + "-" +
                         fmt(sim_to_seconds(first.to), 0)};
    for (const auto& run : phase_stats) {
      row.push_back(fmt(run.at(p).mean, 2));
    }
    table.add_row(std::move(row));
  }
  os << table.render();
}

void plot_runs_labeled(std::ostream& os, const std::string& title,
                       const std::vector<const ExperimentResult*>& runs,
                       const std::vector<std::string>& labels,
                       const std::string& series_name,
                       std::size_t device_index, double y_max) {
  std::vector<const TimeSeries*> series;
  std::vector<TimeSeries> renamed;
  renamed.reserve(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const TimeSeries* s =
        runs[i]->devices.at(device_index).series.find(series_name);
    if (!s) continue;
    TimeSeries copy(i < labels.size() ? labels[i] : series_name);
    for (const auto& p : s->points()) copy.record(p.time, p.value);
    renamed.push_back(std::move(copy));
  }
  series.reserve(renamed.size());
  for (const auto& s : renamed) series.push_back(&s);

  PlotOptions opts;
  opts.title = title;
  opts.width = 110;
  opts.height = 18;
  opts.y_min = 0.0;
  opts.y_max = y_max;
  os << plot_series(series, opts);
}

void plot_runs(std::ostream& os, const std::string& title,
               const std::vector<const ExperimentResult*>& runs,
               const std::string& series_name, std::size_t device_index,
               double y_max) {
  // Label with controller names so the legend reads like the paper's
  // figure legends.
  std::vector<std::string> labels;
  labels.reserve(runs.size());
  for (const auto* run : runs) {
    labels.push_back(run->devices.at(device_index).controller);
  }
  plot_runs_labeled(os, title, runs, labels, series_name, device_index, y_max);
}

}  // namespace ff::core
