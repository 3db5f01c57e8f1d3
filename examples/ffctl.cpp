// ffctl: run any scenario/controller combination from the command line.
//
//   ffctl scenario=paper_network controller=frame-feedback
//   ffctl scenario=ideal controller=aimd duration_s=60 net.loss=0.05
//   ffctl controllers=frame-feedback,all-or-nothing scenario=paper_network
//   ffctl config=run.cfg plot=Po_target csv=out.csv
//
// See ff/core/scenario_config.h for the full key list. `controllers=` (a
// comma list) runs a comparison; `plot=<series>` adds an ASCII plot;
// `csv=<path>` dumps device 0's series; `--trace-out=<path>` writes every
// device's frame lifecycle (the `frame.*` events, with `src` and `id`),
// controller ticks and net/server events as JSONL.

#include <iostream>
#include <memory>
#include <sstream>

#include "ff/core/framefeedback.h"
#include "ff/core/obs_export.h"
#include "ff/invariants/capture.h"
#include "ff/obs/trace.h"
#include "ff/util/config.h"

namespace {

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

void print_help() {
  std::cout
      << "ffctl -- FrameFeedback experiment runner\n\n"
      << "usage: ffctl [key=value ...]\n\n"
      << "  scenario=NAME      " << ff::core::known_scenario_names() << "\n"
      << "  controller=NAME    " << ff::core::known_controller_names() << "\n"
      << "  controllers=A,B    run a comparison instead of a single run\n"
      << "  config=FILE        load keys from a file first\n"
      << "  plot=SERIES        ASCII-plot a series (P, Po_target, T, ...)\n"
      << "  csv=PATH           dump device 0 series as long-form CSV\n"
      << "  --trace-out=PATH   structured JSONL trace: per-device frame\n"
      << "                     lifecycle, controller ticks, net/server\n"
      << "                     events\n"
      << "  --metrics-out=PATH run-level metrics as one JSON document\n"
      << "  --replay=CAPTURE   re-execute a flight-recorder capture (from\n"
      << "                     the invariants bench) and verify the result\n"
      << "                     fingerprint reproduces bit-identically\n"
      << "  seed=N duration_s=N devices=N shared_medium=BOOL\n"
      << "  device.fps device.model device.profile device.deadline_ms\n"
      << "  net.bandwidth_mbps net.loss net.delay_ms load.rate\n"
      << "  controller.kp controller.kd controller.ki\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> leftover;
  ff::Config cfg = ff::Config::from_args(argc, argv, &leftover);
  for (const auto& arg : leftover) {
    if (arg == "-h" || arg == "--help" || arg == "help") {
      print_help();
      return 0;
    }
  }
  if (const auto file = cfg.get("config")) {
    // File provides defaults; command line wins.
    ff::Config merged = ff::Config::from_file(*file);
    for (const auto& [k, v] : cfg.entries()) merged.set(k, v);
    cfg = merged;
  }

  try {
    // A typo'd key would otherwise be ignored and run the defaults.
    std::vector<std::string> known = ff::core::config_keys();
    known.insert(known.end(), {"config", "controllers", "plot", "csv",
                               "trace-out", "metrics-out", "replay"});
    cfg.reject_unknown_keys(known);

    if (const auto capture = cfg.get("replay")) {
      const auto replay = ff::invariants::replay_capture(*capture);
      std::cout << "replay " << *capture << ": scenario "
                << replay.capture.scenario << ", controller "
                << replay.capture.controller << ", seed "
                << replay.capture.seed << "\n"
                << "  events " << replay.replayed_events << " (captured "
                << replay.capture.events_executed << ")\n";
      if (replay.match()) {
        std::cout << "  fingerprint reproduced bit-identically\n";
        return 0;
      }
      std::cout << "  FINGERPRINT MISMATCH: expected " << std::hex
                << replay.capture.fingerprint << ", got "
                << replay.replayed_fingerprint << std::dec << "\n";
      return 1;
    }

    const ff::core::Scenario scenario = ff::core::scenario_from_config(cfg);

    std::vector<std::string> controllers;
    if (const auto list = cfg.get("controllers")) {
      controllers = split_csv(*list);
    } else {
      controllers = {cfg.get_string("controller", "frame-feedback")};
    }

    const auto trace_out = cfg.get("trace-out");
    const auto metrics_out = cfg.get("metrics-out");

    std::vector<ff::core::ExperimentResult> results;
    for (const auto& name : controllers) {
      ff::Config run_cfg = cfg;
      run_cfg.set("controller", name);
      ff::core::Experiment experiment(
          scenario, ff::core::controller_factory_from_config(run_cfg));

      // Later runs of a comparison write with a `.controller` suffix so
      // the first run keeps the plain path.
      const bool first_run = results.empty();
      const auto run_path = [&](const std::string& base) {
        return first_run ? base : base + "." + name;
      };

      std::unique_ptr<ff::obs::JsonlTraceSink> jsonl;
      if (trace_out) {
        jsonl = std::make_unique<ff::obs::JsonlTraceSink>(run_path(*trace_out));
        experiment.set_trace_sink(jsonl.get());
      }

      results.push_back(experiment.run());

      if (jsonl) {
        jsonl->flush();
        std::cout << "wrote trace " << run_path(*trace_out) << " ("
                  << jsonl->events_written() << " events)\n";
      }
      if (metrics_out) {
        const std::string path = run_path(*metrics_out);
        ff::core::write_metrics_json_file(results.back(), path);
        std::cout << "wrote metrics " << path << "\n";
      }
    }

    for (const auto& r : results) {
      ff::core::print_summary(std::cout, r);
      std::cout << "\n";
    }

    if (const auto series = cfg.get("plot")) {
      std::vector<const ff::core::ExperimentResult*> ptrs;
      for (const auto& r : results) ptrs.push_back(&r);
      ff::core::plot_runs(std::cout, *series + " (device 0)", ptrs, *series);
    }

    if (results.size() > 1) {
      std::cout << "\nMean P (fps) over the whole run:\n";
      ff::TextTable t({"controller", "mean P", "goodput %"});
      for (const auto& r : results) {
        t.add_row({r.devices[0].controller,
                   ff::fmt(r.devices[0].mean_throughput(), 2),
                   ff::fmt(r.devices[0].goodput_fraction() * 100, 1)});
      }
      std::cout << t.render();
    }

    if (const auto csv = cfg.get("csv")) {
      ff::write_bundle_csv(results[0].devices[0].series, *csv);
      std::cout << "\nwrote " << *csv << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "ffctl: " << e.what() << "\n\n";
    print_help();
    return 1;
  }
  return 0;
}
