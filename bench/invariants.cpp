// Physics CI: runs the disturbance-scenario suite, evaluates the run
// invariants (frame conservation, bounded Po flapping, post-disturbance
// convergence, deadline p99, per-event wall cost) and writes a
// machine-readable INVARIANTS.json. On failure a flight-recorder capture
// (scenario + seed + JSONL trace) lands in the captures directory; replay
// it with `ffctl --replay=<capture>`.
//
//   invariants                         run the full suite
//   invariants scenarios=loss_burst    run a subset (comma list)
//   invariants capture=all             capture green runs too
//   invariants out=PATH captures=DIR   output locations
//   invariants list                    print the suite and exit
//
// Any other key exits 1 naming it, instead of running the full suite.

#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "ff/invariants/harness.h"
#include "ff/util/ascii_plot.h"
#include "ff/util/config.h"

namespace {

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::string item;
  for (const char c : csv) {
    if (c == ',') {
      if (!item.empty()) out.push_back(item);
      item.clear();
    } else {
      item.push_back(c);
    }
  }
  if (!item.empty()) out.push_back(item);
  return out;
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace ff;

  std::vector<std::string> leftover;
  const Config cfg = Config::from_args(argc, argv, &leftover);
  cfg.reject_unknown_keys({"scenarios", "event_cost", "captures", "capture",
                           "out"});
  for (const auto& arg : leftover) {
    if (arg == "list") {
      for (const auto& d : invariants::default_suite()) {
        std::cout << d.name << ": " << d.description << "\n";
      }
      return 0;
    }
  }

  std::vector<invariants::DisturbanceScenario> suite;
  if (const auto filter = cfg.get("scenarios")) {
    for (const auto& name : split_csv(*filter)) {
      suite.push_back(invariants::find_scenario(name));
    }
  } else {
    suite = invariants::default_suite();
  }

  invariants::HarnessOptions options;
  options.measure_event_cost = cfg.get_bool("event_cost", true);
  options.capture_dir = cfg.get_string("captures", "physics-captures");
  options.capture_all = cfg.get_string("capture", "fail") == "all";

  std::cout << "=== Physics CI: " << suite.size()
            << " disturbance scenarios ===\n\n";

  const auto reports = invariants::run_suite(suite, options);

  TextTable table({"scenario", "controller", "verdict", "failed", "events"});
  bool all_passed = true;
  for (const auto& r : reports) {
    all_passed = all_passed && r.passed();
    table.add_row({r.scenario, r.controller, r.passed() ? "PASS" : "FAIL",
                   r.passed() ? "-" : r.failed_names(),
                   std::to_string(r.events_executed)});
  }
  std::cout << table.render() << "\n";

  for (const auto& r : reports) {
    if (r.passed() && r.capture_path.empty()) continue;
    for (const auto& c : r.checks) {
      if (c.passed) continue;
      std::cout << r.scenario << " / " << c.name << ": observed "
                << c.observed << " vs bound " << c.bound << " -- " << c.detail
                << "\n";
    }
    if (!r.capture_path.empty()) {
      std::cout << r.scenario << ": capture " << r.capture_path
                << (r.replay_verified ? " (replay verified)"
                                      : " (REPLAY DIVERGED)")
                << "\n";
    }
  }

  const std::string out = cfg.get_string("out", "INVARIANTS.json");
  invariants::write_invariants_json(reports, out);
  std::cout << "\nwrote " << out << "\n";

  if (!all_passed) {
    std::cout << "\ninvariants FAILED\n";
    return 1;
  }
  std::cout << "all invariants hold\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "invariants: " << e.what() << "\n";
  return 1;
}
