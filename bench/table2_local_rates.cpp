// Reproduces paper Table II: local inference rate Pl for every Raspberry
// Pi x model pair -- measured by actually running each device's local
// engine flat-out in the simulator, not by echoing the profile constants.

#include <iostream>

#include "ff/core/framefeedback.h"

int main() {
  using namespace ff;

  std::cout << "=== Table II: measured local inference rates Pl (fps) ===\n\n";

  const std::vector<models::ModelId> model_order = {
      models::ModelId::kMobileNetV3Small,
      models::ModelId::kEfficientNetB0,
      models::ModelId::kMobileNetV3Large,
      models::ModelId::kEfficientNetB4,
  };

  TextTable table({"", "3B Rev 1.2", "4B Rev 1.2", "4B Rev 1.4"});
  table.add_row({"CPUs", "4", "4", "4"});
  {
    std::vector<std::string> row{"Speed"};
    for (const auto& d : models::all_devices()) {
      row.push_back(std::to_string(d.clock_mhz) + " MHz");
    }
    table.add_row(row);
  }
  {
    std::vector<std::string> row{"Memory"};
    for (const auto& d : models::all_devices()) {
      row.push_back(std::to_string(d.memory_mib) + " Mi");
    }
    table.add_row(row);
  }

  constexpr SimDuration kMeasureWindow = 120 * kSecond;
  for (const auto model : model_order) {
    std::vector<std::string> row{std::string(models::model_name(model)) +
                                 " Pl"};
    for (const auto& profile : models::all_devices()) {
      // Saturate the local engine: submit a frame the moment a slot opens.
      sim::Simulator sim(7);
      std::uint64_t done = 0;
      models::LocalLatencyModel latency(profile, model,
                                        sim.make_rng(profile.name), 0.08);
      device::LocalEngine engine(sim, latency,
                                 [&](std::uint64_t, SimTime) { ++done; });
      std::uint64_t id = 0;
      sim::PeriodicTimer feeder(sim, [&](std::uint64_t) {
        while (engine.submit(id, sim.now())) ++id;
      });
      feeder.start(10 * kMillisecond);
      sim.run_until(kMeasureWindow);
      const double rate =
          static_cast<double>(done) / sim_to_seconds(kMeasureWindow);
      row.push_back(fmt(rate, 1));
    }
    table.add_row(row);
  }
  std::cout << table.render();

  std::cout << "\nPaper Table II reference values:\n"
            << "  MobileNetV3Small: 5.5 / 13 / 13.4\n"
            << "  EfficientNetB0:   1.8 / 2.5 / 4.2\n"
            << "(MobileNetV3Large and EfficientNetB4 rows are this library's\n"
            << " derived estimates; the paper only lists the two above.)\n";
  return 0;
}
