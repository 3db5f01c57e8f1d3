// Mechanized §III-B: search the (Kp, Kd) grid on the Fig. 2 scenario with
// an objective stability score and check where it lands relative to the
// paper's hand-tuned (0.2, 0.26).

#include <iostream>

#include "ff/core/framefeedback.h"
#include "ff/rt/thread_pool.h"
#include "ff/sweep/autotune.h"

int main() {
  using namespace ff;

  std::cout << "=== Automatic gain search on the Fig. 2 scenario ===\n\n";

  sweep::AutoTuneConfig cfg;
  cfg.scenario.seed = 42;
  const auto result = sweep::auto_tune(cfg);

  TextTable table({"Kp", "Kd", "rise (s)", "overshoot", "osc clean",
                   "osc disturbed", "score", "mean P"});
  for (const auto& g : result.all) {
    table.add_row({fmt(g.kp, 2), fmt(g.kd, 2), fmt(g.clean.rise_time_s, 1),
                   fmt(g.clean.overshoot, 2),
                   fmt(g.clean.steady_oscillation, 2),
                   fmt(g.disturbed.steady_oscillation, 2), fmt(g.score, 2),
                   fmt(g.mean_throughput, 1)});
  }
  std::cout << table.render();

  std::cout << "\nBest by composite score: Kp=" << result.best.kp
            << " Kd=" << result.best.kd << " (score "
            << fmt(result.best.score, 2) << ")\n"
            << "Paper Table IV ships:    Kp=0.2 Kd=0.26\n\n"
            << "Reading: sluggish gains (Kp=0.05) never reach the setpoint\n"
               "and are eliminated outright. Among the rest the composite\n"
               "score mildly favours hotter proportional gain than the\n"
               "paper's -- because the Table IV update clamp (+0.1*Fs /\n"
               "-0.5*Fs) already bounds oscillation, making the loop\n"
               "tolerant of aggressive Kp. The paper's (0.2, 0.26) sits on\n"
               "the low-oscillation end of the same frontier: its\n"
               "post-disturbance oscillation is ~half that of the Kp=0.8\n"
               "cells, at the cost of a ~6 s slower ramp. The score weighs\n"
               "post-disturbance oscillation 2x; another weight slides the\n"
               "optimum along exactly this trade.\n";
  rt::shutdown_default_pool();
  return 0;
}
