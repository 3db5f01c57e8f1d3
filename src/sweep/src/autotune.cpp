#include "ff/sweep/autotune.h"

#include <stdexcept>
#include <utility>

#include "ff/control/frame_feedback.h"
#include "ff/core/experiment.h"
#include "ff/sweep/sweep.h"
#include "ff/util/ascii_plot.h"

namespace ff::sweep {
namespace {

/// Moment the disturbance hits, splitting the scoring windows (Fig. 2
/// injects its loss at 27 s).
constexpr SimTime kDisturbanceAt = 27 * kSecond;
/// Weight of the post-disturbance oscillation in the composite score.
constexpr double kDisturbanceWeight = 2.0;

}  // namespace

AutoTuneResult auto_tune(const AutoTuneConfig& config) {
  if (config.kp_grid.empty() || config.kd_grid.empty()) {
    throw std::invalid_argument("auto_tune: empty gain grid");
  }
  if (config.scenario.devices.size() != 1) {
    throw std::invalid_argument("auto_tune: scenario must have one device");
  }

  const auto grid = control::gain_grid(config.kp_grid, config.kd_grid);
  const double fs = config.scenario.devices[0].source_fps;

  SweepConfig sweep;
  sweep.name = "autotune";
  sweep.base = config.scenario;
  sweep.seed_mode = SeedMode::kScenario;
  sweep.threads = config.threads;
  sweep.controllers.reserve(grid.size());
  for (const auto& [kp, kd] : grid) {
    control::FrameFeedbackConfig c;
    c.kp = kp;
    c.kd = kd;
    sweep.controllers.push_back(
        {"Kp=" + fmt(kp) + ",Kd=" + fmt(kd),
         core::make_controller_factory<control::FrameFeedbackController>(c)});
  }

  // Grid order == controller order == linear point order (no axes, one
  // replicate), so `all` keeps the kp-major layout callers rely on.
  const SweepResult result = run(sweep);

  AutoTuneResult out;
  out.all.reserve(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const core::ExperimentResult& r = result.points[i].result;
    const TimeSeries& po = *r.devices[0].series.find("Po_target");

    GainScore g;
    g.kp = grid[i].first;
    g.kd = grid[i].second;
    g.clean = control::analyze_response(po, 0, kDisturbanceAt, fs);
    g.disturbed =
        control::analyze_response(po, kDisturbanceAt, r.duration, fs);
    g.mean_throughput = r.devices[0].mean_throughput();
    g.score = control::tuning_score(g.clean) +
              kDisturbanceWeight * g.disturbed.steady_oscillation;
    out.all.push_back(g);
  }

  out.best = out.all.front();
  for (const auto& g : out.all) {
    if (g.score < out.best.score) out.best = g;
  }
  return out;
}

}  // namespace ff::sweep
