// Micro-benchmarks for the controllers: the per-tick cost of each policy.
// On a Raspberry Pi the controller shares the CPU with inference, so its
// cost must be negligible (it is -- nanoseconds per decision).

#include <benchmark/benchmark.h>

#include "ff/control/aimd.h"
#include "ff/control/baselines.h"
#include "ff/control/frame_feedback.h"
#include "ff/control/pid.h"

namespace {

using namespace ff;
using namespace ff::control;

ControllerInput make_input(int i) {
  ControllerInput in;
  in.source_fps = 30.0;
  in.offload_rate = static_cast<double>(i % 30);
  in.timeout_rate = (i % 7 == 0) ? 5.0 : 0.0;
  return in;
}

void BM_FrameFeedbackUpdate(benchmark::State& state) {
  FrameFeedbackController ctl;
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctl.update(make_input(i++)));
  }
}
BENCHMARK(BM_FrameFeedbackUpdate);

void BM_PidStep(benchmark::State& state) {
  PidConfig c;
  c.ki = 0.1;
  PidController pid(c);
  double e = 0.1;
  for (auto _ : state) {
    e = -e;
    benchmark::DoNotOptimize(pid.step(e));
  }
}
BENCHMARK(BM_PidStep);

void BM_AimdUpdate(benchmark::State& state) {
  AimdController ctl;
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctl.update(make_input(i++)));
  }
}
BENCHMARK(BM_AimdUpdate);

void BM_IntervalUpdate(benchmark::State& state) {
  IntervalOffloadController ctl;
  ControllerInput in = make_input(0);
  in.probe_success = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctl.update(in));
  }
}
BENCHMARK(BM_IntervalUpdate);

}  // namespace
