#include "ff/sim/simulator.h"

namespace ff::sim {

Simulator::Simulator(std::uint64_t seed) : root_rng_(seed) {}

std::uint64_t Simulator::run_until(SimTime t_end) {
  std::uint64_t n = 0;
  while (execute_next(t_end)) ++n;
  // Advance the clock to the horizon even if the queue drained early so
  // callers observing now() see a consistent end time.
  now_ = std::max(now_, t_end);
  return n;
}

std::uint64_t Simulator::run() {
  std::uint64_t n = 0;
  while (execute_next()) ++n;
  return n;
}

bool Simulator::step() { return execute_next(); }

}  // namespace ff::sim
