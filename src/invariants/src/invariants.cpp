#include "ff/invariants/invariants.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <stdexcept>

namespace ff::invariants {
namespace {

// Bounds for the non-exact invariants. Frame conservation takes no
// threshold: it holds exactly or it is a bug.

/// Po_target steps smaller than this (fps) are measurement noise, not
/// actuation reversals.
constexpr double kPoDeadbandFps = 1.0;
/// Maximum direction reversals of Po_target per minute of run time.
constexpr double kPoFlapsPerMinute = 12.0;
/// Settling time granted after the disturbance closes before the timeout
/// rate T must have converged.
constexpr SimDuration kConvergenceSettle = 10 * kSecond;
/// Converged means: tail mean of T within this many timeouts/s of the
/// pre-disturbance baseline (or of zero when there is no baseline).
constexpr double kRecoveredTimeoutSlack = 1.0;
/// The post-disturbance trend must not rise: second half mean of T may
/// exceed the first half by at most this (timeouts/s).
constexpr double kTrendSlack = 0.5;
/// p99 wall-clock cost per simulator event (us), when measured.
constexpr double kEventCostP99Us = 250.0;

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string hex_fingerprint(std::uint64_t fp) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(fp));
  return buf;
}

void write_escaped(std::ostream& os, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
}

/// Direction reversals of a series under a deadband: moves smaller than
/// `deadband` from the last significant level are ignored, so controller
/// dither does not count as actuation flapping.
std::size_t count_reversals(const TimeSeries& series, double deadband) {
  std::size_t reversals = 0;
  int last_direction = 0;
  bool have_ref = false;
  double ref = 0.0;
  for (const TimePoint& p : series) {
    if (!have_ref) {
      ref = p.value;
      have_ref = true;
      continue;
    }
    const double delta = p.value - ref;
    if (std::abs(delta) < deadband) continue;
    const int direction = delta > 0 ? 1 : -1;
    if (last_direction != 0 && direction != last_direction) ++reversals;
    last_direction = direction;
    ref = p.value;
  }
  return reversals;
}

InvariantCheck check_conservation(const core::ExperimentResult& result) {
  InvariantCheck c;
  c.name = "frame_conservation";
  c.bound = 0.0;
  c.passed = true;
  std::string detail;
  double worst = 0.0;
  for (const core::DeviceResult& d : result.devices) {
    const auto& t = d.totals;
    const double gap = static_cast<double>(t.frames_captured) -
                       static_cast<double>(t.accounted());
    worst = std::max(worst, std::abs(gap));
    if (!t.conserved()) {
      c.passed = false;
      if (!detail.empty()) detail += "; ";
      detail += d.name + ": captured " + std::to_string(t.frames_captured) +
                " != accounted " + std::to_string(t.accounted());
    }
  }
  c.observed = worst;
  c.detail = c.passed ? "captured == local + drops + offload + timeouts + "
                        "in-flight, every device"
                      : detail;
  return c;
}

/// Server-side half of conservation: every request that entered a server
/// (device offloads and background load alike) left as a completion, a
/// rejection, or is still visibly queued/in the in-flight batch at the
/// horizon -- per server, hence exactly summed across the whole fleet.
InvariantCheck check_fleet_conservation(const core::ExperimentResult& result) {
  InvariantCheck c;
  c.name = "fleet_conservation";
  c.bound = 0.0;
  c.passed = true;
  std::string detail;
  double worst = 0.0;
  for (const core::ServerResult& s : result.servers) {
    const auto accounted =
        s.stats.requests_completed + s.stats.requests_rejected +
        s.stats.requests_admission_rejected + s.queue_depth_at_end +
        s.in_flight_batch_at_end;
    const double gap = static_cast<double>(s.stats.requests_received) -
                       static_cast<double>(accounted);
    worst = std::max(worst, std::abs(gap));
    if (!s.conserved()) {
      c.passed = false;
      if (!detail.empty()) detail += "; ";
      detail += s.name + ": received " +
                std::to_string(s.stats.requests_received) +
                " != accounted " + std::to_string(accounted);
    }
  }
  c.observed = worst;
  c.detail = c.passed ? "received == completed + rejected + "
                        "admission-rejected + backlog, every server"
                      : detail;
  return c;
}

InvariantCheck check_po_flapping(const core::ExperimentResult& result) {
  InvariantCheck c;
  c.name = "po_flapping";
  c.bound = kPoFlapsPerMinute;
  const double minutes =
      static_cast<double>(result.duration) / (60.0 * kSecond);
  double worst = 0.0;
  for (const core::DeviceResult& d : result.devices) {
    const TimeSeries* po = d.series.find("Po_target");
    if (po == nullptr || minutes <= 0.0) continue;
    const auto reversals = count_reversals(*po, kPoDeadbandFps);
    worst = std::max(worst, static_cast<double>(reversals) / minutes);
  }
  c.observed = worst;
  c.passed = worst <= c.bound;
  c.detail = "Po_target direction reversals per minute, deadband " +
             fmt_double(kPoDeadbandFps) + " fps";
  return c;
}

InvariantCheck check_convergence(const DisturbanceScenario& scenario,
                                 const core::ExperimentResult& result) {
  InvariantCheck c;
  c.name = "t_convergence";
  c.passed = true;
  const SimTime end = scenario.disturbance_end;
  const SimTime settle_end = end + kConvergenceSettle;
  const SimTime horizon = result.duration;
  double worst_tail = 0.0;
  double bound = kRecoveredTimeoutSlack;
  std::string detail;
  for (const core::DeviceResult& d : result.devices) {
    const TimeSeries* t = d.series.find("T");
    if (t == nullptr) continue;
    const double baseline =
        scenario.disturbance_start > 0
            ? t->mean_between(0, scenario.disturbance_start)
            : 0.0;
    const double device_bound = baseline + kRecoveredTimeoutSlack;
    const double tail = t->mean_between(settle_end, horizon);
    // Trend over the whole recovery: the second half must not be worse
    // than the first (the loop converges instead of oscillating).
    const SimTime mid = end + (horizon - end) / 2;
    const double h1 = t->mean_between(end, mid);
    const double h2 = t->mean_between(mid, horizon);
    worst_tail = std::max(worst_tail, tail);
    bound = std::max(bound, device_bound);
    if (tail > device_bound || h2 > h1 + kTrendSlack) {
      c.passed = false;
      if (!detail.empty()) detail += "; ";
      detail += d.name + ": tail T " + fmt_double(tail) + "/s vs bound " +
                fmt_double(device_bound) + ", halves " + fmt_double(h1) +
                " -> " + fmt_double(h2);
    }
  }
  c.observed = worst_tail;
  c.bound = bound;
  if (c.passed) {
    detail = "timeout rate back under baseline + " +
             fmt_double(kRecoveredTimeoutSlack) + "/s within " +
             fmt_double(static_cast<double>(kConvergenceSettle) / kSecond) +
             " s of the disturbance closing, non-increasing trend";
  }
  c.detail = detail;
  return c;
}

InvariantCheck check_deadline_p99(const DisturbanceScenario& scenario,
                                  const core::ExperimentResult& result) {
  InvariantCheck c;
  c.name = "deadline_p99";
  c.passed = true;
  double worst = 0.0;
  double tightest = 0.0;
  std::string detail;
  for (std::size_t i = 0; i < result.devices.size(); ++i) {
    const core::DeviceResult& d = result.devices[i];
    const double deadline_us = static_cast<double>(
        scenario.scenario.devices.at(i).deadline);
    const double p99 = d.offload.latency_p99.value();
    worst = std::max(worst, p99);
    tightest = tightest == 0.0 ? deadline_us : std::min(tightest, deadline_us);
    if (p99 > deadline_us) {
      c.passed = false;
      if (!detail.empty()) detail += "; ";
      detail += d.name + ": p99 " + fmt_double(p99) + " us > deadline " +
                fmt_double(deadline_us) + " us";
    }
  }
  c.observed = worst;
  c.bound = tightest;
  if (c.passed) {
    detail = "successful-offload latency p99 (us) within every device's "
             "deadline";
  }
  c.detail = detail;
  return c;
}

InvariantCheck check_event_cost(double p99_us) {
  InvariantCheck c;
  c.name = "event_cost_p99";
  c.observed = p99_us;
  c.bound = kEventCostP99Us;
  c.passed = p99_us <= kEventCostP99Us;
  c.detail = "wall-clock p99 cost per simulator event (us), chunk-averaged";
  return c;
}

}  // namespace

bool ScenarioReport::passed() const {
  return std::all_of(checks.begin(), checks.end(),
                     [](const InvariantCheck& c) { return c.passed; });
}

std::string ScenarioReport::failed_names() const {
  std::string out;
  for (const InvariantCheck& c : checks) {
    if (c.passed) continue;
    if (!out.empty()) out += ",";
    out += c.name;
  }
  return out;
}

[[nodiscard]] std::vector<InvariantCheck> evaluate_invariants(
    const DisturbanceScenario& scenario, const core::ExperimentResult& result,
    double event_cost_p99_us) {
  std::vector<InvariantCheck> checks;
  checks.push_back(check_conservation(result));
  checks.push_back(check_fleet_conservation(result));
  checks.push_back(check_po_flapping(result));
  checks.push_back(check_convergence(scenario, result));
  checks.push_back(check_deadline_p99(scenario, result));
  if (event_cost_p99_us >= 0.0) {
    checks.push_back(check_event_cost(event_cost_p99_us));
  }
  return checks;
}

void write_invariants_json(const std::vector<ScenarioReport>& reports,
                           std::ostream& os) {
  const bool all_passed =
      std::all_of(reports.begin(), reports.end(),
                  [](const ScenarioReport& r) { return r.passed(); });
  os << "{\n  \"suite\": \"invariants\",\n  \"passed\": "
     << (all_passed ? "true" : "false") << ",\n  \"scenarios\": [\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const ScenarioReport& r = reports[i];
    os << "    {\n      \"name\": \"";
    write_escaped(os, r.scenario);
    os << "\",\n      \"controller\": \"";
    write_escaped(os, r.controller);
    os << "\",\n      \"seed\": " << r.seed << ",\n      \"fingerprint\": \""
       << hex_fingerprint(r.fingerprint) << "\",\n      \"events\": "
       << r.events_executed << ",\n      \"passed\": "
       << (r.passed() ? "true" : "false");
    if (!r.capture_path.empty()) {
      os << ",\n      \"capture\": \"";
      write_escaped(os, r.capture_path);
      os << "\",\n      \"replay_verified\": "
         << (r.replay_verified ? "true" : "false");
    }
    os << ",\n      \"invariants\": [\n";
    for (std::size_t j = 0; j < r.checks.size(); ++j) {
      const InvariantCheck& c = r.checks[j];
      os << "        {\"name\": \"";
      write_escaped(os, c.name);
      os << "\", \"passed\": " << (c.passed ? "true" : "false")
         << ", \"observed\": " << fmt_double(c.observed)
         << ", \"bound\": " << fmt_double(c.bound) << ", \"detail\": \"";
      write_escaped(os, c.detail);
      os << "\"}" << (j + 1 < r.checks.size() ? "," : "") << "\n";
    }
    os << "      ]\n    }" << (i + 1 < reports.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

void write_invariants_json(const std::vector<ScenarioReport>& reports,
                           const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  write_invariants_json(reports, os);
}

}  // namespace ff::invariants
