// ffbench: the repo benchmark program. One invocation runs one workload for
// a fixed host-time budget, checks every result, and prints a
// human-readable table, a RECORD line for perfbench/compare.py and, last,
// one JSON object with the end-to-end metrics (--trace 0) or the per-layer
// metrics of the traced run (--trace 1).
//
//   ffbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//           [--source ID] [--spans-out PATH]

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include "bench.h"

#ifndef FFB_BUILD_TYPE
#define FFB_BUILD_TYPE "unknown"
#endif
#ifndef FFB_SANITIZE
#define FFB_SANITIZE ""
#endif

namespace ffbench {
namespace {

struct Options {
  const WorkloadInfo* workload{nullptr};
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  std::string source{"unknown"};
  std::string spans_out;
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "ffbench: " << error << "\nusage: ffbench --workload NAME "
            << "[--seed N] [--seconds S] [--trace 0|1] [--source ID] "
            << "[--spans-out PATH]\nworkloads:";
  for (const WorkloadInfo& w : workloads()) std::cerr << " " << w.name;
  std::cerr << "\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        for (const WorkloadInfo& w : workloads()) {
          if (w.name == value) o.workload = &w;
        }
        if (o.workload == nullptr) usage("unknown workload '" + value + "'");
      } else if (key == "--seed") {
        o.seed = std::stoull(value);
      } else if (key == "--seconds") {
        o.seconds = std::stod(value);
        if (!(o.seconds > 0.0 && o.seconds <= 60.0)) {
          usage("--seconds must be in (0, 60]");
        }
      } else if (key == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (key == "--source") {
        o.source = value;
      } else if (key == "--spans-out") {
        o.spans_out = value;
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + key);
    }
  }
  if (o.workload == nullptr) usage("--workload is required");
  return o;
}

// --- Statistics -------------------------------------------------------

/// Linear-interpolated quantile of `v` (q in [0, 1]); 0 when empty.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double ratio(std::uint64_t num, std::uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

template <class F>
std::vector<double> collect(const std::vector<Repeat>& repeats, F field) {
  std::vector<double> out;
  for (const Repeat& r : repeats) {
    if (r.tally.failed == 0) out.push_back(field(r));
  }
  return out;
}

// --- Metrics ----------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value{0.0};
  std::size_t samples{1};
  std::string note;
};

/// End-to-end metrics that appear in the final JSON line (the
/// "end_to_end" list of BENCHMARK.json). trace_mb and error_rate are
/// printed in the table only: they are 0 on some or all workloads, and a
/// bound relative to a median of 0 means nothing. error_rate is also
/// carried by the JSON's "failed"/"attempted".
const std::set<std::string>& json_end_to_end() {
  static const std::set<std::string> kNames = {
      "wall_s", "events_per_s", "cpu_s",  "peak_rss_mb",
      "setup_s", "goodput",     "timeout_rate"};
  return kNames;
}

void print_table(const std::string& title, const std::vector<Metric>& ms) {
  std::cout << "\n" << title << "\n";
  std::cout << "  " << std::left << std::setw(30) << "metric" << std::right
            << std::setw(16) << "value" << "  " << std::left
            << std::setw(7) << "unit" << std::right << std::setw(4) << "n"
            << "  note\n";
  for (const Metric& m : ms) {
    std::ostringstream value;
    value << std::setprecision(6) << m.value;
    std::cout << "  " << std::left << std::setw(30) << m.name << std::right
              << std::setw(16) << value.str() << "  " << std::left
              << std::setw(7) << m.unit << std::right << std::setw(4)
              << m.samples << "  " << m.note << "\n";
  }
}

std::string metrics_json(const std::vector<Metric>& ms, bool samples) {
  std::string out = "{";
  for (const Metric& m : ms) {
    if (out.size() > 1) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + num(m.value) +
           ", \"unit\": \"" + m.unit + "\"";
    if (samples) out += ", \"samples\": " + std::to_string(m.samples);
    out += "}";
  }
  return out + "}";
}

// --- Machine and build ------------------------------------------------

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

struct Machine {
  std::map<std::string, std::string> fields;
  std::vector<std::string> warnings;
};

Machine machine(const Options& o) {
  Machine m;
  m.fields["nproc"] = std::to_string(std::thread::hardware_concurrency());
  m.fields["cpu"] = cpu_model();
#if defined(__clang__)
  m.fields["compiler"] = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  m.fields["compiler"] = std::string("gcc ") + __VERSION__;
#else
  m.fields["compiler"] = "unknown";
#endif
  m.fields["build_type"] = FFB_BUILD_TYPE;
  std::string sanitizer = FFB_SANITIZE;
  m.fields["sanitizer"] = sanitizer.empty() ? "none" : sanitizer;
#if defined(__OPTIMIZE__)
  m.fields["optimised"] = "yes";
#else
  m.fields["optimised"] = "no";
  m.warnings.push_back("non-optimised build: timings are not comparable");
#endif
  if (!sanitizer.empty()) {
    m.warnings.push_back("sanitizer build (" + sanitizer +
                         "): timings are not comparable");
  }
  m.fields["source"] = o.source;
  return m;
}

// --- Phases -----------------------------------------------------------

/// Repeats the workload for about `budget_s` of host time (it starts
/// another repeat while that is expected to end nearer the budget than
/// stopping now), and at least `min_repeats` times.
std::vector<Repeat> run_phase(const Options& o, SinkMode sink,
                              SpanRecorder* spans, double budget_s,
                              std::size_t min_repeats,
                              std::uint64_t* trace_id) {
  constexpr std::size_t kMaxRepeats = 500;
  std::vector<Repeat> repeats;
  const double t0 = wall_now();
  double last = 0.0;
  while (repeats.size() < min_repeats ||
         (wall_now() - t0 + 0.5 * last < budget_s &&
          repeats.size() < kMaxRepeats)) {
    const double start = wall_now();
    repeats.push_back(
        run_repeat(o.workload->id, o.seed, sink, spans, ++*trace_id));
    last = wall_now() - start;
  }
  return repeats;
}

/// Fingerprints and (on fleet_traced) trace hashes must repeat exactly
/// for one seed; each differing experiment counts as failed.
void check_repeats(std::vector<std::vector<Repeat>*> phases,
                   bool check_trace, Tally* tally) {
  const std::vector<std::uint64_t>* reference = nullptr;
  const Repeat* trace_reference = nullptr;
  for (std::vector<Repeat>* phase : phases) {
    for (Repeat& r : *phase) {
      tally->attempted += r.tally.attempted;
      tally->failed += r.tally.failed;
      for (std::string& why : r.tally.reasons) {
        if (tally->reasons.size() < 8) tally->reasons.push_back(why);
      }
      if (r.fingerprints.empty()) continue;
      if (reference == nullptr) reference = &r.fingerprints;
      const std::size_t differ =
          fingerprint_mismatches(*reference, r.fingerprints);
      for (std::size_t i = 0; i < differ; ++i) {
        tally->fail("result fingerprint differs between repeats");
      }
      if (!check_trace || !r.traced) continue;
      if (trace_reference == nullptr) trace_reference = &r;
      if (fingerprint_mismatches({trace_reference->trace_hash},
                                 {r.trace_hash}) != 0) {
        tally->fail("trace hash differs between repeats");
      }
    }
  }
}

std::vector<Metric> end_to_end(const Options& o,
                               const std::vector<Repeat>& repeats,
                               const Tally& tally) {
  const Repeat& first = repeats.front();
  const std::vector<double> walls =
      collect(repeats, [](const Repeat& r) { return r.wall_s; });
  std::vector<Metric> ms;
  ms.push_back({"wall_s", "s", median(walls), walls.size(),
                "median; min " + num(quantile(walls, 0.0)) + ", max " +
                    num(quantile(walls, 1.0))});
  const std::vector<double> rates = collect(repeats, [](const Repeat& r) {
    return ratio(static_cast<double>(r.sim.events), r.wall_s);
  });
  ms.push_back({"events_per_s", "1/s", median(rates), rates.size(),
                "median; " + std::to_string(first.sim.events) +
                    " events per repeat"});
  const std::vector<double> cpus =
      collect(repeats, [](const Repeat& r) { return r.cpu_s; });
  ms.push_back({"cpu_s", "s", median(cpus), cpus.size(),
                "median; " + std::to_string(o.workload->threads) +
                    " worker thread(s)"});
  ms.push_back({"peak_rss_mb", "MB", peak_rss_mb(), 1,
                "process peak (getrusage)"});
  std::vector<double> setups;
  for (const Repeat& r : repeats) {
    setups.insert(setups.end(), r.setup_s.begin(), r.setup_s.end());
  }
  ms.push_back({"setup_s", "s", median(setups), setups.size(),
                o.workload->id == Workload::kPaperSweep
                    ? "median; scenarios + one Experiment per cell on the "
                      "main thread (the sweep's own construction runs on "
                      "its workers, inside wall_s)"
                    : "median; scenario generation + Experiment "
                      "construction, one per repeat"});
  const SimTotals& sim = first.sim;
  ms.push_back({"goodput", "ratio", ratio(sim.successes, sim.frames), 1,
                "frames within deadline / frames captured (simulated)"});
  ms.push_back({"timeout_rate", "ratio",
                ratio(sim.timeouts_network + sim.timeouts_load, sim.frames),
                1, "(Tn + Tl) / frames captured (simulated)"});
  ms.push_back({"trace_mb", "MB",
                static_cast<double>(first.trace_bytes) / 1e6, 1,
                first.traced ? "JSONL bytes per repeat (in memory)"
                             : "no trace sink on this workload"});
  ms.push_back({"error_rate", "ratio", ratio(tally.failed, tally.attempted),
                static_cast<std::size_t>(tally.attempted),
                "experiments failing a check / attempted, all phases"});
  return ms;
}

// --- Traced run -------------------------------------------------------

struct SpanStats {
  std::vector<double> duration;
  std::vector<double> self;
};

/// Duration and self time (duration minus the union of its children's
/// intervals) of every span, grouped by name.
std::map<std::string, SpanStats> span_stats(const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) children[s.parent].push_back(&s);
  std::map<std::string, SpanStats> out;
  for (const Span& s : spans) {
    std::vector<std::pair<double, double>> iv;
    const auto it = children.find(s.id);
    if (it != children.end()) {
      for (const Span* c : it->second) {
        iv.emplace_back(std::max(c->start, s.start), std::min(c->end, s.end));
      }
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double reach = s.start;
    for (const auto& [a, b] : iv) {
      const double from = std::max(a, reach);
      if (b > from) covered += b - from;
      reach = std::max(reach, b);
    }
    SpanStats& st = out[std::string(s.name)];
    st.duration.push_back(s.end - s.start);
    st.self.push_back(s.end - s.start - covered);
  }
  return out;
}

void write_spans(const std::string& path, const std::vector<Span>& spans,
                 double origin) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "ffbench: cannot open " << path << "\n";
    return;
  }
  for (const Span& s : spans) {
    os << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
       << ",\"parent\":" << s.parent << ",\"trace\":" << s.trace
       << ",\"detail\":" << s.detail
       << ",\"start_s\":" << num(s.start - origin)
       << ",\"end_s\":" << num(s.end - origin) << "}\n";
  }
}

std::vector<Metric> per_layer(const Options& o,
                              const std::vector<Repeat>& untraced,
                              const std::vector<Repeat>& traced,
                              const std::vector<Repeat>& variant,
                              const std::map<std::string, SpanStats>& spans) {
  const Workload id = o.workload->id;
  const SimTotals& sim = untraced.front().sim;
  const double wall = median(
      collect(untraced, [](const Repeat& r) { return r.wall_s; }));
  const double cpu =
      median(collect(untraced, [](const Repeat& r) { return r.cpu_s; }));
  const double traced_wall =
      median(collect(traced, [](const Repeat& r) { return r.wall_s; }));
  const std::size_t nu = untraced.size();
  const std::size_t nt = traced.size();

  std::vector<double> chunk_ns;
  std::vector<double> point_wall;
  std::vector<double> point_max;
  for (const Repeat& r : traced) {
    chunk_ns.insert(chunk_ns.end(), r.event_cost_ns.begin(),
                    r.event_cost_ns.end());
    point_wall.insert(point_wall.end(), r.point_wall_s.begin(),
                      r.point_wall_s.end());
    if (!r.point_wall_s.empty()) {
      point_max.push_back(quantile(r.point_wall_s, 1.0));
    }
  }
  double imbalance = 0.0;
  const std::vector<std::uint64_t>& parts = traced.front().partition_events;
  if (!parts.empty()) {
    std::uint64_t total = 0;
    std::uint64_t most = 0;
    for (const std::uint64_t e : parts) {
      total += e;
      most = std::max(most, e);
    }
    imbalance = ratio(static_cast<double>(most) *
                          static_cast<double>(parts.size()),
                      static_cast<double>(total));
  }
  const auto span_median = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : median(it->second.duration);
  };
  const auto span_count = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? std::size_t{0} : it->second.duration.size();
  };

  // Trace layer: the workload's own sink (fleet_traced) and, on
  // fleet_partitioned, the event-hash comparison phase.
  const Repeat& sinked = untraced.front();
  const std::uint64_t trace_events = sinked.trace_events[0] +
                                     sinked.trace_events[1] +
                                     sinked.trace_events[2] +
                                     sinked.trace_events[3];
  std::set<std::uint64_t> hashes;
  if (id == Workload::kFleetTraced) {
    for (const Repeat& r : untraced) hashes.insert(r.trace_hash);
    for (const Repeat& r : traced) hashes.insert(r.trace_hash);
  } else if (id == Workload::kFleetPartitioned) {
    for (const Repeat& r : variant) hashes.insert(r.trace_hash);
  }
  double obs_overhead = 0.0;
  if (id == Workload::kFleetTraced) {
    obs_overhead = ratio(wall, median(collect(variant, [](const Repeat& r) {
                           return r.wall_s;
                         })));
  }

  std::vector<Metric> ms;
  ms.push_back({"sim.events", "count", static_cast<double>(sim.events), 1,
                "simulator events per repeat"});
  ms.push_back({"sim.ns_per_event", "ns",
                ratio(wall * 1e9, static_cast<double>(sim.events)), nu,
                "untraced wall / events"});
  ms.push_back({"sim.event_cost_p50_ns", "ns", quantile(chunk_ns, 0.5),
                chunk_ns.size(), "1024-event chunks; 0 = no observer"});
  ms.push_back({"sim.event_cost_p99_ns", "ns", quantile(chunk_ns, 0.99),
                chunk_ns.size(), "1024-event chunks; 0 = no observer"});
  ms.push_back({"sim.partition_imbalance", "ratio", imbalance, parts.size(),
                "max / mean events per partition; 0 = not partitioned"});
  ms.push_back({"rt.cpu_util", "ratio",
                ratio(cpu, wall * o.workload->threads), nu,
                "cpu_s / (wall_s x " +
                    std::to_string(o.workload->threads) + " threads)"});
  ms.push_back({"sweep.point_wall_p50_s", "s", quantile(point_wall, 0.5),
                point_wall.size(), "factory call -> probe, on the worker"});
  ms.push_back({"sweep.point_wall_max_s", "s", median(point_max),
                point_max.size(), "slowest point per repeat, median"});
  ms.push_back({"sweep.fingerprint_s", "s", span_median("sweep.fingerprint"),
                span_count("sweep.fingerprint"), "result_fingerprint calls"});
  ms.push_back({"net.fragments", "count", static_cast<double>(sim.fragments),
                1, "uplink fragments sent incl. retransmissions"});
  ms.push_back({"net.retransmit_ratio", "ratio",
                ratio(sim.retransmissions, sim.fragments), 1,
                "retransmissions / fragments sent"});
  ms.push_back({"net.send_fail_ratio", "ratio",
                ratio(sim.sends_failed, sim.messages_sent), 1,
                "sends failed / messages sent"});
  ms.push_back({"device.frames", "count", static_cast<double>(sim.frames), 1,
                "frames captured"});
  ms.push_back({"device.offload_ratio", "ratio",
                ratio(sim.offload_attempts, sim.frames), 1,
                "offload attempts / frames captured"});
  ms.push_back({"control.po_reversals_per_min", "1/min",
                ratio(static_cast<double>(sim.po_reversals),
                      sim.device_minutes),
                1, "Po_target direction changes per device-minute"});
  ms.push_back({"server.batches", "count", static_cast<double>(sim.batches),
                1, "batches executed"});
  ms.push_back({"server.mean_batch", "count",
                ratio(sim.batched_requests, static_cast<double>(sim.batches)),
                1, "requests per batch"});
  ms.push_back({"server.reject_ratio", "ratio",
                ratio(sim.server_rejected, sim.server_received), 1,
                "(rejected + admission rejected) / received"});
  ms.push_back({"server.gpu_util", "ratio",
                ratio(sim.gpu_util_sum, static_cast<double>(sim.servers)), 1,
                "mean over servers"});
  ms.push_back({"core.scenario_s", "s", span_median("core.scenario"),
                span_count("core.scenario"), "span, median"});
  ms.push_back({"core.build_s", "s", span_median("core.build"),
                span_count("core.build"),
                "span, median; 0 = built on sweep workers"});
  ms.push_back({"core.run_s", "s", span_median("core.run"),
                span_count("core.run"), "span, median; 0 = sweep workload"});
  ms.push_back({"sweep.run_s", "s", span_median("sweep.run"),
                span_count("sweep.run"), "span, median; 0 = fleet workload"});
  ms.push_back({"obs.events.frame", "count",
                static_cast<double>(sinked.trace_events[0]), 1,
                "trace events per repeat; 0 = no sink"});
  ms.push_back({"obs.events.net", "count",
                static_cast<double>(sinked.trace_events[1]), 1, ""});
  ms.push_back({"obs.events.server", "count",
                static_cast<double>(sinked.trace_events[2]), 1, ""});
  ms.push_back({"obs.events.ctl", "count",
                static_cast<double>(sinked.trace_events[3]), 1, ""});
  ms.push_back({"obs.bytes_per_event", "B",
                ratio(static_cast<double>(sinked.trace_bytes),
                      static_cast<double>(trace_events)),
                1, "JSONL bytes / trace events"});
  ms.push_back({"obs.trace_mb", "MB",
                static_cast<double>(sinked.trace_bytes) / 1e6, 1,
                "JSONL bytes per repeat"});
  ms.push_back({"obs.overhead", "ratio", obs_overhead,
                id == Workload::kFleetTraced ? nu : 0,
                "wall with JSONL sink / without; 0 = no sink"});
  const std::size_t hashed_repeats =
      id == Workload::kFleetTraced ? nu + nt : variant.size();
  ms.push_back({"obs.trace_hash_distinct", "count",
                static_cast<double>(hashes.size()), hashed_repeats,
                id == Workload::kFleetPartitioned
                    ? "event-hash sink, repeats of one seed; 1 = reproducible"
                    : "distinct trace hashes across repeats; 0 = no sink"});
  ms.push_back({"bench.trace_overhead", "ratio", ratio(traced_wall, wall), nt,
                "spans+observers wall / untraced wall"});
  return ms;
}

int run(const Options& o) {
  const double origin = wall_now();
  const Machine mach = machine(o);
  std::cout << "ffbench workload=" << o.workload->name << " seed=" << o.seed
            << " seconds=" << o.seconds << " trace=" << (o.trace ? 1 : 0)
            << "\nmachine";
  for (const auto& [k, v] : mach.fields) {
    std::cout << " " << k << "=\"" << v << "\"";
  }
  std::cout << "\n";
  for (const std::string& w : mach.warnings) {
    std::cout << "WARNING: " << w << "\n";
  }

  const std::vector<std::string> silent = tamper_self_check();
  std::cout << "self-check: "
            << (silent.empty() ? "every correctness check fires on "
                                 "tampered input (device conservation, "
                                 "server conservation, fingerprint, trace "
                                 "hash, throwing experiment)"
                               : "FAILED")
            << "\n";
  for (const std::string& s : silent) {
    std::cout << "  check did not fire: " << s << "\n";
  }

  std::uint64_t trace_id = 0;
  const Workload id = o.workload->id;
  const bool has_variant =
      id == Workload::kFleetTraced || id == Workload::kFleetPartitioned;
  std::vector<Repeat> untraced;
  std::vector<Repeat> traced;
  std::vector<Repeat> variant;
  SpanRecorder recorder;
  // One discarded repeat first: the first run in a process pays for heap
  // growth and cold caches that later repeats do not.
  (void)run_repeat(id, o.seed, SinkMode::kWorkload, nullptr, 0);
  if (!o.trace) {
    untraced = run_phase(o, SinkMode::kWorkload, nullptr, o.seconds, 3,
                         &trace_id);
  } else {
    const double share = has_variant ? 0.4 : 0.5;
    untraced = run_phase(o, SinkMode::kWorkload, nullptr, o.seconds * share,
                         3, &trace_id);
    traced = run_phase(o, SinkMode::kWorkload, &recorder, o.seconds * share,
                       3, &trace_id);
    if (has_variant) {
      variant = run_phase(o,
                          id == Workload::kFleetTraced ? SinkMode::kNone
                                                       : SinkMode::kHash,
                          nullptr, o.seconds * 0.2, 3, &trace_id);
    }
  }
  Tally tally;
  check_repeats({&untraced, &traced, &variant},
                id == Workload::kFleetTraced, &tally);
  const std::vector<Metric> e2e = end_to_end(o, untraced, tally);

  std::uint64_t combined = 0xcbf29ce484222325ULL;
  for (const std::uint64_t fp : untraced.front().fingerprints) {
    combined = (combined ^ fp) * 0x100000001b3ULL;
  }
  std::cout << "fingerprint " << hex64(combined) << " ("
            << untraced.front().fingerprints.size()
            << " experiment(s); informational)\n";
  print_table("end-to-end (" + std::to_string(untraced.size()) +
                  " untraced repeats)",
              e2e);
  for (const std::string& why : tally.reasons) {
    std::cout << "  failure: " << why << "\n";
  }

  std::vector<Metric> layers;
  if (o.trace) {
    const std::vector<Span> spans = recorder.take();
    const auto stats = span_stats(spans);
    layers = per_layer(o, untraced, traced, variant, stats);
    print_table("per-layer (" + std::to_string(traced.size()) +
                    " traced repeats; overhead " +
                    num(layers.back().value) + "x the untraced wall_s)",
                layers);
    std::cout << "\nspans (" << spans.size() << ")\n";
    for (const auto& [name, st] : stats) {
      std::cout << "  " << std::left << std::setw(20) << name << std::right
                << " n=" << std::setw(7) << st.duration.size()
                << "  median " << std::setw(12) << median(st.duration)
                << " s  self " << std::setw(12) << median(st.self) << " s\n";
    }
    if (!o.spans_out.empty()) {
      write_spans(o.spans_out, spans, origin);
      std::cout << "spans written to " << o.spans_out << "\n";
    }
  }

  std::string record = "{\"workload\": \"" + std::string(o.workload->name) +
                       "\", \"seed\": " + std::to_string(o.seed) +
                       ", \"trace\": " + (o.trace ? "1" : "0") +
                       ", \"fingerprint\": \"" + hex64(combined) +
                       "\", \"machine\": {";
  bool first = true;
  for (const auto& [k, v] : mach.fields) {
    record += std::string(first ? "" : ", ") + "\"" + k + "\": \"" +
              json_escape(v) + "\"";
    first = false;
  }
  std::vector<Metric> all = e2e;
  all.insert(all.end(), layers.begin(), layers.end());
  record += "}, \"wall_samples\": [";
  for (std::size_t i = 0; i < untraced.size(); ++i) {
    record += (i ? ", " : "") + num(untraced[i].wall_s);
  }
  record += "], \"attempted\": " + std::to_string(tally.attempted) +
            ", \"failed\": " + std::to_string(tally.failed) +
            ", \"metrics\": " + metrics_json(all, true) + "}";
  std::cout << "\nRECORD " << record << "\n";

  std::vector<Metric> out;
  if (o.trace) {
    out = layers;
  } else {
    for (const Metric& m : e2e) {
      if (json_end_to_end().count(m.name) != 0) out.push_back(m);
    }
  }
  const bool correct = silent.empty() && tally.failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << tally.attempted
            << ", \"failed\": " << tally.failed
            << ", \"metrics\": " << metrics_json(out, false) << "}"
            << std::endl;
  return 0;
}

}  // namespace
}  // namespace ffbench

int main(int argc, char** argv) {
  return ffbench::run(ffbench::parse(argc, argv));
}
