// Shared main for the micro-benches: the standard google-benchmark CLI
// plus a `--json[=path]` flag that writes {name, items/sec, time} for every
// benchmark to BENCH_<suite>.json (suite injected per target via
// FF_BENCH_SUITE). This is the perf-regression trajectory: CI runs the
// micro benches in Release and archives the JSON so kernel/net throughput
// regressions show up as numbers, not vibes.

#include <benchmark/benchmark.h>

#include <cctype>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#ifndef FF_BENCH_SUITE
#define FF_BENCH_SUITE "bench"
#endif

namespace {

struct Row {
  std::string name;
  double items_per_second{0.0};
  double real_time_ns{0.0};
  std::int64_t iterations{0};
};

// Console output as usual, plus a machine-readable copy of every run.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      Row row;
      row.name = run.benchmark_name();
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) row.items_per_second = it->second;
      // GetAdjustedRealTime() is in the benchmark's own Unit() (ms for
      // the partition benches); normalize so the field is always ns.
      row.real_time_ns = run.GetAdjustedRealTime() * 1e9 /
                         benchmark::GetTimeUnitMultiplier(run.time_unit);
      row.iterations = run.iterations;
      rows.push_back(std::move(row));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  std::vector<Row> rows;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

// Older libbenchmark rejects duration suffixes ("0.05s") on
// --benchmark_min_time while newer versions prefer them; strip a trailing
// "s" after a digit so one CI invocation works against both. (The "<N>x"
// iteration form has no trailing "s" and passes through untouched.)
std::string normalize_min_time(const std::string& arg) {
  const std::string prefix = "--benchmark_min_time=";
  if (arg.rfind(prefix, 0) != 0) return arg;
  std::string value = arg.substr(prefix.size());
  if (value.size() >= 2 && value.back() == 's' &&
      std::isdigit(static_cast<unsigned char>(value[value.size() - 2]))) {
    value.pop_back();
  }
  return prefix + value;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::string json_path;
  std::vector<std::string> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json", 6) == 0 &&
        (argv[i][6] == '\0' || argv[i][6] == '=')) {
      json = true;
      if (argv[i][6] == '=') json_path = argv[i] + 7;
      continue;
    }
    args.push_back(normalize_min_time(argv[i]));
  }
  std::vector<char*> argv_filtered;
  argv_filtered.reserve(args.size());
  for (auto& a : args) argv_filtered.push_back(a.data());
  int argc_filtered = static_cast<int>(argv_filtered.size());

  benchmark::Initialize(&argc_filtered, argv_filtered.data());
  if (benchmark::ReportUnrecognizedArguments(argc_filtered,
                                             argv_filtered.data())) {
    return 1;
  }

  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  if (json) {
    if (json_path.empty()) json_path = "BENCH_" FF_BENCH_SUITE ".json";
    std::ofstream out(json_path);
    out << "{\n  \"suite\": \"" FF_BENCH_SUITE "\",\n  \"benchmarks\": [\n";
    for (std::size_t i = 0; i < reporter.rows.size(); ++i) {
      const Row& r = reporter.rows[i];
      out << "    {\"name\": \"" << json_escape(r.name)
          << "\", \"items_per_second\": " << r.items_per_second
          << ", \"real_time_ns\": " << r.real_time_ns
          << ", \"iterations\": " << r.iterations << "}"
          << (i + 1 < reporter.rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
  }
  return 0;
}
