#include "ff/sweep/sweep.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "ff/core/framefeedback.h"
#include "ff/obs/metrics.h"
#include "ff/obs/trace.h"
#include "ff/rt/thread_pool.h"

namespace ff::sweep {
namespace {

SweepConfig small_config() {
  SweepConfig cfg;
  cfg.name = "test_sweep";
  cfg.base = core::Scenario::ideal(5 * kSecond);
  cfg.base.seed = 11;
  cfg.replicates = 2;
  cfg.controllers = {
      {"frame-feedback",
       core::make_controller_factory<control::FrameFeedbackController>()},
      {"local-only",
       core::make_controller_factory<control::LocalOnlyController>()},
  };
  Axis fps;
  fps.name = "fps";
  fps.values = {
      {"15", [](core::Scenario& s) { s.devices[0].source_fps = 15.0; }},
      {"30", [](core::Scenario& s) { s.devices[0].source_fps = 30.0; }},
  };
  cfg.axes.push_back(std::move(fps));
  cfg.probes = {
      {"mean_P",
       [](const core::ExperimentResult& r) {
         return r.devices[0].mean_throughput();
       }},
  };
  return cfg;
}

TEST(SweepSeed, DerivationIsPureInSeedAndIndex) {
  const std::uint64_t a = derive_point_seed(42, 0);
  EXPECT_EQ(a, derive_point_seed(42, 0));
  EXPECT_NE(a, derive_point_seed(42, 1));
  EXPECT_NE(a, derive_point_seed(43, 0));
}

TEST(SweepSeed, DerivedSeedsAreDistinctAcrossAWideGrid) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    seen.insert(derive_point_seed(42, i));
  }
  EXPECT_EQ(seen.size(), 10'000u);
}

TEST(SweepRun, EnumeratesAxisMajorThenControllerThenReplicate) {
  SweepConfig cfg = small_config();
  cfg.threads = 1;
  const SweepResult result = run(cfg);
  ASSERT_EQ(result.points.size(), 8u);  // 2 fps x 2 controllers x 2 reps

  // Replicate varies fastest, then controller, then the axis.
  EXPECT_EQ(result.points[0].desc.label, "fps=15,frame-feedback#0");
  EXPECT_EQ(result.points[1].desc.label, "fps=15,frame-feedback#1");
  EXPECT_EQ(result.points[2].desc.label, "fps=15,local-only#0");
  EXPECT_EQ(result.points[4].desc.label, "fps=30,frame-feedback#0");
  EXPECT_EQ(result.points[7].desc.label, "fps=30,local-only#1");

  for (std::size_t i = 0; i < result.points.size(); ++i) {
    const PointDesc& d = result.points[i].desc;
    EXPECT_EQ(d.index, i);
    EXPECT_EQ(result.index_of(d.axis_indices, d.controller_index,
                              d.replicate),
              i);
    EXPECT_EQ(&result.at(d.axis_indices, d.controller_index, d.replicate),
              &result.points[i]);
  }
}

TEST(SweepRun, DerivedModeSeedsMatchDerivationAndAreUnique) {
  SweepConfig cfg = small_config();
  cfg.threads = 1;
  const SweepResult result = run(cfg);
  std::set<std::uint64_t> seeds;
  for (const SweepPoint& p : result.points) {
    EXPECT_EQ(p.desc.seed, derive_point_seed(cfg.base.seed, p.desc.index));
    EXPECT_EQ(p.result.seed, p.desc.seed);
    seeds.insert(p.desc.seed);
  }
  EXPECT_EQ(seeds.size(), result.points.size());
}

TEST(SweepRun, ScenarioModeKeepsSeedPlusReplicate) {
  SweepConfig cfg = small_config();
  cfg.threads = 1;
  cfg.seed_mode = SeedMode::kScenario;
  const SweepResult result = run(cfg);
  for (const SweepPoint& p : result.points) {
    EXPECT_EQ(p.desc.seed, cfg.base.seed + p.desc.replicate);
  }
}

// The tentpole guarantee: a parallel sweep is bit-identical to the same
// sweep run serially -- same per-point result fingerprints and the same
// bytes out of every writer.
TEST(SweepDeterminism, ParallelMatchesSerialBitForBit) {
  SweepConfig cfg = small_config();

  cfg.threads = 1;
  const SweepResult serial = run(cfg);
  cfg.threads = 4;
  const SweepResult dedicated = run(cfg);
  cfg.threads = 0;  // shared default pool
  const SweepResult shared = run(cfg);
  rt::shutdown_default_pool();

  ASSERT_EQ(serial.points.size(), dedicated.points.size());
  ASSERT_EQ(serial.points.size(), shared.points.size());
  for (std::size_t i = 0; i < serial.points.size(); ++i) {
    const std::uint64_t want = result_fingerprint(serial.points[i].result);
    EXPECT_EQ(want, result_fingerprint(dedicated.points[i].result)) << i;
    EXPECT_EQ(want, result_fingerprint(shared.points[i].result)) << i;
  }

  const auto csv_bytes = [](const SweepResult& r) {
    std::ostringstream points, summary, series, json;
    write_points_csv(r, points);
    write_summary_csv(r, aggregate(r), summary);
    write_series_csv(r, "P", 0, series);
    write_bench_json(r, json);
    return points.str() + summary.str() + series.str() + json.str();
  };
  const std::string want = csv_bytes(serial);
  EXPECT_EQ(want, csv_bytes(dedicated));
  EXPECT_EQ(want, csv_bytes(shared));
}

TEST(SweepDeterminism, FingerprintSeparatesDifferentRuns) {
  SweepConfig cfg = small_config();
  cfg.threads = 1;
  const SweepResult result = run(cfg);
  // Different seeds / controllers / fps cells must not collide.
  std::set<std::uint64_t> prints;
  for (const SweepPoint& p : result.points) {
    prints.insert(result_fingerprint(p.result));
  }
  EXPECT_EQ(prints.size(), result.points.size());
}

TEST(SweepAggregate, SummarizesReplicatesPerCell) {
  SweepConfig cfg = small_config();
  cfg.threads = 1;
  const SweepResult result = run(cfg);
  const auto cells = aggregate(result);
  ASSERT_EQ(cells.size(), 4u);  // 2 fps x 2 controllers
  for (const CellSummary& cell : cells) {
    EXPECT_EQ(cell.first.replicate, 0u);
    ASSERT_EQ(cell.metrics.size(), 1u);
    const MetricSummary& m = cell.metrics[0];
    EXPECT_EQ(m.name, "mean_P");
    EXPECT_EQ(m.stats.count(), 2u);
    EXPECT_EQ(m.ci.n, 2u);
    // Replicate mean matches the two underlying points.
    const std::size_t base = cell.first.index;
    const double expect_mean = (result.points[base].metrics[0] +
                                result.points[base + 1].metrics[0]) /
                               2.0;
    EXPECT_DOUBLE_EQ(m.stats.mean(), expect_mean);
    EXPECT_DOUBLE_EQ(m.ci.mean, expect_mean);
    // n = 2 replicates: the 95% interval uses the Student-t critical
    // value for 1 degree of freedom (12.706), not the normal 1.96 --
    // the normal interval was systematically narrow at bench replicate
    // counts.
    const double sd = std::sqrt(m.stats.sample_variance());
    EXPECT_DOUBLE_EQ(m.ci.half_width,
                     student_t_975(1) * sd / std::sqrt(2.0));
  }
}

TEST(SweepObs, MetricsAndProgressArriveInOrder) {
  SweepConfig cfg = small_config();
  cfg.threads = 2;
  obs::MetricsRegistry metrics;
  cfg.metrics = &metrics;
  std::vector<std::size_t> seen;
  cfg.on_point = [&](const PointDesc& desc, std::size_t done,
                     std::size_t total) {
    EXPECT_EQ(total, 8u);
    EXPECT_EQ(done, desc.index + 1);  // landed in linear order
    seen.push_back(desc.index);
  };
  const SweepResult result = run(cfg);
  ASSERT_EQ(seen.size(), 8u);
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);

  const obs::Labels labels{{"sweep", cfg.name}};
  EXPECT_DOUBLE_EQ(metrics.gauge("sweep.points_total", labels).value(), 8.0);
  EXPECT_DOUBLE_EQ(metrics.counter("sweep.points_done", labels).value(), 8.0);
  EXPECT_GT(metrics.counter("sweep.events_executed", labels).value(), 0.0);
  obs::Labels probe_labels = labels;
  probe_labels.emplace_back("metric", "mean_P");
  EXPECT_EQ(metrics.distribution("sweep.metric", probe_labels).count(), 8u);
  (void)result;
}

TEST(SweepObs, TraceSinkSeesLifecycle) {
  SweepConfig cfg = small_config();
  cfg.threads = 2;
  obs::CollectingTraceSink sink;
  cfg.trace = &sink;
  (void)run(cfg);
  EXPECT_EQ(sink.count(obs::ev::kSweepStart), 1u);
  EXPECT_EQ(sink.count(obs::ev::kSweepPoint), 8u);
  EXPECT_EQ(sink.count(obs::ev::kSweepDone), 1u);
  EXPECT_EQ(sink.count(obs::ev::kFrameCaptured), 0u);
}

TEST(SweepRun, NoAxesMeansControllersTimesReplicates) {
  SweepConfig cfg = small_config();
  cfg.threads = 1;
  cfg.axes.clear();
  cfg.replicates = 1;
  const SweepResult result = run(cfg);
  ASSERT_EQ(result.points.size(), 2u);
  // Without axes or replication the label is just the controller.
  EXPECT_EQ(result.points[0].desc.label, "frame-feedback");
  EXPECT_EQ(result.points[1].desc.label, "local-only");
}

TEST(SweepRun, InvalidConfigsThrow) {
  SweepConfig no_controllers = small_config();
  no_controllers.controllers.clear();
  EXPECT_THROW((void)run(no_controllers), std::invalid_argument);

  SweepConfig empty_axis = small_config();
  empty_axis.axes[0].values.clear();
  EXPECT_THROW((void)run(empty_axis), std::invalid_argument);

  SweepConfig no_replicates = small_config();
  no_replicates.replicates = 0;
  EXPECT_THROW((void)run(no_replicates), std::invalid_argument);
}

TEST(SweepResultApi, IndexOfRejectsOutOfRange) {
  SweepConfig cfg = small_config();
  cfg.threads = 1;
  const SweepResult result = run(cfg);
  EXPECT_THROW((void)result.index_of({0}, 2, 0), std::out_of_range);
  EXPECT_THROW((void)result.index_of({2}, 0, 0), std::out_of_range);
  EXPECT_THROW((void)result.index_of({0}, 0, 2), std::out_of_range);
  EXPECT_THROW((void)result.index_of({0, 0}, 0, 0), std::out_of_range);
}

TEST(SweepWriters, PointsCsvShape) {
  SweepConfig cfg = small_config();
  cfg.threads = 1;
  const SweepResult result = run(cfg);
  std::ostringstream os;
  write_points_csv(result, os);
  std::istringstream is(os.str());
  std::string header;
  std::getline(is, header);
  EXPECT_EQ(header,
            "index,fps,controller,replicate,seed,fingerprint,mean_P");
  std::size_t rows = 0;
  for (std::string line; std::getline(is, line);) ++rows;
  EXPECT_EQ(rows, 8u);
}

TEST(SweepWriters, SeriesCsvMatchesBundleShape) {
  SweepConfig cfg = small_config();
  cfg.threads = 1;
  const SweepResult result = run(cfg);
  std::ostringstream os;
  write_series_csv(result, "P", 0, os);
  std::istringstream is(os.str());
  std::string header;
  std::getline(is, header);
  EXPECT_EQ(header, "time_s,series,value");  // write_bundle_csv shape
  std::string first;
  std::getline(is, first);
  EXPECT_NE(first.find("fps=15,frame-feedback#0"), std::string::npos);
}

TEST(SweepWriters, BenchJsonHasSuiteAndBenchmarks) {
  SweepConfig cfg = small_config();
  cfg.threads = 1;
  cfg.replicates = 1;
  const SweepResult result = run(cfg);
  std::ostringstream os;
  write_bench_json(result, os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"suite\": \"test_sweep\""), std::string::npos);
  EXPECT_NE(json.find("\"benchmarks\": ["), std::string::npos);
  EXPECT_NE(json.find("\"mean_P\": "), std::string::npos);
  EXPECT_NE(json.find("\"fingerprint\": "), std::string::npos);
}

}  // namespace
}  // namespace ff::sweep
