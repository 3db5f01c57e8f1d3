#pragma once

// Declarative experiment sweep engine: every figure, table and ablation in
// the reproduction is a loop over experiments -- a cross product of
// scenario axes x controller variants x seed replicates. This library runs
// that cross product concurrently on rt::default_pool() (or a dedicated
// pool) with deterministic per-point seed derivation, so a parallel sweep
// is bit-identical to the same sweep run serially. It aggregates
// replicates into mean/stddev/CI summaries, streams progress and totals
// through ff_obs, and exports CSV and the BENCH_*.json shape from one
// writer instead of one hand-rolled loop per bench target.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "ff/core/experiment.h"
#include "ff/core/scenario.h"
#include "ff/obs/metrics.h"
#include "ff/obs/trace.h"
#include "ff/util/stats.h"

namespace ff::sweep {

/// One value of a scenario axis: a label (used in point names and CSV
/// cells) plus a mutation applied to a copy of the base scenario.
struct AxisValue {
  std::string label;
  std::function<void(core::Scenario&)> apply;
};

/// A named parameter axis; the sweep runs the cross product of all axes.
struct Axis {
  std::string name;
  std::vector<AxisValue> values;
};

/// Axis over Scenario::partitions ("K=<n>" labels; 0 runs as 1). Every
/// point produces the same fingerprint -- sweeping this axis is the
/// determinism matrix.
[[nodiscard]] Axis partition_axis(std::vector<std::size_t> counts);

/// Axis over fleet size ("M=<n>" labels): replaces Scenario::fleet with a
/// uniform topology of `count` copies of the scenario's server profile,
/// each carrying a copy of the scenario's background load. M = 1 is the
/// degenerate topology, bit-identical to the legacy single-server wiring.
[[nodiscard]] Axis server_count_axis(std::vector<std::size_t> counts);

/// Axis over placement policies: each value installs a PlacementFactory
/// into Scenario::fleet.placement (labels name the policy; an empty
/// factory means the built-in round-robin default). Compose after
/// server_count_axis -- axes apply in declaration order.
[[nodiscard]] Axis placement_axis(
    std::vector<std::pair<std::string, core::PlacementFactory>> policies);

/// A controller under test. Factories are invoked concurrently from pool
/// workers and must be pure (capture configuration by value, allocate a
/// fresh controller per call).
struct ControllerVariant {
  std::string name;
  core::ControllerFactory factory;
};

/// Named scalar extracted from a finished run; one CSV column per probe.
struct MetricProbe {
  std::string name;
  std::function<double(const core::ExperimentResult&)> extract;
};

enum class SeedMode {
  /// Seed = splitmix64 of the base scenario seed x linear point index
  /// (see derive_point_seed): every point gets an independent stream and
  /// the derivation depends only on the index, never on thread count.
  kDerived,
  /// Keep the (possibly axis-mutated) scenario's own seed; replicate r
  /// runs with seed + r. Use for exact reproduction of the paper's
  /// single-seed figures (seed 42) and explicit seed ladders.
  kScenario,
};

/// Identity of one point in the cross product.
struct PointDesc {
  std::size_t index{0};  ///< linear index, axis-major then controller
                         ///< then replicate
  std::vector<std::size_t> axis_indices;
  std::vector<std::string> coordinates;  ///< axis value labels, in order
  std::size_t controller_index{0};
  std::string controller;
  std::size_t replicate{0};
  std::uint64_t seed{0};
  /// "axis=value,...,controller" plus "#replicate" when replicated.
  std::string label;
};

struct SweepConfig {
  std::string name{"sweep"};
  core::Scenario base{};
  std::vector<Axis> axes;
  std::vector<ControllerVariant> controllers;
  std::size_t replicates{1};
  SeedMode seed_mode{SeedMode::kDerived};
  /// 0 = shared rt::default_pool(); 1 = serial on the calling thread;
  /// N > 1 = dedicated pool of N workers. Results are bit-identical
  /// across all choices.
  std::size_t threads{0};
  std::vector<MetricProbe> probes;
  /// Optional per-sweep metrics, labelled {sweep=<name>}: points_total
  /// gauge, points_done / events_executed counters and one distribution
  /// per probe. Updated from the calling thread only; the registry is
  /// not otherwise synchronized.
  obs::MetricsRegistry* metrics{nullptr};
  /// Optional span sink: sweep.start / sweep.point / sweep.done emitted
  /// from the calling thread as points land. Experiments run untraced.
  obs::TraceSink* trace{nullptr};
  /// Progress hook, called on the calling thread as each point lands (in
  /// linear index order).
  std::function<void(const PointDesc&, std::size_t done, std::size_t total)>
      on_point;
};

/// One finished experiment of the sweep.
struct SweepPoint {
  PointDesc desc;
  core::ExperimentResult result;
  std::vector<double> metrics;  ///< aligned with SweepConfig::probes
};

struct SweepResult {
  std::string name;
  std::vector<std::string> axis_names;
  std::vector<std::size_t> axis_sizes;
  std::size_t controller_count{0};
  std::size_t replicate_count{1};
  std::vector<std::string> metric_names;
  std::vector<SweepPoint> points;  ///< linear order (see PointDesc::index)

  /// Linear index of (axis value indices, controller, replicate).
  [[nodiscard]] std::size_t index_of(
      const std::vector<std::size_t>& axis_indices, std::size_t controller,
      std::size_t replicate) const;

  [[nodiscard]] const SweepPoint& at(
      const std::vector<std::size_t>& axis_indices, std::size_t controller,
      std::size_t replicate) const {
    return points.at(index_of(axis_indices, controller, replicate));
  }
};

/// Deterministic per-point seed (SeedMode::kDerived): one splitmix64 step
/// of base_seed perturbed by the linear point index. Depends only on
/// (base_seed, point_index), so serial and parallel sweeps agree.
[[nodiscard]] std::uint64_t derive_point_seed(std::uint64_t base_seed,
                                              std::uint64_t point_index);

/// Runs the full cross product. Throws std::invalid_argument on an empty
/// controller list, an axis without values, or zero replicates.
[[nodiscard]] SweepResult run(const SweepConfig& config);

/// Order-sensitive FNV-1a fingerprint over everything an ExperimentResult
/// carries: identity, totals, transport/server stats and the bit pattern
/// of every (time, value) series sample. Equal results hash equal; any
/// divergence (a reordered event, a perturbed double) changes the hash.
[[nodiscard]] std::uint64_t result_fingerprint(
    const core::ExperimentResult& result);

/// Replicate aggregate of one probe within one cell (axes x controller).
struct MetricSummary {
  std::string name;
  StreamingStats stats;  ///< over replicates
  MeanCi ci;             ///< 95% normal-approximation interval
};

/// All replicates of one (axes, controller) cell, aggregated.
struct CellSummary {
  PointDesc first;  ///< replicate-0 point of the cell
  std::vector<MetricSummary> metrics;
};

/// Aggregates every cell's replicates; cells appear in linear order.
[[nodiscard]] std::vector<CellSummary> aggregate(const SweepResult& result);

/// Per-point CSV: index, axes..., controller, replicate, seed,
/// fingerprint, then one column per probe.
void write_points_csv(const SweepResult& result, std::ostream& os);
void write_points_csv(const SweepResult& result, const std::string& path);

/// Per-cell CSV: axes..., controller, n, then mean/stddev/ci_half per
/// probe.
void write_summary_csv(const SweepResult& result,
                       const std::vector<CellSummary>& cells,
                       std::ostream& os);
void write_summary_csv(const SweepResult& result,
                       const std::vector<CellSummary>& cells,
                       const std::string& path);

/// One named series of one device from every point, long form with the
/// point label as the series name -- the shape util::write_bundle_csv
/// produces, so existing figure plotting keeps working.
void write_series_csv(const SweepResult& result, const std::string& series,
                      std::size_t device_index, std::ostream& os);
void write_series_csv(const SweepResult& result, const std::string& series,
                      std::size_t device_index, const std::string& path);

/// The BENCH_<suite>.json shape the micro-benches emit ({"suite": ...,
/// "benchmarks": [...]}), one entry per point with its seed, fingerprint
/// and probe values.
void write_bench_json(const SweepResult& result, std::ostream& os);
void write_bench_json(const SweepResult& result, const std::string& path);

}  // namespace ff::sweep
