// The per-round observability layer: traced outcomes carry metric series,
// series survive the v4 record/shard/cache formats bit-exactly, tracing is
// zero-cost (bit-identical outcomes) when off, traced sweeps are identical
// across serial and fleet execution, and the report-layer cross-cell
// regression (sweep_fits) reproduces a direct log-linear fit exactly.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "sim_test_util.hpp"

namespace nrn::sim {
namespace {

namespace fs = std::filesystem;

using testutil::shard_bytes;
using testutil::sweep_csv_of;
using testutil::sweep_json_of;

ExperimentReport run_decay(bool trace, const std::string& topology = "path:12",
                           int trials = 3) {
  const auto scenario = Scenario::parse(topology, "receiver:0.25",
                                        /*source=*/0, /*k=*/1, /*seed=*/7);
  DriverOptions options;
  options.trace = trace;
  return Driver().run(scenario, "decay", trials, options);
}

SweepReport run_plan(const std::string& plan_text,
                     const SweepOptions& options = {}) {
  const auto plan = SweepPlan::parse(plan_text);
  return SweepRunner().run(plan, options);
}

std::string scratch_dir(const std::string& leaf) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("nrn_" + leaf);
  fs::remove_all(dir);
  return dir.string();
}

TEST(TraceSeries, TracedDecayRecordsPerRoundSeries) {
  const auto report = run_decay(/*trace=*/true);
  ASSERT_TRUE((report.capabilities & kTraced) != 0u);
  EXPECT_TRUE(report.has_series());
  EXPECT_EQ(report.series_keys(),
            (std::vector<std::string>{"broadcasters", "collisions",
                                      "deliveries", "informed"}));
  for (const auto& trial : report.trials) {
    const auto* informed = trial.run.find_series("informed");
    ASSERT_NE(informed, nullptr);
    // One sample per round, ending with every node informed.
    EXPECT_EQ(static_cast<std::int64_t>(informed->size()),
              trial.run.rounds());
    ASSERT_FALSE(informed->empty());
    EXPECT_EQ(informed->back().as_int(), report.node_count);
    // Informed counts are non-decreasing (broadcast never un-informs).
    for (std::size_t i = 1; i < informed->size(); ++i)
      EXPECT_LE((*informed)[i - 1].as_int(), (*informed)[i].as_int());
    ASSERT_NE(trial.run.find_series("deliveries"), nullptr);
    EXPECT_EQ(trial.run.find_series("deliveries")->size(), informed->size());
  }
}

TEST(TraceSeries, TracingIsZeroCostWhenOff) {
  const auto traced = run_decay(/*trace=*/true);
  const auto plain = run_decay(/*trace=*/false);
  EXPECT_FALSE(plain.has_series());
  // Same trials, same outcomes -- the recorder observes, never perturbs.
  ASSERT_EQ(traced.trials.size(), plain.trials.size());
  for (std::size_t i = 0; i < traced.trials.size(); ++i) {
    Outcome stripped = traced.trials[i].run;
    stripped.series.clear();
    EXPECT_EQ(stripped, plain.trials[i].run);
  }
}

TEST(TraceSeries, UntracedProtocolIgnoresTraceRequest) {
  // greedy has no kTraced capability: a trace request is a no-op, not an
  // error, so mixed-protocol traced sweeps work.
  const auto scenario =
      Scenario::parse("star:8", "none", /*source=*/0, /*k=*/1, /*seed=*/3);
  DriverOptions options;
  options.trace = true;
  const auto report = Driver().run(scenario, "greedy", 2, options);
  EXPECT_FALSE(report.has_series());
}

TEST(TraceSeries, SeriesSurviveShardRoundTrip) {
  const auto report =
      run_plan("topology=path:10; fault=receiver:0.25; protocols=decay; "
               "trials=2; seed=11; trace=1");
  ASSERT_TRUE(report.cells.at(0).experiment.has_series());
  const auto bytes = shard_bytes(report);
  EXPECT_NE(bytes.find("nrn-sweep-shard v6"), std::string::npos);
  EXPECT_NE(bytes.find("series informed "), std::string::npos);
  std::istringstream in(bytes);
  const auto parsed = read_shard_file(in);
  EXPECT_EQ(parsed, report);
  EXPECT_EQ(shard_bytes(parsed), bytes);
}

TEST(TraceSeries, TracedAndUntracedCellsUseDistinctCacheKeys) {
  const auto traced = SweepPlan::parse(
      "topology=path:8; protocols=decay; trials=2; seed=1; trace=1");
  const auto plain =
      SweepPlan::parse("topology=path:8; protocols=decay; trials=2; seed=1");
  ASSERT_EQ(traced.cells.size(), 1u);
  ASSERT_EQ(plain.cells.size(), 1u);
  // Same scenario, different key: a warm untraced cache can never satisfy
  // a traced sweep with series-less results (or vice versa).
  EXPECT_EQ(traced.cells[0].scenario, plain.cells[0].scenario);
  EXPECT_NE(traced.cells[0].key(), plain.cells[0].key());
  EXPECT_NE(sweep_cache_key(traced.cells[0], {}),
            sweep_cache_key(plain.cells[0], {}));
  // Untraced keys are unchanged from the pre-trace format, so existing
  // cache directories stay warm.
  EXPECT_EQ(plain.cells[0].key().find("trace"), std::string::npos);
}

TEST(TraceSeries, TracedSweepIdenticalAcrossSerialCacheAndFleet) {
  const char kPlan[] =
      "topology=path:{8,12},star:6; fault=receiver:0.25; "
      "protocols=decay,greedy; trials=2; seed=9; trace=1";
  const auto serial = run_plan(kPlan);

  SweepOptions cached;
  cached.cache_dir = scratch_dir("trace_cache");
  const auto cold = run_plan(kPlan, cached);
  const auto warm = run_plan(kPlan, cached);
  EXPECT_EQ(cold, serial);
  ASSERT_EQ(warm.cells.size(), serial.cells.size());
  for (std::size_t i = 0; i < warm.cells.size(); ++i) {
    EXPECT_TRUE(warm.cells[i].from_cache);
    EXPECT_EQ(warm.cells[i].experiment, serial.cells[i].experiment);
  }

  SweepOptions fleet;
  fleet.cache_dir = scratch_dir("trace_fleet");
  fleet.assignment = SweepAssignment::kFleet;
  const auto fleet_report = run_plan(kPlan, fleet);
  EXPECT_EQ(fleet_report, serial);
  EXPECT_EQ(shard_bytes(fleet_report), shard_bytes(serial));
  // Emitters differ only by the fleet-provenance comment/field; the data
  // (including every series row and fit) is byte-identical.
  auto strip_fleet = [](const std::string& text) {
    std::string out;
    std::istringstream lines(text);
    for (std::string line; std::getline(lines, line);)
      if (line.rfind("# fleet:", 0) != 0 &&
          line.find("\"fleet\": {") == std::string::npos)
        out += line + "\n";
    return out;
  };
  EXPECT_EQ(strip_fleet(sweep_csv_of(fleet_report)), sweep_csv_of(serial));
  EXPECT_EQ(strip_fleet(sweep_json_of(fleet_report)), sweep_json_of(serial));
}

TEST(TraceSeries, EmittersGateEverySeriesBlockOnPresence) {
  const char kTraced[] =
      "topology=path:10; fault=receiver:0.25; protocols=decay; trials=2; "
      "seed=4; trace=1";
  const char kPlain[] =
      "topology=path:10; fault=receiver:0.25; protocols=decay; trials=2; "
      "seed=4";
  const auto traced = run_plan(kTraced);
  const auto plain = run_plan(kPlain);

  std::ostringstream table;
  write_sweep_table(table, traced);
  EXPECT_NE(table.str().find("median r90"), std::string::npos);
  const auto csv = sweep_csv_of(traced);
  EXPECT_NE(csv.find(",median_r90"), std::string::npos);
  EXPECT_NE(csv.find("# series long format: cell,trial,round,metric,value"),
            std::string::npos);
  EXPECT_NE(csv.find("informed"), std::string::npos);
  EXPECT_NE(sweep_json_of(traced).find("\"series\""), std::string::npos);

  // The experiment-level emitters carry the same blocks...
  const auto& exp = traced.cells.at(0).experiment;
  EXPECT_NE(testutil::table_of(exp).find("r90"), std::string::npos);
  EXPECT_NE(testutil::csv_of(exp).find("# series long format"),
            std::string::npos);
  EXPECT_NE(testutil::json_of(exp).find("\"series\""), std::string::npos);

  // ... and none of it leaks into untraced reports (byte-compatible with
  // pre-v4 emitter output).
  std::ostringstream plain_table;
  write_sweep_table(plain_table, plain);
  EXPECT_EQ(plain_table.str().find("r90"), std::string::npos);
  const auto plain_csv = sweep_csv_of(plain);
  EXPECT_EQ(plain_csv.find("median_r90"), std::string::npos);
  EXPECT_EQ(plain_csv.find("# series"), std::string::npos);
  EXPECT_EQ(sweep_json_of(plain).find("\"series\""), std::string::npos);
}

TEST(TraceSeries, ConvergenceColumnsMatchTheInformedSeries) {
  const auto report = run_decay(/*trace=*/true, "path:12", /*trials=*/1);
  const auto& run = report.trials.at(0).run;
  const auto* informed = run.find_series("informed");
  ASSERT_NE(informed, nullptr);
  // Recompute r90 by hand and find it in the experiment table row.
  const double target = 0.9 * static_cast<double>(report.node_count);
  std::int64_t r90 = -1;
  for (std::size_t i = 0; i < informed->size(); ++i)
    if ((*informed)[i].as_real() >= target) {
      r90 = static_cast<std::int64_t>(i) + 1;
      break;
    }
  ASSERT_GT(r90, 0);
  EXPECT_NE(testutil::table_of(report).find(std::to_string(r90)),
            std::string::npos);
}

TEST(SweepFits, ReproducesDirectLogLinearFit) {
  // Four star sizes, one protocol: the report-layer regression must equal
  // fit_log_linear on (node counts, per-cell medians) to full precision --
  // the e7 acceptance bar is 1e-9.
  const auto report =
      run_plan("topology=star:{16,32,64,128}; fault=receiver:0.25; "
               "protocols=decay; trials=3; seed=13");
  const auto fits = sweep_fits(report);
  ASSERT_EQ(fits.size(), 2u);  // median_rounds and median_rpm for one group

  std::vector<double> xs, rounds, rpm;
  for (const auto& cell : report.cells) {
    const auto& exp = cell.experiment;
    xs.push_back(static_cast<double>(exp.node_count));
    rounds.push_back(exp.median_rounds());
    std::vector<double> trial_rpm;
    for (const auto& trial : exp.trials)
      trial_rpm.push_back(trial.run.rounds_per_message());
    rpm.push_back(quantile(trial_rpm, 0.5));
  }
  const auto direct_rounds = fit_log_linear(xs, rounds);
  const auto direct_rpm = fit_log_linear(xs, rpm);

  ASSERT_EQ(fits[0].metric, "median_rounds");
  EXPECT_EQ(fits[0].protocol, "decay");
  EXPECT_EQ(fits[0].fault, "receiver:0.25");
  EXPECT_EQ(fits[0].k, 1);
  EXPECT_EQ(fits[0].cells, 4);
  EXPECT_NEAR(fits[0].fit.slope, direct_rounds.slope, 1e-9);
  EXPECT_NEAR(fits[0].fit.intercept, direct_rounds.intercept, 1e-9);
  EXPECT_NEAR(fits[0].fit.r2, direct_rounds.r2, 1e-9);
  ASSERT_EQ(fits[1].metric, "median_rpm");
  EXPECT_NEAR(fits[1].fit.slope, direct_rpm.slope, 1e-9);
  EXPECT_NEAR(fits[1].fit.intercept, direct_rpm.intercept, 1e-9);

  // The CSV carries the coefficients at max_digits10, so a downstream
  // reader recovers them exactly; the JSON and table carry the same fit.
  const auto csv = sweep_csv_of(report);
  EXPECT_NE(csv.find("# fit: protocol=decay,fault=receiver:0.25,k=1,"
                     "metric=median_rounds,axis=nodes,model=log2,cells=4,"),
            std::string::npos);
  EXPECT_NE(sweep_json_of(report).find("\"fits\": ["), std::string::npos);
  std::ostringstream table;
  write_sweep_table(table, report);
  EXPECT_NE(table.str().find("fit decay | receiver:0.25 | k=1:"),
            std::string::npos);
}

TEST(SweepFits, NeedsThreeDistinctNodeCountsAndStaysOutOfSmallSweeps) {
  const auto two_sizes = run_plan(
      "topology=path:{8,16}; protocols=decay; trials=2; seed=2");
  EXPECT_TRUE(sweep_fits(two_sizes).empty());
  EXPECT_EQ(sweep_csv_of(two_sizes).find("# fit:"), std::string::npos);
  EXPECT_EQ(sweep_json_of(two_sizes).find("\"fits\""), std::string::npos);

  // Three distinct sizes unlock fits; groups are per (protocol, fault, k).
  const auto three = run_plan(
      "topology=path:{8,16,32}; protocols=decay,greedy; trials=2; seed=2");
  const auto fits = sweep_fits(three);
  ASSERT_EQ(fits.size(), 4u);  // 2 protocols x 2 metrics
  EXPECT_EQ(fits[0].protocol, "decay");
  EXPECT_EQ(fits[2].protocol, "greedy");
}

}  // namespace
}  // namespace nrn::sim
