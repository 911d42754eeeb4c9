// Golden-file regression tests for the CSV/JSON emitters: a fixed seed and
// a small plan against checked-in expected output, so emitter refactors
// cannot silently change the report formats external tooling parses.
//
// To regenerate after an INTENTIONAL format change:
//   NRN_UPDATE_GOLDEN=1 ./test_report_golden
// and commit the rewritten files under tests/golden/.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "sim_test_util.hpp"

namespace nrn::sim {
namespace {

std::string golden_path(const std::string& name) {
  return std::string(NRN_TEST_DATA_DIR) + "/golden/" + name;
}

void check_golden(const std::string& name, const std::string& actual) {
  const auto path = golden_path(name);
  if (std::getenv("NRN_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << actual;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << path
                  << " (regenerate with NRN_UPDATE_GOLDEN=1)";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str())
      << "emitter output drifted from " << path
      << "; if intentional, regenerate with NRN_UPDATE_GOLDEN=1";
}

ExperimentReport fixed_experiment() {
  const auto scenario = Scenario::parse("path:12", "receiver:0.25", 0, 1, 5);
  return Driver().run(scenario, "decay", 3);
}

SweepReport fixed_sweep() {
  const auto plan = SweepPlan::parse(
      "topology=path:12,star:8; fault=none,receiver:0.25; "
      "protocols=decay,greedy; trials=2; seed=99");
  return SweepRunner().run(plan);
}

TEST(GoldenFiles, ExperimentCsv) {
  check_golden("experiment_decay_path12.csv",
               testutil::csv_of(fixed_experiment()));
}

TEST(GoldenFiles, ExperimentJson) {
  check_golden("experiment_decay_path12.json",
               testutil::json_of(fixed_experiment()));
}

/// Every coded protocol (RLNC over both patterns, their payload-verified
/// variants and the RS erasure variant) under each fault kind and several
/// k: pins the coin tape, ranks and decodes of the GF(2^8) coding layer.
SweepReport coded_sweep() {
  const auto plan = SweepPlan::parse(
      "topology=path:24,grid:5x5,gnp:40:0.2; "
      "fault=none,sender:0.3,receiver:0.3; "
      "protocols=rlnc-decay,rlnc-robust,rlnc-decay-verified,"
      "rlnc-robust-verified,erasure-decay; k=1,4,8; trials=2; seed=17");
  return SweepRunner().run(plan);
}

TEST(GoldenFiles, CodedSweepCsv) {
  check_golden("sweep_coded.csv", testutil::sweep_csv_of(coded_sweep()));
}

/// Every schedule-level protocol on the topologies it schedules, under each
/// fault kind: the star and transform schedules on stars, the Appendix A
/// link schedules for one and many messages, the transforms' path base
/// schedule and the WCT schedules.  One sweep per topology family, their
/// CSVs concatenated in plan order.
std::string schedule_sweeps_csv() {
  const std::string common =
      "fault=none,receiver:0.3,sender:0.3; trials=2; seed=23";
  std::string csv;
  for (const std::string plan : {
           "topology=star:{16,64}; protocols=star-adaptive,star-nonadaptive,"
           "star-coding,transform-routing,transform-coding; k=4; ",
           "topology=link; protocols=link-nonadaptive,link-adaptive,"
           "link-coding; k=1,16; ",
           "topology=path:12; protocols=transform-routing,transform-coding; "
           "k=4; ",
           "topology=wct:16:2:6:2; protocols=wct-coding,wct-unique-probe; "
           "k=4; ",
       })
    csv += testutil::sweep_csv_of(
        SweepRunner().run(SweepPlan::parse(plan + common)));
  return csv;
}

TEST(GoldenFiles, ScheduleSweepCsv) {
  check_golden("sweep_schedules.csv", schedule_sweeps_csv());
}

TEST(GoldenFiles, SweepCsv) {
  check_golden("sweep_small.csv", testutil::sweep_csv_of(fixed_sweep()));
}

TEST(GoldenFiles, SweepJson) {
  check_golden("sweep_small.json", testutil::sweep_json_of(fixed_sweep()));
}

/// A report whose string fields are deliberately hostile to JSON: quotes,
/// backslashes, newlines, tabs, and raw control bytes -- everything the
/// old escaper (quotes and backslashes only) passed through verbatim,
/// producing unparseable output.  Built by hand because the spec parsers
/// rightly reject such strings; the emitters still must never emit
/// invalid JSON for any in-memory report.
ExperimentReport hostile_experiment() {
  auto report = Driver().run(
      Scenario::parse("path:4", "none", 0, 1, 7), "decay", 1);
  report.protocol = "decay\n\"quoted\"\\back\x01slash";
  report.scenario.topology.text = "path:4\twith\ttabs\x1f";
  report.scenario.fault_text = "none\r\n\x07" "bell";  // 0x07: BEL
  // A real-valued metric that needs all 17 significant digits.
  report.trials.at(0).run.metrics.emplace("fraction",
                                          MetricValue(1.0 / 3.0));
  return report;
}

TEST(GoldenFiles, HostileStringsEmitValidJson) {
  const auto report = hostile_experiment();
  const auto json = testutil::json_of(report);
  check_golden("experiment_hostile.json", json);
  // No raw control byte may survive into the emitted document: inside
  // strings it is illegal JSON, and the emitter writes none elsewhere
  // except its own structural newlines.
  for (const char c : json)
    EXPECT_TRUE(static_cast<unsigned char>(c) >= 0x20 || c == '\n')
        << "raw control byte 0x" << std::hex
        << static_cast<int>(static_cast<unsigned char>(c));
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_NE(json.find("\\t"), std::string::npos);
  EXPECT_NE(json.find("\\u0001"), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
  // max_digits10 reals round-trip: 1/3 keeps all 17 digits.
  EXPECT_NE(json.find("0.33333333333333331"), std::string::npos);
}

TEST(GoldenFiles, ShardFileFormat) {
  // The shard/merge hand-off format is an interchange format too: sharded
  // production runs from different build timestamps must stay mergeable.
  check_golden("sweep_small.nrns", testutil::shard_bytes(fixed_sweep()));
}

}  // namespace
}  // namespace nrn::sim
