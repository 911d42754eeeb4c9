// Fleet sweep mode: cache-probing cell assignment with claim files.
// Covers the issue's acceptance criteria: two concurrent fleet runners
// over one cache directory merge bit-identically to the serial sweep, a
// killed run resumes recomputing only unfinished cells (asserted via the
// claimed/stolen/skipped counters), and stale claims are stolen.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "sim_test_util.hpp"

namespace nrn::sim {
namespace {

namespace fs = std::filesystem;

using testutil::shard_bytes;
using testutil::sweep_csv_of;
using testutil::sweep_json_of;

// Heterogeneous on purpose: gnp and grid cells cost visibly different
// amounts, which is what dynamic claiming is for.
const char kFleetPlan[] =
    "topology=path:{8,12},gnp:16:0.3; fault=none,receiver:0.3; "
    "protocols=decay,greedy; trials=3; seed=21";

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

SweepOptions fleet_options(const std::string& dir) {
  SweepOptions options;
  options.cache_dir = dir;
  options.assignment = SweepAssignment::kFleet;
  options.fleet_poll_ms = 1;
  return options;
}

TEST(FleetSweep, ColdFleetRunMatchesSerialAndCountsClaims) {
  const auto serial = run_plan(kFleetPlan);
  const auto dir = scratch_dir("fcold");
  const auto fleet = run_plan(kFleetPlan, fleet_options(dir));
  EXPECT_TRUE(fleet.complete());
  EXPECT_EQ(fleet, serial);
  EXPECT_EQ(shard_bytes(fleet), shard_bytes(serial));
  EXPECT_TRUE(fleet.fleet.active);
  EXPECT_EQ(fleet.fleet.claimed, static_cast<int>(serial.cells.size()));
  EXPECT_EQ(fleet.fleet.stolen, 0);
  EXPECT_EQ(fleet.fleet.skipped, 0);
  // No claim markers survive a completed run.
  for (const auto& entry : fs::directory_iterator(dir))
    EXPECT_NE(entry.path().extension(), ".claim") << entry.path();
}

TEST(FleetSweep, RequiresCacheDirAndNoStaticShard) {
  SweepOptions no_cache;
  no_cache.assignment = SweepAssignment::kFleet;
  EXPECT_THROW(run_plan(kFleetPlan, no_cache), ContractViolation);
  SweepOptions sharded = fleet_options(scratch_dir("fshard"));
  sharded.shard_count = 2;
  sharded.shard_index = 0;
  EXPECT_THROW(run_plan(kFleetPlan, sharded), ContractViolation);
}

TEST(FleetSweep, TwoConcurrentRunnersMergeBitIdenticalToSerial) {
  const auto serial = run_plan(kFleetPlan);
  const auto dir = scratch_dir("fconc");
  // Two runners race over one cache directory from different threads;
  // O_EXCL claim creation is atomic across threads exactly as it is
  // across processes, so this exercises the same claim protocol the CI
  // job drives with two nrn_sim processes.
  std::vector<SweepReport> fleet(2);
  {
    std::thread other([&] {
      SweepOptions options = fleet_options(dir);
      options.cell_threads = 2;
      fleet[1] = run_plan(kFleetPlan, options);
    });
    SweepOptions options = fleet_options(dir);
    options.cell_threads = 2;
    fleet[0] = run_plan(kFleetPlan, options);
    other.join();
  }
  // Every runner emits a complete report; the overlapping merge equals
  // the serial run bit for bit, in every serialization.
  for (const auto& report : fleet) {
    EXPECT_TRUE(report.complete());
    EXPECT_EQ(report, serial);
  }
  const auto merged = merge_sweep_reports(fleet);
  EXPECT_EQ(merged, serial);
  EXPECT_EQ(shard_bytes(merged), shard_bytes(serial));
  EXPECT_EQ(sweep_csv_of(merged), sweep_csv_of(serial));
  EXPECT_EQ(sweep_json_of(merged), sweep_json_of(serial));
  // Work was partitioned dynamically: each cell computed at least once,
  // and cells one runner computed were cache-skips for the other.
  const int computed = fleet[0].fleet.claimed + fleet[0].fleet.stolen +
                       fleet[1].fleet.claimed + fleet[1].fleet.stolen;
  EXPECT_GE(computed, static_cast<int>(serial.cells.size()));
  EXPECT_EQ(fleet[0].fleet.claimed + fleet[0].fleet.skipped +
                fleet[0].fleet.stolen,
            static_cast<int>(serial.cells.size()));
}

TEST(FleetSweep, KilledRunResumesRecomputingOnlyUnfinishedCells) {
  const auto dir = scratch_dir("fkill");
  const auto first = run_plan(kFleetPlan, fleet_options(dir));

  // Simulate a mid-grid kill: drop some cells' cache entries (a killed
  // process leaves exactly this state -- stored cells survive, running
  // ones never land; its claims are handled by the stale-expiry test).
  const auto plan = SweepPlan::parse(kFleetPlan);
  const ResultCache cache(dir);
  int dropped = 0;
  for (std::size_t i = 0; i < plan.cells.size(); i += 3) {
    fs::remove(cache.entry_path(sweep_cache_key(plan.cells[i], {})));
    ++dropped;
  }
  ASSERT_GT(dropped, 0);

  const auto resumed = run_plan(kFleetPlan, fleet_options(dir));
  EXPECT_EQ(resumed, first);
  EXPECT_EQ(resumed.fleet.claimed, dropped);  // only the missing cells ran
  EXPECT_EQ(resumed.fleet.skipped,
            static_cast<int>(plan.cells.size()) - dropped);
  EXPECT_EQ(resumed.fleet.stolen, 0);

  // A third invocation finds a fully warm cache and computes nothing.
  const auto warm = run_plan(kFleetPlan, fleet_options(dir));
  EXPECT_EQ(warm.fleet.claimed, 0);
  EXPECT_EQ(warm.fleet.skipped, static_cast<int>(plan.cells.size()));
}

TEST(FleetSweep, StaleClaimsAreStolenFreshOnesRespected) {
  const auto dir = scratch_dir("fstale");
  const auto plan = SweepPlan::parse(kFleetPlan);
  const ResultCache cache(dir);
  const auto key0 = sweep_cache_key(plan.cells[0], {});

  // Claim API: exclusive create, TTL-gated steal, release.
  EXPECT_TRUE(cache.try_claim(key0));
  EXPECT_FALSE(cache.try_claim(key0));                  // held
  EXPECT_FALSE(cache.steal_stale_claim(key0, 3600.0));  // fresh
  EXPECT_TRUE(cache.steal_stale_claim(key0, 0.0));      // expired by ttl=0
  EXPECT_FALSE(cache.steal_stale_claim(key0, 0.0));     // already gone
  EXPECT_TRUE(cache.try_claim(key0));
  cache.release_claim(key0);
  EXPECT_TRUE(cache.try_claim(key0));
  cache.release_claim(key0);

  // A dead worker's claim (no process will ever release it) must not
  // block the fleet once the TTL expires: the runner steals and computes.
  ASSERT_TRUE(cache.try_claim(key0));
  SweepOptions options = fleet_options(dir);
  options.claim_ttl_seconds = 0.0;
  const auto report = run_plan(kFleetPlan, options);
  EXPECT_EQ(report, run_plan(kFleetPlan));
  EXPECT_EQ(report.fleet.stolen, 1);
  EXPECT_EQ(report.fleet.claimed, static_cast<int>(plan.cells.size()) - 1);
}

TEST(FleetSweep, UnclaimableDirectoryFailsLoudlyInsteadOfPolling) {
  // Only EEXIST means "a peer holds the claim"; any other claim-create
  // failure must throw, or a fleet pointed at a broken shared mount would
  // spin in its poll loop forever with no diagnostic.
  const auto dir = scratch_dir("fbroken");
  const ResultCache cache(dir);
  const auto plan = SweepPlan::parse(kFleetPlan);
  const auto key = sweep_cache_key(plan.cells[0], {});
  fs::remove_all(dir);  // the directory vanishes under the fleet
  EXPECT_THROW(cache.try_claim(key), SpecError);
}

TEST(FleetSweep, ResumeRebuildsFromWarmCacheWithoutComputing) {
  const auto dir = scratch_dir("fresume");
  const auto serial = run_plan(kFleetPlan);

  SweepOptions resume;
  resume.cache_dir = dir;
  resume.assignment = SweepAssignment::kResume;
  // Cold cache: resume has nothing to rebuild from and must say so.
  EXPECT_THROW(run_plan(kFleetPlan, resume), SpecError);

  run_plan(kFleetPlan, fleet_options(dir));  // warm it
  const auto rebuilt = run_plan(kFleetPlan, resume);
  EXPECT_EQ(rebuilt, serial);
  EXPECT_EQ(shard_bytes(rebuilt), shard_bytes(serial));
  EXPECT_TRUE(rebuilt.fleet.active);
  EXPECT_EQ(rebuilt.fleet.skipped, static_cast<int>(serial.cells.size()));
  EXPECT_EQ(rebuilt.cache_hits(), static_cast<int>(serial.cells.size()));

  // Partially warm cache: resume refuses rather than silently recomputing.
  const auto plan = SweepPlan::parse(kFleetPlan);
  const ResultCache cache(dir);
  fs::remove(cache.entry_path(sweep_cache_key(plan.cells[2], {})));
  EXPECT_THROW(run_plan(kFleetPlan, resume), SpecError);
}

TEST(FleetSweep, CountersSurfaceInAllThreeEmittersOnlyWhenActive) {
  const auto dir = scratch_dir("femit");
  const auto fleet = run_plan(kFleetPlan, fleet_options(dir));
  const auto serial = run_plan(kFleetPlan);

  std::ostringstream table;
  write_sweep_table(table, fleet);
  EXPECT_NE(table.str().find("fleet: claimed"), std::string::npos);

  const auto csv = sweep_csv_of(fleet);
  EXPECT_NE(csv.find("# fleet: claimed="), std::string::npos);
  const auto json = sweep_json_of(fleet);
  EXPECT_NE(json.find("\"fleet\": {\"claimed\": "), std::string::npos);

  // Static runs emit no fleet block at all, and stripping the fleet
  // comment from a fleet CSV yields the serial CSV byte-for-byte.
  EXPECT_EQ(sweep_csv_of(serial).find("# fleet:"), std::string::npos);
  EXPECT_EQ(sweep_json_of(serial).find("\"fleet\""), std::string::npos);
  std::string stripped;
  std::istringstream lines(csv);
  for (std::string line; std::getline(lines, line);)
    if (line.rfind("# fleet:", 0) != 0) stripped += line + "\n";
  EXPECT_EQ(stripped, sweep_csv_of(serial));
}

}  // namespace
}  // namespace nrn::sim
