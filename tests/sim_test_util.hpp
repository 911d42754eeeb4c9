// Shared scaffolding for the sim-layer tests (scenario, registry, driver,
// sweep, report): the one place the ad-hoc builders and emitter-to-string
// helpers live, so individual test files stop re-rolling them.
#pragma once

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/sim.hpp"

namespace nrn::sim::testutil {

/// The sorted names register_builtin_protocols installs.
inline const std::vector<std::string>& builtin_names() {
  static const std::vector<std::string> names = {
      "decay",
      "erasure-decay",
      "fastbc",
      "greedy",
      "pipeline",
      "rlnc-decay",
      "rlnc-decay-verified",
      "rlnc-robust",
      "rlnc-robust-verified",
      "robust",
  };
  return names;
}

/// The sorted names register_schedule_protocols installs.
inline const std::vector<std::string>& schedule_names() {
  static const std::vector<std::string> names = {
      "link-adaptive",     "link-coding",       "link-nonadaptive",
      "star-adaptive",     "star-coding",       "star-nonadaptive",
      "transform-coding",  "transform-routing", "wct-coding",
      "wct-unique-probe",
  };
  return names;
}

/// A scenario every registered protocol can run: topology-restricted
/// protocol families get a matching topology, the rest run on a grid.
inline Scenario scenario_for(const std::string& name) {
  if (name.rfind("link", 0) == 0)
    return Scenario::parse("link", "receiver:0.3", 0, 2, 321);
  if (name.rfind("wct", 0) == 0)
    return Scenario::parse("wct:16:2:6:2", "receiver:0.3", 0, 2, 321);
  if (name.rfind("star", 0) == 0 || name.rfind("transform", 0) == 0)
    return Scenario::parse("star:24", "receiver:0.3", 0, 2, 321);
  return Scenario::parse("grid:6x6", "combined:0.2:0.3", 0, 2, 321);
}

/// Parses a topology spec and materializes its graph from `seed`.
inline graph::Graph build_topology(const std::string& spec,
                                   std::uint64_t seed = 1) {
  Rng rng(seed);
  return TopologySpec::parse(spec).build(rng);
}

/// A scenario plus its materialized graph and tuning, bundled so tests can
/// hand a ProtocolContext to factories without repeating the boilerplate.
struct ScenarioFixture {
  Scenario scenario;
  graph::Graph graph;
  Tuning tuning;

  explicit ScenarioFixture(Scenario scenario_in, Tuning tuning_in = {})
      : scenario(std::move(scenario_in)),
        graph(scenario.build_graph()),
        tuning(tuning_in) {}

  explicit ScenarioFixture(const std::string& topology,
                           const std::string& fault = "none",
                           graph::NodeId source = 0, std::int64_t k = 1,
                           std::uint64_t seed = 1, Tuning tuning_in = {})
      : ScenarioFixture(Scenario::parse(topology, fault, source, k, seed),
                        tuning_in) {}

  ProtocolContext context() const { return {graph, scenario, tuning}; }
};

// Emitters rendered to strings, for golden and equivalence checks.
inline std::string csv_of(const ExperimentReport& report) {
  std::ostringstream out;
  write_csv(out, report);
  return out.str();
}

inline std::string json_of(const ExperimentReport& report) {
  std::ostringstream out;
  write_json(out, report);
  return out.str();
}

inline std::string table_of(const ExperimentReport& report) {
  std::ostringstream out;
  write_table(out, report);
  return out.str();
}

inline std::string sweep_csv_of(const SweepReport& report) {
  std::ostringstream out;
  write_sweep_csv(out, report);
  return out.str();
}

inline std::string sweep_json_of(const SweepReport& report) {
  std::ostringstream out;
  write_sweep_json(out, report);
  return out.str();
}

/// The exact bytes of a report's shard-file serialization.
inline std::string shard_bytes(const SweepReport& report) {
  std::ostringstream out;
  write_shard_file(out, report);
  return out.str();
}

}  // namespace nrn::sim::testutil
