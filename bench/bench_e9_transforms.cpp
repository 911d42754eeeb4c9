// E9/E10 (Lemmas 25/26): faultless schedules transform into fault-robust
// ones with throughput tau(1-p).
//
// Each table is one SweepPlan over the registry's transform-routing /
// transform-coding protocols (the star and path-pipeline base schedules
// are selected by the scenario's topology, k is the base message count);
// the bench only formats the resulting grid.
#include <cmath>

#include "bench_common.hpp"
#include "core/transforms.hpp"

namespace {

using namespace nrn;

// The protocols pick x = 64 and eta = recommended_transform_eta(p) when the
// tuning leaves them unset; the target columns use the same eta.
double target_throughput(double tau, double p) {
  return tau * (1.0 - p) / (1.0 + core::recommended_transform_eta(p));
}

}  // namespace

int main(int argc, char** argv) {
  const auto seed = bench::seed_from_args(argc, argv);
  const std::string common = " k=8; trials=3; seed=" + std::to_string(seed);
  // The pipeline base's finite-k throughput: k0 / rounds = 8 / (3*7+12).
  const double tau_pipeline = 8.0 / (3.0 * 7 + 12);

  {
    TableWriter t(
        "E9a  Lemma 25: routing transform under sender faults "
        "(star base, tau = 1)",
        {"p", "measured throughput", "tau(1-p)/(1+eta)", "ratio", "success"});
    t.add_note("seed: " + std::to_string(seed) +
               ", x = 64, eta = 0.25 (0.5 for p >= 0.5)");
    const auto report = bench::run_sweep(
        "topology=star:16; protocols=transform-routing; "
        "fault=none,sender:{0.2,0.4,0.6,0.8};" + common);
    for (const auto& cell : report.cells) {
      const double p = cell.experiment.scenario.channel.effective_loss();
      const auto row = bench::throughput_of(cell.experiment);
      const double target = target_throughput(1.0, p);
      t.add_row({fmt(p, 1), fmt(row.throughput, 3), fmt(target, 3),
                 fmt(row.throughput > 0 ? row.throughput / target : 0.0, 2),
                 verdict(row.success)});
    }
    t.print(std::cout);
  }

  {
    TableWriter t(
        "E9b  Lemma 25 on the path pipeline base (tau = 1/3), sender faults",
        {"p", "measured throughput", "tau(1-p)/(1+eta)", "ratio", "success"});
    const auto report = bench::run_sweep(
        "topology=path:12; protocols=transform-routing; "
        "fault=none,sender:{0.2,0.4,0.6};" + common);
    for (const auto& cell : report.cells) {
      const double p = cell.experiment.scenario.channel.effective_loss();
      const auto row = bench::throughput_of(cell.experiment);
      const double target = target_throughput(tau_pipeline, p);
      t.add_row({fmt(p, 1), fmt(row.throughput, 3), fmt(target, 3),
                 fmt(row.throughput > 0 ? row.throughput / target : 0.0, 2),
                 verdict(row.success)});
    }
    t.print(std::cout);
  }

  {
    TableWriter t(
        "E10  Lemma 26: coding transform (path pipeline base) under BOTH "
        "fault models",
        {"fault model", "p", "measured throughput", "target", "success"});
    t.add_note("the coding transform needs no adaptivity, so it survives "
               "receiver faults too -- the routing transform does not");
    const auto report = bench::run_sweep(
        "topology=path:12; protocols=transform-coding; "
        "fault=sender:{0.2,0.5},receiver:{0.2,0.5};" + common);
    for (const auto& cell : report.cells) {
      const auto& fault = cell.experiment.scenario.channel;
      const double p = fault.effective_loss();
      const auto row = bench::throughput_of(cell.experiment);
      // "sender:0.2" -> "sender": the spec text names the model.
      const std::string& spec = cell.experiment.scenario.fault_text;
      t.add_row({spec.substr(0, spec.find(':')),
                 fmt(p, 1), fmt(row.throughput, 3),
                 fmt(target_throughput(tau_pipeline, p), 3),
                 verdict(row.success)});
    }
    t.print(std::cout);
  }
  return 0;
}
