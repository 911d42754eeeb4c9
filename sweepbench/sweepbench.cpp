// End-to-end sweep benchmark: one workload's sweep plans through the
// library's public API, in one process.
//
//   sweepbench --workload NAME --seed N --seconds S --trace 0|1
//              --workdir DIR [--spans-out FILE] [--reduced]
//              [--corrupt flip|tamper]
//
// --trace 0 measures the end-to-end metrics with no spans recorded:
//   setup_s        registry + plan parse + cache dir + daemon bind (fastest
//                  of repeated set-ups)
//   sweep_s        cold SweepRunner::run into an empty cache (median pass)
//   warm_s         kResume from the warm cache + CSV and JSON emit (fastest)
//   serve_s        submit-to-report through an in-process SweepServer
//                  (fastest)
//   peak_rss_mb    peak RSS of this process (one workload per process)
//   completed_frac completed / attempted trials of the cold sweep
// --trace 1 is a separate run that times each layer's public calls from
// outside and derives the per-layer metrics from the recorded spans.
//
// Every run applies the correctness gate: cold, warm-resume and served
// reports must equal the reference cold report cell for cell, and every
// cell must survive the experiment_record round trip.  The last stdout
// line is the JSON result; the exit code is 3 when the gate failed.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "graph/algorithms.hpp"
#include "radio/network.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "sim/driver.hpp"
#include "sim/registry.hpp"
#include "sim/report.hpp"
#include "sim/sweep.hpp"
#include "sim/sweep_runner.hpp"
#include "spans.hpp"

namespace {

namespace fs = std::filesystem;
using namespace nrn;
using sweepbench::Clock;
using sweepbench::seconds_between;
using sweepbench::SpanRecorder;

// ------------------------------------------------------------- workloads

// Plan texts without their seed clause; the run appends "; seed=N".
std::vector<std::string> workload_plans(const std::string& name,
                                        bool reduced) {
  if (name == "geo-large") {
    // Decay on large disk graphs: the O(n^2) geometric build and the scalar
    // sparse/dense and SINR kernels.  SINR needs fault=none: two plans.
    if (reduced)
      return {"topology=disk:{300,600}:0.12; protocols=decay; "
              "fault=receiver:{0.1,0.4}; trials=2",
              "topology=disk:{300,600}:0.12; protocols=decay; "
              "channel=sinr:3:1e-6:1.5; trials=2"};
    return {"topology=disk:{5000,10000}:0.042; protocols=decay; "
            "fault=receiver:{0.1,0.4}; trials=2",
            "topology=disk:{5000,10000}:0.042; protocols=decay; "
            "channel=sinr:3:1e-6:1.5; trials=2"};
  }
  if (name == "lockstep-small") {
    // Many small cells of steppable protocols: the lockstep bank, protocol
    // construction, and the cache / emit / serve paths.
    if (reduced)
      return {"topology=gnp:64:0.1,grid:6x6; protocols=decay,fastbc; "
              "fault=none,receiver:0.2; trials=8",
              "topology=disk:80:0.25; protocols=decay,robust; "
              "channel=sinr:3:1e-6:1.5; trials=8"};
    return {"topology=gnp:256:{0.03,0.06},grid:16x16,disk:400:0.12; "
            "protocols=decay,fastbc,robust; "
            "fault=none,receiver:{0.1,0.3},sender:0.2; trials=64",
            "topology=disk:400:0.12; protocols=decay,fastbc,robust; "
            "channel=sinr:3:1e-6:1.5; trials=64"};
  }
  if (name == "coding-k") {
    // Multi-message coded protocols: GF/RS/RLNC arithmetic, the scalar run
    // loops of non-stepper protocols, the adjacent kernel on path cells.
    if (reduced)
      return {"topology=grid:4x4,path:16; "
              "protocols=rlnc-decay,erasure-decay,greedy,pipeline; "
              "k={2,4}; fault=receiver:0.2; trials=2"};
    return {"topology=grid:12x12,gnp:128:0.1,path:128; "
            "protocols=rlnc-decay,erasure-decay,greedy,pipeline; "
            "k={8,32}; fault=receiver:0.2; trials=4"};
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

// --------------------------------------------------------------- options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool reduced = false;
  std::string workdir;
  std::string spans_out;
  std::string corrupt;  ///< "", "flip" or "tamper"
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "sweepbench: " << why
            << "\nusage: sweepbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --workdir DIR [--spans-out FILE] [--reduced] "
               "[--corrupt flip|tamper]\n";
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") opt.workload = value();
      else if (arg == "--seed") opt.seed = std::stoull(value());
      else if (arg == "--seconds") opt.seconds = std::stod(value());
      else if (arg == "--trace") opt.trace = value() == "1";
      else if (arg == "--workdir") opt.workdir = value();
      else if (arg == "--spans-out") opt.spans_out = value();
      else if (arg == "--reduced") opt.reduced = true;
      else if (arg == "--corrupt") opt.corrupt = value();
      else usage("unknown argument '" + arg + "'");
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  if (opt.workdir.empty()) usage("--workdir is required");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  if (!opt.corrupt.empty() && opt.corrupt != "flip" && opt.corrupt != "tamper")
    usage("--corrupt takes flip or tamper");
  return opt;
}

// ------------------------------------------------------------ statistics

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

/// Calls `body` (which returns the seconds it measured) at least
/// `min_reps` times and until `budget_s` has passed.
template <class Body>
std::vector<double> repeat_for(double budget_s, int min_reps, Body&& body) {
  constexpr std::size_t kMaxReps = 200000;
  std::vector<double> samples;
  const auto start = Clock::now();
  while (samples.size() < kMaxReps &&
         (static_cast<int>(samples.size()) < min_reps ||
          seconds_between(start, Clock::now()) < budget_s))
    samples.push_back(body());
  return samples;
}

template <class Body>
double time_call(Body&& body) {
  const auto start = Clock::now();
  body();
  return seconds_between(start, Clock::now());
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::string note;
};

// ------------------------------------------------------------------ gate

/// Counts cells checked and cells that mismatched or threw.
struct Gate {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool reported_throw = false;

  void compare(const std::vector<sim::SweepReport>& expected,
               const std::vector<sim::SweepReport>& got) {
    for (std::size_t p = 0; p < expected.size(); ++p) {
      const sim::SweepReport& want = expected[p];
      const auto cells = static_cast<std::int64_t>(want.cells.size());
      attempted += cells;
      if (p >= got.size() || got[p].plan_text != want.plan_text ||
          got[p].master_seed != want.master_seed ||
          got[p].total_cells != want.total_cells ||
          got[p].cells.size() != want.cells.size()) {
        failed += cells;
        continue;
      }
      for (std::size_t c = 0; c < want.cells.size(); ++c)
        if (!(got[p].cells[c] == want.cells[c])) ++failed;
    }
  }

  void threw(const std::vector<sim::SweepPlan>& plans, const char* what) {
    for (const auto& plan : plans) {
      attempted += static_cast<std::int64_t>(plan.cells.size());
      failed += static_cast<std::int64_t>(plan.cells.size());
    }
    if (!reported_throw)
      std::cerr << "sweepbench: gate: " << what << "\n";
    reported_throw = true;
  }

  void round_trip(const std::vector<sim::SweepReport>& reports) {
    for (const auto& report : reports)
      for (const auto& cell : report.cells) {
        ++attempted;
        try {
          if (!(sim::parse_experiment_record(
                    sim::experiment_record(cell.experiment)) ==
                cell.experiment))
            ++failed;
        } catch (const std::exception&) {
          ++failed;
        }
      }
  }
};

// ------------------------------------------------------------ the layers

void build_registry(sim::ProtocolRegistry& registry) {
  sim::register_builtin_protocols(registry);
  sim::register_schedule_protocols(registry);
}

std::vector<sim::SweepPlan> parse_plans(const std::vector<std::string>& texts) {
  std::vector<sim::SweepPlan> plans;
  plans.reserve(texts.size());
  for (const auto& text : texts) plans.push_back(sim::SweepPlan::parse(text));
  return plans;
}

std::vector<sim::SweepReport> run_plans(const sim::ProtocolRegistry& registry,
                                        const std::vector<sim::SweepPlan>& plans,
                                        const sim::SweepOptions& options) {
  const sim::SweepRunner runner(registry);
  std::vector<sim::SweepReport> reports;
  reports.reserve(plans.size());
  for (const auto& plan : plans) reports.push_back(runner.run(plan, options));
  return reports;
}

sim::SweepOptions cold_options(const fs::path& cache_dir) {
  sim::SweepOptions options;
  options.cache_dir = cache_dir.string();
  return options;
}

sim::SweepOptions resume_options(const fs::path& cache_dir) {
  sim::SweepOptions options = cold_options(cache_dir);
  options.assignment = sim::SweepAssignment::kResume;
  return options;
}

std::size_t emit_reports(const std::vector<sim::SweepReport>& reports) {
  std::ostringstream csv, json;
  for (const auto& report : reports) {
    sim::write_sweep_csv(csv, report);
    sim::write_sweep_json(json, report);
  }
  return csv.str().size() + json.str().size();
}

/// An in-process serve daemon on a unix socket, its poll loop on a thread.
class Daemon {
 public:
  Daemon(const sim::ProtocolRegistry& registry, serve::ServerOptions options)
      : server_(registry, std::move(options)), loop_([this] { server_.run(); }) {}
  ~Daemon() {
    server_.request_stop();
    loop_.join();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& socket_path() const { return server_.socket_path(); }

 private:
  serve::SweepServer server_;
  std::thread loop_;
};

serve::ServerOptions daemon_options(const fs::path& dir,
                                    const fs::path& cache_dir) {
  serve::ServerOptions options;
  options.socket_path = (dir / "d.sock").string();
  options.cache_dir = cache_dir.string();
  return options;
}

struct Served {
  std::vector<sim::SweepReport> reports;
  std::size_t wire_bytes = 0;
  int cached_cells = 0;
};

/// Submits each plan over `client` and waits for its final report.
Served submit_plans(serve::LineClient& client,
                    const std::vector<sim::SweepPlan>& plans) {
  Served served;
  for (const auto& plan : plans) {
    const serve::Message request =
        serve::Message("submit").set("plan", plan.text);
    served.wire_bytes += request.serialize().size() + 1;
    client.send(request);
    std::optional<int> plan_id;
    while (true) {
      const auto reply = client.recv();
      if (!reply) throw std::runtime_error("daemon closed the connection");
      served.wire_bytes += reply->serialize().size() + 1;
      const std::string& type = reply->type();
      if (type == "accepted") {
        plan_id = static_cast<int>(reply->integer("plan"));
      } else if (type == "plan_done" && plan_id &&
                 reply->integer("plan") == *plan_id) {
        served.cached_cells += static_cast<int>(reply->integer("cached"));
        std::istringstream in(reply->str("report"));
        served.reports.push_back(sim::read_shard_file(in));
        break;
      } else if (type == "plan_failed" || type == "error") {
        throw std::runtime_error("daemon: " + reply->serialize());
      }
    }
  }
  return served;
}

/// Damages the warm cache entry of the first cell (selftest only): "flip"
/// overwrites bytes so the checksum fails, "tamper" stores a report whose
/// first trial lost a round, which the cache cannot detect.
void corrupt_cache(const std::string& mode, const fs::path& cache_dir,
                   const sim::SweepPlan& plan,
                   const sim::SweepReport& reference) {
  const sim::ResultCache cache(cache_dir.string());
  const std::string key = sim::sweep_cache_key(plan.cells.at(0), sim::Tuning{});
  if (mode == "flip") {
    std::fstream file(cache.entry_path(key),
                      std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(static_cast<std::streamoff>(fs::file_size(cache.entry_path(key)) / 2));
    file.write("####", 4);
  } else {
    sim::ExperimentReport tampered = reference.cells.at(0).experiment;
    auto& run = tampered.trials.at(0).run;
    run.set("rounds", sim::MetricValue(run.rounds() + 1));
    cache.store(key, tampered);
  }
}

// ----------------------------------------------------------------- setup

struct SetupTimes {
  double registry = 0.0;
  double parse = 0.0;
  double cache_dir = 0.0;
  double bind = 0.0;
  double total() const { return registry + parse + cache_dir + bind; }
};

/// One full set-up, each step timed; `spans` (optional) records it.
SetupTimes set_up_once(const std::vector<std::string>& plan_texts,
                       const fs::path& dir, SpanRecorder* spans) {
  SetupTimes t;
  const int root = spans ? spans->open("setup") : -1;
  auto step = [&](const char* name, auto&& body) {
    const auto start = Clock::now();
    const int id = spans ? spans->open(name, root) : -1;
    body();
    if (spans) spans->close(id);
    return seconds_between(start, Clock::now());
  };
  sim::ProtocolRegistry registry;
  std::vector<sim::SweepPlan> plans;
  std::optional<sim::ResultCache> cache;
  std::unique_ptr<serve::SweepServer> server;
  t.registry = step("setup.registry", [&] { build_registry(registry); });
  t.parse = step("sim.parse", [&] { plans = parse_plans(plan_texts); });
  t.cache_dir = step("setup.cache_dir",
                     [&] { cache.emplace((dir / "cache").string()); });
  t.bind = step("setup.bind", [&] {
    server = std::make_unique<serve::SweepServer>(
        registry, daemon_options(dir, dir / "cache"));
  });
  if (spans) spans->close(root);
  server.reset();
  fs::remove_all(dir);
  return t;
}

// ------------------------------------------------------------- the runs

struct RunResult {
  std::vector<Metric> metrics;
  Gate gate;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// End-to-end metrics, no spans.  The run is a sequence of rounds until
/// --seconds pass: one cold sweep, then set-ups, warm resumes and served
/// submits for fixed shares of that sweep's time.  Interleaving spreads
/// every metric's samples over the whole run, so a slow spell on a shared
/// host lands on all of them instead of on one phase.
RunResult run_untraced(const Options& opt, const sim::ProtocolRegistry& registry,
                       const std::vector<std::string>& plan_texts,
                       const std::vector<sim::SweepPlan>& plans) {
  RunResult out;
  Gate& gate = out.gate;
  const fs::path work = opt.workdir;
  const fs::path warm_cache = work / "warm-cache";

  // Reference pass: fills the warm cache and warms the allocator and page
  // cache before anything is timed.
  const auto reference = run_plans(registry, plans, cold_options(warm_cache));
  gate.round_trip(reference);
  if (!opt.corrupt.empty())
    corrupt_cache(opt.corrupt, warm_cache, plans.at(0), reference.at(0));

  const Daemon daemon(registry, daemon_options(work, warm_cache));
  serve::LineClient client =
      serve::LineClient::connect_unix(daemon.socket_path());

  auto set_up = [&] {
    return set_up_once(plan_texts, work / "setup", nullptr).total();
  };
  auto cold_sweep = [&] {
    const fs::path dir = work / "cold";
    std::vector<sim::SweepReport> reports;
    const double dt = time_call(
        [&] { reports = run_plans(registry, plans, cold_options(dir)); });
    gate.compare(reference, reports);
    fs::remove_all(dir);
    return dt;
  };
  auto warm_resume = [&] {
    std::vector<sim::SweepReport> reports;
    bool threw = false;
    const double dt = time_call([&] {
      try {
        reports = run_plans(registry, plans, resume_options(warm_cache));
        emit_reports(reports);
      } catch (const std::exception& e) {
        gate.threw(plans, e.what());
        threw = true;
      }
    });
    if (!threw) gate.compare(reference, reports);
    return dt;
  };
  auto serve_plans = [&] {
    Served result;
    const double dt = time_call([&] { result = submit_plans(client, plans); });
    gate.compare(reference, result.reports);
    return dt;
  };

  // One warm resume and one served submit complete the first pass through
  // every path; the peak RSS is read here, before the repeated rounds,
  // whose thread and allocator churn would otherwise make it vary.
  warm_resume();
  serve_plans();
  const double rss_mb = peak_rss_mb();

  std::vector<double> setup, cold, warm, served;
  auto append = [](std::vector<double>& to, const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  const auto start = Clock::now();
  while (cold.size() < 3 || seconds_between(start, Clock::now()) < opt.seconds) {
    const double sweep = cold_sweep();
    cold.push_back(sweep);
    append(setup, repeat_for(0.10 * sweep, 1, set_up));
    append(warm, repeat_for(0.20 * sweep, 1, warm_resume));
    append(served, repeat_for(0.20 * sweep, 1, serve_plans));
  }

  std::int64_t trials = 0, completed = 0;
  for (const auto& report : reference)
    for (const auto& cell : report.cells) {
      trials += static_cast<std::int64_t>(cell.experiment.trials.size());
      completed += cell.experiment.completed_trials();
    }

  // The short phases report their fastest repeat.  Their samples number
  // in the thousands and are bimodal on a shared host (slow spells come
  // and go within seconds), so a run's median depends on how much of the
  // run fell in slow spells while the minimum stays put.  A sweep pass is
  // long enough to average over spells, so sweep_s keeps the median.
  auto fastest = [](const std::vector<double>& v) { return quantile(v, 0.0); };
  out.metrics = {
      {"setup_s", "s", fastest(setup),
       "fastest set-up: registry+parse+cache dir+bind"},
      {"sweep_s", "s", median(cold), "median cold SweepRunner::run"},
      {"warm_s", "s", fastest(warm), "fastest kResume + CSV + JSON"},
      {"serve_s", "s", fastest(served), "fastest submit to final report"},
      {"peak_rss_mb", "MB", rss_mb, "after the first cold, warm, served pass"},
      {"completed_frac", "ratio",
       static_cast<double>(completed) / static_cast<double>(trials),
       std::to_string(completed) + " of " + std::to_string(trials) +
           " trials"},
  };
  return out;
}

/// Per-layer metrics from spans around each layer's public calls.
RunResult run_traced(const Options& opt, const sim::ProtocolRegistry& registry,
                     const std::vector<std::string>& plan_texts,
                     const std::vector<sim::SweepPlan>& plans) {
  RunResult out;
  Gate& gate = out.gate;
  SpanRecorder spans;
  const fs::path work = opt.workdir;
  const fs::path traced_cache = work / "traced-cache";
  const sim::Tuning tuning;
  const sim::Driver driver(registry);

  const auto reference =
      run_plans(registry, plans, cold_options(work / "reference-cache"));
  gate.round_trip(reference);

  std::vector<double> registry_s, parse_s, bind_s;
  auto set_up = [&] {
    const SetupTimes t = set_up_once(plan_texts, work / "setup", &spans);
    registry_s.push_back(t.registry);
    parse_s.push_back(t.parse);
    bind_s.push_back(t.bind);
    return t.total();
  };

  // Route prediction (public predicates only; the Driver's choice is not
  // observable from outside): per-trial counts, constant across passes.
  double trial_count = 0.0, round_count = 0.0, edges = 0.0;
  double lockstep_trials = 0.0, adjacent_trials = 0.0, cache_bytes = 0.0;
  double emit_bytes = 0.0, wire_bytes = 0.0;
  double warm_probes = 0.0, warm_hits = 0.0;

  /// Span index range [first, last) of each pass.
  std::vector<std::pair<std::size_t, std::size_t>> pass_spans;

  fs::create_directories(traced_cache);
  const Daemon daemon(registry, daemon_options(work, traced_cache));
  serve::LineClient client = serve::LineClient::connect_unix(daemon.socket_path());
  const sim::ResultCache cache(traced_cache.string());

  repeat_for(opt.seconds, 1, [&] {
    const bool first_pass = pass_spans.empty();
    const int pass = spans.open("pass");

    // The same plans untraced, for the tracing-overhead figure.
    const fs::path cold_dir = work / "cold";
    const auto untraced = spans.timed("sweep.cold", pass, -1, [&] {
      return run_plans(registry, plans, cold_options(cold_dir));
    });
    gate.compare(reference, untraced);
    fs::remove_all(cold_dir);

    // The traced sweep: each cell's layers called one by one.
    std::vector<sim::SweepReport> traced;
    int ordinal = 0;
    for (const auto& plan : plans) {
      sim::SweepReport report;
      report.plan_text = plan.text;
      report.master_seed = plan.master_seed;
      report.total_cells = static_cast<int>(plan.cells.size());
      for (const auto& cell : plan.cells) {
        const int id = ordinal++;
        const int span = spans.open("cell", pass, id);
        const sim::Scenario& scenario = cell.scenario;
        const bool sinr = !scenario.channel.is_edge_fault();
        graph::Geometry geometry;
        const graph::Graph graph = spans.timed("graph.build", span, id, [&] {
          return scenario.build_graph(sinr ? &geometry : nullptr);
        });
        spans.timed("graph.depth", span, id, [&] {
          return scenario.source < graph.node_count()
                     ? graph::eccentricity(graph, scenario.source)
                     : 0;
        });
        const sim::ProtocolContext context{graph, scenario, tuning};
        const auto protocol = spans.timed("sim.protocol", span, id, [&] {
          return registry.create(cell.protocol, context);
        });
        sim::DriverOptions driver_options;
        driver_options.tuning = tuning;
        driver_options.trace = cell.trace;
        sim::ExperimentReport experiment =
            spans.timed("sim.driver_run", span, id, [&] {
              return driver.run(scenario, cell.protocol, cell.trials,
                                driver_options);
            });
        const std::string key = sim::sweep_cache_key(cell, tuning);
        spans.timed("cache.store", span, id,
                    [&] { cache.store(key, experiment); });
        spans.close(span);

        if (first_pass) {
          const bool consecutive =
              radio::RadioNetwork::consecutive_adjacency(graph);
          const bool lockstep =
              protocol->make_stepper(nullptr) != nullptr && cell.trials >= 2 &&
              graph.node_count() <= sim::kLockstepAutoMaxNodes && !consecutive;
          trial_count += cell.trials;
          lockstep_trials += lockstep ? cell.trials : 0;
          adjacent_trials += !lockstep && consecutive ? cell.trials : 0;
          edges += static_cast<double>(graph.edge_count());
          for (const double r : experiment.rounds()) round_count += r;
          cache_bytes += static_cast<double>(fs::file_size(cache.entry_path(key)));
        }
        report.cells.push_back({cell.index, std::move(experiment), false});
      }
      traced.push_back(std::move(report));
    }
    gate.compare(reference, traced);

    spans.timed("sim.aggregate", pass, -1, [&] {
      double sink = 0.0;
      for (const auto& report : traced) {
        sink += static_cast<double>(sim::sweep_fits(report).size());
        for (const auto& cell : report.cells) {
          const auto& e = cell.experiment;
          sink += e.median_rounds() + e.mean_rounds() + e.gap() +
                  e.completed_trials();
          for (const auto& key : e.metric_keys())
            sink += e.metric_summary(key).mean;
        }
      }
      return sink;
    });
    const std::size_t emitted =
        spans.timed("sim.emit", pass, -1, [&] { return emit_reports(traced); });

    const int warm = spans.open("warm", pass);
    ordinal = 0;
    for (const auto& plan : plans)
      for (const auto& cell : plan.cells) {
        const int id = ordinal++;
        const auto loaded = spans.timed("cache.load", warm, id, [&] {
          return cache.load(sim::sweep_cache_key(cell, tuning));
        });
        if (first_pass) {
          warm_probes += 1;
          warm_hits += loaded ? 1 : 0;
        }
      }
    spans.close(warm);

    const Served served = spans.timed("serve.submit", pass, -1, [&] {
      return submit_plans(client, plans);
    });
    gate.compare(reference, served.reports);
    spans.timed("serve.shard_emit", pass, -1, [&] {
      std::ostringstream shard;
      for (const auto& report : served.reports)
        sim::write_shard_file(shard, report);
      return shard.str().size();
    });
    if (first_pass) {
      emit_bytes = static_cast<double>(emitted);
      wire_bytes = static_cast<double>(served.wire_bytes);
      warm_probes += ordinal;
      warm_hits += served.cached_cells;
    }
    spans.close(pass);
    pass_spans.emplace_back(static_cast<std::size_t>(pass), spans.size());

    repeat_for(0.10 * spans[pass].duration(), 1, set_up);
    return spans[pass].duration();
  });

  // Per-pass values derived from the spans: `total(name)` sums one layer's
  // spans inside one pass.
  auto per_pass = [&](auto value) {
    std::vector<double> values;
    for (const auto& [first, last] : pass_spans)
      values.push_back(value([&, first = first, last = last](const char* name) {
        return spans.total(name, first, last);
      }));
    return values;
  };
  auto layer = [&](const char* name) {
    return per_pass([name](auto total) { return total(name); });
  };
  const auto build = layer("graph.build");
  const auto depth = layer("graph.depth");
  const auto protocol = layer("sim.protocol");
  const auto aggregate = layer("sim.aggregate");
  const auto emit = layer("sim.emit");
  const auto store = layer("cache.store");
  const auto load = layer("cache.load");
  // trials.self_s: the Driver::run span minus the same cell's separately
  // timed build, depth and create spans -- an outside estimate.
  const auto trials_self = per_pass([](auto total) {
    return total("sim.driver_run") - total("graph.build") -
           total("graph.depth") - total("sim.protocol");
  });
  const auto build_share = per_pass([](auto total) {
    return total("graph.build") / total("sim.driver_run");
  });
  std::vector<double> ns_per_round;
  for (const double t : trials_self) ns_per_round.push_back(t * 1e9 / round_count);
  const auto serve_overhead = per_pass([](auto total) {
    return total("serve.submit") - total("cache.load") -
           total("serve.shard_emit");
  });
  const auto trace_overhead = per_pass([](auto total) {
    return (total("sim.driver_run") + total("cache.store")) /
               total("sweep.cold") - 1.0;
  });
  out.metrics = {
      {"sim.parse_s", "s", median(parse_s), "SweepPlan::parse"},
      {"graph.build_s", "s", median(build), "Scenario::build_graph"},
      {"graph.build_share", "ratio", median(build_share),
       "of summed Driver::run"},
      {"graph.edges", "count", edges, "summed over cells"},
      {"graph.depth_s", "s", median(depth), "graph::eccentricity"},
      {"sim.protocol_s", "s", median(protocol),
       "ProtocolRegistry::create"},
      {"trials.self_s", "s", median(trials_self),
       "outside estimate: Driver::run - build - depth - create"},
      {"trials.count", "count", trial_count, ""},
      {"trials.rounds", "count", round_count, "summed over trials"},
      {"trials.ns_per_round", "ns", median(ns_per_round),
       "outside estimate"},
      {"trials.lockstep_frac", "ratio", lockstep_trials / trial_count,
       "predicted from public predicates"},
      {"trials.adjacent_frac", "ratio", adjacent_trials / trial_count,
       "predicted from public predicates"},
      {"sim.aggregate_s", "s", median(aggregate), "sweep_fits + summaries"},
      {"sim.emit_s", "s", median(emit), "write_sweep_csv + json"},
      {"sim.emit_bytes", "bytes", emit_bytes, ""},
      {"cache.store_s", "s", median(store), "ResultCache::store"},
      {"cache.load_s", "s", median(load), "ResultCache::load"},
      {"cache.bytes", "bytes", cache_bytes, "entry files"},
      {"cache.hit_frac", "ratio", warm_probes > 0 ? warm_hits / warm_probes : 0.0,
       "warm loads + served cells"},
      {"serve.overhead_s", "s", median(serve_overhead),
       "submit - cache load - shard emit"},
      {"serve.wire_bytes", "bytes", wire_bytes, "request + reply lines"},
      {"setup.registry_s", "s", median(registry_s),
       "register_builtin + schedule protocols"},
      {"setup.bind_s", "s", median(bind_s), "SweepServer bind"},
      {"trace.overhead_frac", "ratio", median(trace_overhead),
       "traced (run+store) vs untraced cold sweep"},
  };

  if (!opt.spans_out.empty()) {
    std::ofstream file(opt.spans_out, std::ios::trunc);
    spans.write_jsonl(file);
  }
  return out;
}

void print_result(const RunResult& result) {
  const Gate& gate = result.gate;
  for (const Metric& m : result.metrics) {
    std::printf("%-22s %14.6g %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::printf("gate: %lld cells checked, %lld failed\n",
              static_cast<long long>(gate.attempted),
              static_cast<long long>(gate.failed));
  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (gate.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << gate.attempted
       << ", \"failed\": " << gate.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    json << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << m.value
         << ", \"unit\": \"" << m.unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  try {
    std::vector<std::string> plan_texts;
    for (const auto& plan : workload_plans(opt.workload, opt.reduced))
      plan_texts.push_back(plan + "; seed=" + std::to_string(opt.seed));
    sim::ProtocolRegistry registry;
    build_registry(registry);
    const auto plans = parse_plans(plan_texts);

    fs::remove_all(opt.workdir);
    fs::create_directories(opt.workdir);
    const RunResult result =
        opt.trace ? run_traced(opt, registry, plan_texts, plans)
                  : run_untraced(opt, registry, plan_texts, plans);
    fs::remove_all(opt.workdir);
    print_result(result);
    return result.gate.failed == 0 ? 0 : 3;
  } catch (const std::exception& e) {
    std::cerr << "sweepbench: " << e.what() << "\n";
    return 1;
  }
}
