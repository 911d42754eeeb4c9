// nrn_sim -- command-line driver for the noisy radio network simulator.
//
// A thin shell over the library's Scenario / ProtocolRegistry / Driver /
// SweepPlan API: all spec parsing, protocol selection, and the trial and
// cell loops live in src/sim.
//
//   nrn_sim --topology=path:512 --algorithm=decay --fault=receiver:0.3
//   nrn_sim --topology=grid:16x16 --algorithm=rlnc-decay --k=32 --trials=5
//   nrn_sim --topology=star:1024 --algorithm=greedy --k=64 --fault=combined:0.2:0.2 --csv
//   nrn_sim protocols          (capabilities + theory bounds per protocol)
//
//   nrn_sim sweep "--plan=topology=path:{64..256*2}; protocols=decay,robust;
//                  fault=receiver:{0.1,0.3}; trials=5; seed=7" --csv
//   nrn_sim sweep --plan=... --shard=0/2 --out=shard0.nrns
//   nrn_sim sweep --plan=... --shard=1/2 --out=shard1.nrns
//   nrn_sim sweep --merge=shard0.nrns,shard1.nrns --out=merged.nrns --csv
//
//   nrn_sim serve --socket=/run/nrn.sock --cache-dir=cache --cell-threads=4
//   nrn_sim submit --socket=/run/nrn.sock --plan=... --progress --csv
//   nrn_sim status --socket=/run/nrn.sock
//   nrn_sim shutdown --socket=/run/nrn.sock
//
// Exit status: 0 if every trial completed, 1 otherwise, 2 on usage errors
// (unknown flags, malformed specs/plans, non-numeric values).
#include <algorithm>
#include <clocale>
#include <csignal>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/ticker.hpp"
#include "sim/sim.hpp"

namespace {

using namespace nrn;

enum class Format { kTable, kCsv, kJson };

struct Options {
  std::string topology = "path:64";
  std::string algorithm = "decay";
  std::string fault = "none";
  std::string channel = "none";
  std::int64_t source = 0;
  std::int64_t k = 1;
  std::uint64_t seed = 1;
  std::int64_t trials = 1;
  std::int64_t threads = 1;
  Format format = Format::kTable;
  bool list = false;
  bool trace = false;
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "error: " << error << "\n\n"
            << "usage: nrn_sim [--topology=SPEC] [--algorithm=NAME] "
               "[--fault=SPEC]\n"
            << "               [--channel=SPEC] [--source=N] [--k=N] "
               "[--seed=N] [--trials=N]\n"
            << "               [--threads=N] [--trace] [--csv] [--json] "
               "[--list]\n"
            << "       nrn_sim protocols   (list protocols with "
               "capabilities)\n"
            << "       nrn_sim topologies  (list topology families with "
               "their arguments)\n"
            << "       nrn_sim sweep --plan=PLAN [--shard=I/K] "
               "[--cache-dir=DIR]\n"
            << "               [--fleet | --resume] [--claim-ttl=SECONDS]\n"
            << "               [--cell-threads=N] [--threads=N] [--out=FILE]\n"
            << "               [--csv] [--json]\n"
            << "       nrn_sim sweep --merge=FILE[,FILE...] [--out=FILE] "
               "[--csv] [--json]\n"
            << "       nrn_sim serve --socket=PATH --cache-dir=DIR "
               "[--tcp-port=N]\n"
            << "               [--cell-threads=N] [--threads=N] "
               "[--claim-ttl=SECONDS]\n"
            << "       nrn_sim submit (--socket=PATH | --tcp-port=N) "
               "--plan=PLAN\n"
            << "               [--progress] [--out=FILE] [--csv] [--json]\n"
            << "       nrn_sim status (--socket=PATH | --tcp-port=N)\n"
            << "       nrn_sim shutdown (--socket=PATH | --tcp-port=N)\n\n"
            << "topologies: path:n  cycle:n  star:leaves  complete:n  "
               "grid:RxC\n"
            << "            gnp:n:p  tree:n  binary-tree:n  hypercube:d\n"
            << "            caterpillar:spine:legs  ring:cliques:size\n"
            << "            barbell:clique:bridge  lollipop:clique:tail\n"
            << "            regular:n:d  link  wct:budget  wct:M:L:C:S\n"
            << "            disk:n:radius[:power]  uniform:n:density\n"
            << "algorithms:";
  for (const auto& name : sim::ProtocolRegistry::global().names())
    std::cerr << " " << name;
  std::cerr << "\nfaults:     none  sender:p  receiver:p  combined:ps:pr\n"
            << "channels:   none  sinr:alpha:noise:beta  (sinr needs a "
               "geometric\n"
            << "            topology -- disk or uniform -- and fault=none)\n"
            << "plans:      topology=...; protocols=...; fault=...; "
               "channel=...; k=...;\n"
            << "            trials=N; seed=N; source=N; trace=0|1  (lists "
               "expand {a,b},\n"
            << "            {lo..hi*f}, {lo..hi+d})\n"
            << "tracing:    --trace / trace=1 records per-round series "
               "(informed,\n"
            << "            deliveries, collisions, broadcasters) for "
               "protocols that\n"
            << "            support it; reports gain convergence (r50/r90/"
               "r100) columns,\n"
            << "            JSON series blocks, and long-format CSV rows\n"
            << "sharding:   --shard=I/K runs cells with index mod K == I "
               "(0-based); --out\n"
            << "            writes a mergeable shard file\n"
            << "fleet:      --fleet claims cells dynamically over a shared "
               "--cache-dir\n"
            << "            (work stealing, resumable: re-invoke to finish "
               "a killed run);\n"
            << "            --resume rebuilds the report from a warm cache "
               "without\n"
            << "            computing; --claim-ttl=SECONDS expires dead "
               "workers' claims\n"
            << "serving:    `serve` runs the sweep daemon over a shared "
               "cache; `submit`\n"
            << "            streams a plan's progress and report from it; "
               "--progress\n"
            << "            renders a live ticker on stderr (also for "
               "`sweep`)\n";
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  auto int_value = [](const std::string& key, const std::string& value) {
    try {
      return sim::parse_spec_int(value, key);
    } catch (const sim::SpecError& e) {
      usage(e.what());
    }
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--topology") {
      opt.topology = value;
    } else if (key == "--algorithm") {
      opt.algorithm = value;
    } else if (key == "--fault") {
      opt.fault = value;
    } else if (key == "--channel") {
      opt.channel = value;
    } else if (key == "--source") {
      opt.source = int_value(key, value);
    } else if (key == "--k") {
      opt.k = int_value(key, value);
    } else if (key == "--seed") {
      try {
        opt.seed = sim::parse_spec_uint(value, key);
      } catch (const sim::SpecError& e) {
        usage(e.what());
      }
    } else if (key == "--trials") {
      opt.trials = int_value(key, value);
    } else if (key == "--threads") {
      opt.threads = int_value(key, value);
    } else if (key == "--trace") {
      opt.trace = true;
    } else if (key == "--csv") {
      opt.format = Format::kCsv;
    } else if (key == "--json") {
      opt.format = Format::kJson;
    } else if (key == "--list") {
      opt.list = true;
    } else if (key == "--help" || key == "-h") {
      usage("help requested");
    } else {
      usage("unknown flag '" + key + "'");
    }
  }
  if (opt.k < 1) usage("--k must be positive");
  if (opt.trials < 1) usage("--trials must be positive");
  if (opt.threads < 1) usage("--threads must be positive");
  if (opt.source < 0) usage("--source must be non-negative");
  return opt;
}

// ------------------------------------------------------------------ sweep

struct SweepCliOptions {
  std::string plan;
  std::vector<std::string> merge_files;
  sim::SweepOptions run;
  std::string out_file;
  Format format = Format::kTable;
};

SweepCliOptions parse_sweep_args(int argc, char** argv) {
  SweepCliOptions opt;
  auto int_value = [](const std::string& key, const std::string& value) {
    try {
      return sim::parse_spec_int(value, key);
    } catch (const sim::SpecError& e) {
      usage(e.what());
    }
  };
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--plan") {
      opt.plan = value;
    } else if (key == "--merge") {
      std::stringstream files(value);
      std::string file;
      while (std::getline(files, file, ','))
        if (!file.empty()) opt.merge_files.push_back(file);
      if (opt.merge_files.empty()) usage("--merge needs at least one file");
    } else if (key == "--shard") {
      const auto slash = value.find('/');
      if (slash == std::string::npos) usage("--shard wants I/K (0-based I)");
      const std::int64_t index =
          int_value("--shard index", value.substr(0, slash));
      const std::int64_t count =
          int_value("--shard count", value.substr(slash + 1));
      if (count < 1 || count > 1'000'000 || index < 0 || index >= count)
        usage("--shard=I/K needs 0 <= I < K (K at most 1000000)");
      opt.run.shard_index = static_cast<int>(index);
      opt.run.shard_count = static_cast<int>(count);
    } else if (key == "--cache-dir") {
      if (value.empty()) usage("--cache-dir needs a directory");
      opt.run.cache_dir = value;
    } else if (key == "--fleet") {
      if (opt.run.assignment == sim::SweepAssignment::kResume)
        usage("--fleet and --resume are mutually exclusive");
      opt.run.assignment = sim::SweepAssignment::kFleet;
    } else if (key == "--resume") {
      if (opt.run.assignment == sim::SweepAssignment::kFleet)
        usage("--fleet and --resume are mutually exclusive");
      opt.run.assignment = sim::SweepAssignment::kResume;
    } else if (key == "--claim-ttl") {
      const std::int64_t ttl = int_value(key, value);
      if (ttl < 0) usage("--claim-ttl must be non-negative seconds");
      opt.run.claim_ttl_seconds = static_cast<double>(ttl);
    } else if (key == "--cell-threads") {
      const std::int64_t threads = int_value(key, value);
      if (threads < 1 || threads > 4096)
        usage("--cell-threads must be in [1, 4096]");
      opt.run.cell_threads = static_cast<int>(threads);
    } else if (key == "--threads") {
      const std::int64_t threads = int_value(key, value);
      if (threads < 1 || threads > 4096)
        usage("--threads must be in [1, 4096]");
      opt.run.trial_threads = static_cast<int>(threads);
    } else if (key == "--out") {
      if (value.empty()) usage("--out needs a file name");
      opt.out_file = value;
    } else if (key == "--csv") {
      opt.format = Format::kCsv;
    } else if (key == "--json") {
      opt.format = Format::kJson;
    } else if (key == "--progress") {
      opt.run.on_progress = serve::ProgressTicker(std::cerr);
    } else if (key == "--help" || key == "-h") {
      usage("help requested");
    } else {
      usage("unknown sweep flag '" + key + "'");
    }
  }
  if (opt.plan.empty() == opt.merge_files.empty())
    usage("sweep wants exactly one of --plan or --merge");
  if (!opt.merge_files.empty() &&
      (opt.run.shard_count != 1 || !opt.run.cache_dir.empty() ||
       opt.run.assignment != sim::SweepAssignment::kStatic))
    usage("--merge does not combine with --shard, --cache-dir, --fleet, "
          "or --resume");
  if (opt.run.assignment != sim::SweepAssignment::kStatic) {
    if (opt.run.cache_dir.empty())
      usage("--fleet/--resume need --cache-dir (the shared fleet state)");
    if (opt.run.shard_count != 1)
      usage("--fleet/--resume replace static --shard partitioning");
  }
  return opt;
}

int sweep_main(int argc, char** argv) {
  const SweepCliOptions opt = parse_sweep_args(argc, argv);
  try {
    sim::SweepReport report;
    if (!opt.merge_files.empty()) {
      std::vector<sim::SweepReport> shards;
      for (const auto& file : opt.merge_files) {
        std::ifstream in(file, std::ios::binary);
        if (!in) usage("cannot open shard file '" + file + "'");
        shards.push_back(sim::read_shard_file(in));
      }
      report = sim::merge_sweep_reports(shards);
    } else {
      const auto plan = sim::SweepPlan::parse(opt.plan);
      report = sim::SweepRunner().run(plan, opt.run);
    }
    if (!opt.out_file.empty()) {
      std::ofstream out(opt.out_file, std::ios::binary | std::ios::trunc);
      if (!out) usage("cannot write '" + opt.out_file + "'");
      sim::write_shard_file(out, report);
    }
    switch (opt.format) {
      case Format::kTable:
        sim::write_sweep_table(std::cout, report);
        break;
      case Format::kCsv:
        sim::write_sweep_csv(std::cout, report);
        break;
      case Format::kJson:
        sim::write_sweep_json(std::cout, report);
        break;
    }
    return report.all_completed() ? 0 : 1;
  } catch (const sim::SpecError& e) {
    usage(e.what());
  } catch (const nrn::ContractViolation& e) {
    usage(e.what());
  }
}

// ------------------------------------------------------------------ serve

serve::SweepServer* g_serve_server = nullptr;

extern "C" void handle_stop_signal(int) {
  if (g_serve_server != nullptr) g_serve_server->request_stop();
}

int serve_main(int argc, char** argv) {
  serve::ServerOptions opt;
  auto int_value = [](const std::string& key, const std::string& value) {
    try {
      return sim::parse_spec_int(value, key);
    } catch (const sim::SpecError& e) {
      usage(e.what());
    }
  };
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--socket") {
      if (value.empty()) usage("--socket needs a path");
      opt.socket_path = value;
    } else if (key == "--tcp-port") {
      const std::int64_t port = int_value(key, value);
      if (port < 0 || port > 65535) usage("--tcp-port must be in [0, 65535]");
      opt.tcp_port = static_cast<int>(port);
    } else if (key == "--cache-dir") {
      if (value.empty()) usage("--cache-dir needs a directory");
      opt.cache_dir = value;
    } else if (key == "--cell-threads") {
      const std::int64_t threads = int_value(key, value);
      if (threads < 1 || threads > 4096)
        usage("--cell-threads must be in [1, 4096]");
      opt.scheduler.cell_threads = static_cast<int>(threads);
    } else if (key == "--threads") {
      const std::int64_t threads = int_value(key, value);
      if (threads < 1 || threads > 4096)
        usage("--threads must be in [1, 4096]");
      opt.scheduler.trial_threads = static_cast<int>(threads);
    } else if (key == "--claim-ttl") {
      const std::int64_t ttl = int_value(key, value);
      if (ttl < 0) usage("--claim-ttl must be non-negative seconds");
      opt.scheduler.claim_ttl_seconds = static_cast<double>(ttl);
    } else if (key == "--help" || key == "-h") {
      usage("help requested");
    } else {
      usage("unknown serve flag '" + key + "'");
    }
  }
  if (opt.cache_dir.empty()) usage("serve needs --cache-dir");
  if (opt.socket_path.empty() && opt.tcp_port < 0)
    usage("serve needs --socket and/or --tcp-port");
  try {
    serve::SweepServer server(sim::ProtocolRegistry::global(), opt);
    g_serve_server = &server;
    std::signal(SIGINT, handle_stop_signal);
    std::signal(SIGTERM, handle_stop_signal);
    std::cerr << "serve: listening";
    if (!opt.socket_path.empty()) std::cerr << " on " << opt.socket_path;
    if (server.tcp_port() >= 0)
      std::cerr << " (tcp 127.0.0.1:" << server.tcp_port() << ")";
    std::cerr << ", cache " << opt.cache_dir << "\n" << std::flush;
    server.run();
    g_serve_server = nullptr;
    std::cerr << "serve: stopped\n";
    return 0;
  } catch (const sim::SpecError& e) {
    usage(e.what());
  }
}

// -------------------------------------------------- serve-client commands

struct ClientCliOptions {
  std::string socket_path;
  int tcp_port = -1;
  std::string plan;
  std::string out_file;
  Format format = Format::kTable;
  bool progress = false;
};

ClientCliOptions parse_client_args(int argc, char** argv, bool wants_plan) {
  ClientCliOptions opt;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--socket") {
      if (value.empty()) usage("--socket needs a path");
      opt.socket_path = value;
    } else if (key == "--tcp-port") {
      try {
        const std::int64_t port = sim::parse_spec_int(value, key);
        if (port < 1 || port > 65535)
          usage("--tcp-port must be in [1, 65535]");
        opt.tcp_port = static_cast<int>(port);
      } catch (const sim::SpecError& e) {
        usage(e.what());
      }
    } else if (wants_plan && key == "--plan") {
      opt.plan = value;
    } else if (wants_plan && key == "--out") {
      if (value.empty()) usage("--out needs a file name");
      opt.out_file = value;
    } else if (wants_plan && key == "--csv") {
      opt.format = Format::kCsv;
    } else if (wants_plan && key == "--json") {
      opt.format = Format::kJson;
    } else if (wants_plan && key == "--progress") {
      opt.progress = true;
    } else if (key == "--help" || key == "-h") {
      usage("help requested");
    } else {
      usage("unknown flag '" + key + "' for this subcommand");
    }
  }
  if (opt.socket_path.empty() && opt.tcp_port < 0)
    usage("need --socket=PATH or --tcp-port=N to reach the daemon");
  if (wants_plan && opt.plan.empty()) usage("submit needs --plan");
  return opt;
}

serve::LineClient connect_client(const ClientCliOptions& opt) {
  return opt.socket_path.empty()
             ? serve::LineClient::connect_tcp(opt.tcp_port)
             : serve::LineClient::connect_unix(opt.socket_path);
}

/// A reply the daemon must send; EOF or an `error` reply aborts with a
/// usage-style diagnostic.
serve::Message expect_reply(serve::LineClient& client) {
  auto reply = client.recv();
  if (!reply) usage("daemon closed the connection unexpectedly");
  if (reply->type() == "error") usage("daemon: " + reply->str("error"));
  return std::move(*reply);
}

int submit_main(int argc, char** argv) {
  const ClientCliOptions opt = parse_client_args(argc, argv, true);
  try {
    serve::LineClient client = connect_client(opt);
    client.send(serve::Message("submit").set("plan", opt.plan));
    const serve::Message accepted = expect_reply(client);
    if (accepted.type() != "accepted")
      usage("daemon sent unexpected '" + accepted.type() + "'");
    const int plan_id = static_cast<int>(accepted.integer("plan"));

    serve::ProgressTicker ticker(std::cerr);
    sim::SweepProgressEvent event;
    event.total = static_cast<int>(accepted.integer("cells"));
    if (opt.progress) {
      event.kind = sim::SweepProgressEvent::Kind::kAccepted;
      ticker(event);
    }

    std::string report_text;
    int computed = 0, cached = 0;
    while (report_text.empty()) {
      const serve::Message reply = expect_reply(client);
      if (reply.type() == "cell_done") {
        if (static_cast<int>(reply.integer("plan")) != plan_id) continue;
        if (opt.progress) {
          event.kind = sim::SweepProgressEvent::Kind::kCellDone;
          event.done = static_cast<int>(reply.integer("done"));
          event.cell_index = static_cast<int>(reply.integer("cell"));
          event.cached = reply.str("resolution") == "cached";
          event.cell_hash = reply.str("hash");
          event.computed = static_cast<int>(reply.integer("computed"));
          event.cached_cells = static_cast<int>(reply.integer("cached"));
          ticker(event);
        }
      } else if (reply.type() == "plan_done") {
        if (static_cast<int>(reply.integer("plan")) != plan_id) continue;
        report_text = reply.str("report");
        computed = static_cast<int>(reply.integer("computed"));
        cached = static_cast<int>(reply.integer("cached"));
        if (opt.progress) {
          event.kind = sim::SweepProgressEvent::Kind::kPlanDone;
          event.done = event.total;
          event.computed = computed;
          event.cached_cells = cached;
          ticker(event);
        }
      } else if (reply.type() == "plan_failed") {
        usage("daemon: plan failed: " + reply.str("error"));
      } else {
        usage("daemon sent unexpected '" + reply.type() + "'");
      }
    }

    std::istringstream in(report_text);
    const sim::SweepReport report = sim::read_shard_file(in);
    std::cerr << "# serve: plan=" << plan_id << " cells="
              << report.total_cells << " cached=" << cached
              << " computed=" << computed << "\n";
    if (!opt.out_file.empty()) {
      std::ofstream out(opt.out_file, std::ios::binary | std::ios::trunc);
      if (!out) usage("cannot write '" + opt.out_file + "'");
      sim::write_shard_file(out, report);
    }
    switch (opt.format) {
      case Format::kTable:
        sim::write_sweep_table(std::cout, report);
        break;
      case Format::kCsv:
        sim::write_sweep_csv(std::cout, report);
        break;
      case Format::kJson:
        sim::write_sweep_json(std::cout, report);
        break;
    }
    return report.all_completed() ? 0 : 1;
  } catch (const serve::WireError& e) {
    usage(std::string("wire error: ") + e.what());
  } catch (const sim::SpecError& e) {
    usage(e.what());
  }
}

int status_main(int argc, char** argv) {
  const ClientCliOptions opt = parse_client_args(argc, argv, false);
  try {
    serve::LineClient client = connect_client(opt);
    client.send(serve::Message("status"));
    const serve::Message reply = expect_reply(client);
    if (reply.type() != "status")
      usage("daemon sent unexpected '" + reply.type() + "'");
    for (const auto* key :
         {"protocol", "cache_dir", "plans_active", "plans_done",
          "plans_failed", "cells_pending", "cells_running", "cells_computed",
          "cells_cached"}) {
      if (!reply.has(key)) continue;
      std::cout << key << "  ";
      if (key == std::string("protocol") || key == std::string("cache_dir"))
        std::cout << reply.str(key);
      else
        std::cout << reply.integer(key);
      std::cout << "\n";
    }
    return 0;
  } catch (const serve::WireError& e) {
    usage(std::string("wire error: ") + e.what());
  } catch (const sim::SpecError& e) {
    usage(e.what());
  }
}

int shutdown_main(int argc, char** argv) {
  const ClientCliOptions opt = parse_client_args(argc, argv, false);
  try {
    serve::LineClient client = connect_client(opt);
    client.send(serve::Message("shutdown"));
    const serve::Message reply = expect_reply(client);
    if (reply.type() != "bye")
      usage("daemon sent unexpected '" + reply.type() + "'");
    return 0;
  } catch (const serve::WireError& e) {
    usage(std::string("wire error: ") + e.what());
  } catch (const sim::SpecError& e) {
    usage(e.what());
  }
}

// The `protocols` subcommand (and --list): every registered protocol with
// its capability set, whether a theory bound is registered, and the
// one-line description.
int protocols_main() {
  const auto& registry = sim::ProtocolRegistry::global();
  std::size_t name_width = 0, caps_width = 0;
  for (const auto& name : registry.names()) {
    name_width = std::max(name_width, name.size());
    caps_width = std::max(
        caps_width,
        sim::capability_names(registry.capabilities(name)).size());
  }
  for (const auto& name : registry.names()) {
    const std::string caps =
        sim::capability_names(registry.capabilities(name));
    std::cout << name << std::string(name_width - name.size() + 2, ' ')
              << caps << std::string(caps_width - caps.size() + 2, ' ')
              << (registry.has_theory_bound(name) ? "bound " : "-     ")
              << " " << registry.description(name) << "\n";
  }
  return 0;
}

// The `topologies` subcommand: every family the grammar accepts with its
// argument signature and a one-line description.  The list is driven by
// sim::topology_kinds() so a family added to the grammar without a doc
// line here fails loudly instead of printing an incomplete table.
int topologies_main() {
  struct KindDoc {
    const char* kind;
    const char* args;
    const char* doc;
  };
  static constexpr KindDoc kDocs[] = {
      {"barbell", "barbell:clique:bridge",
       "two k-cliques joined by a bridge path"},
      {"binary-tree", "binary-tree:n", "complete binary tree, heap indexing"},
      {"caterpillar", "caterpillar:spine:legs",
       "spine path with pendant leaves per spine node"},
      {"complete", "complete:n", "complete graph K_n"},
      {"cycle", "cycle:n", "cycle on n >= 3 nodes"},
      {"disk", "disk:n:radius[:power]",
       "geometric: n nodes uniform in the unit square, edges within "
       "radius; hosts channel=sinr"},
      {"gnp", "gnp:n:p", "connected Erdos-Renyi G(n, p)"},
      {"grid", "grid:RxC", "R x C grid"},
      {"hypercube", "hypercube:d", "d-dimensional hypercube, 2^d nodes"},
      {"link", "link", "two nodes, one edge (Appendix A)"},
      {"lollipop", "lollipop:clique:tail", "clique with a pendant path"},
      {"path", "path:n", "path 0 - 1 - ... - (n-1)"},
      {"regular", "regular:n:d", "random d-regular-ish pairing model"},
      {"ring", "ring:cliques:size",
       "ring of cliques joined by single edges"},
      {"star", "star:leaves", "hub node 0 with `leaves` leaves"},
      {"tree", "tree:n", "uniform random attachment tree"},
      {"uniform", "uniform:n:density",
       "geometric: n nodes at expected density per unit square, unit-range "
       "edges; hosts channel=sinr"},
      {"wct", "wct:budget | wct:M:L:C:S",
       "weak connectivity tree instance (Lemma 18)"},
  };
  const auto& kinds = sim::topology_kinds();
  std::size_t args_width = 0;
  for (const auto& doc : kDocs)
    args_width = std::max(args_width, std::string(doc.args).size());
  for (const auto& kind : kinds) {
    const KindDoc* found = nullptr;
    for (const auto& doc : kDocs)
      if (kind == doc.kind) found = &doc;
    if (found == nullptr) {
      std::cerr << "error: topology kind '" << kind
                << "' has no doc line in nrn_sim topologies\n";
      return 2;
    }
    const std::string args = found->args;
    std::cout << args << std::string(args_width - args.size() + 2, ' ')
              << found->doc << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Honor the environment's locale for the process at large: this is what a
  // localized deployment does, and it is exactly the configuration the
  // locale-independent numeric round-trips (common/numio) must survive.
  // CI runs the smoke suites under LC_ALL=de_DE.UTF-8 to prove it.
  // Deliberate and safe: called once before any thread exists.
  std::setlocale(LC_ALL, "");  // NOLINT(concurrency-mt-unsafe)
  if (argc > 1 && std::string(argv[1]) == "sweep")
    return sweep_main(argc, argv);
  if (argc > 1 && std::string(argv[1]) == "serve")
    return serve_main(argc, argv);
  if (argc > 1 && std::string(argv[1]) == "submit")
    return submit_main(argc, argv);
  if (argc > 1 && std::string(argv[1]) == "status")
    return status_main(argc, argv);
  if (argc > 1 && std::string(argv[1]) == "shutdown")
    return shutdown_main(argc, argv);
  if (argc > 1 && std::string(argv[1]) == "protocols") return protocols_main();
  if (argc > 1 && std::string(argv[1]) == "topologies")
    return topologies_main();
  const Options opt = parse_args(argc, argv);
  if (opt.list) return protocols_main();

  try {
    const auto scenario = sim::Scenario::parse(
        opt.topology, opt.fault, static_cast<graph::NodeId>(opt.source),
        opt.k, opt.seed, opt.channel);
    sim::DriverOptions driver_options;
    driver_options.threads = static_cast<int>(opt.threads);
    driver_options.trace = opt.trace;
    const auto report = sim::Driver().run(
        scenario, opt.algorithm, static_cast<int>(opt.trials), driver_options);
    switch (opt.format) {
      case Format::kTable:
        sim::write_table(std::cout, report);
        break;
      case Format::kCsv:
        sim::write_csv(std::cout, report);
        break;
      case Format::kJson:
        sim::write_json(std::cout, report);
        break;
    }
    return report.all_completed() ? 0 : 1;
  } catch (const sim::SpecError& e) {
    usage(e.what());
  } catch (const nrn::ContractViolation& e) {
    usage(e.what());
  }
}
