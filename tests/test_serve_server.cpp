// The serve daemon end to end, in process: a SweepServer on a scratch
// unix socket (and an ephemeral TCP port), driven through LineClient.
// Covers the serving tier's acceptance bars: daemon reports bit-identical
// to the serial sweep, warm resubmission computes nothing, two concurrent
// clients with overlapping plans share cell computations, malformed and
// oversized requests get structured errors (never a dead daemon), and a
// client killed mid-plan does not poison a resubmission.
#include "serve/server.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.hpp"
#include "sim_test_util.hpp"

namespace nrn::serve {
namespace {

namespace fs = std::filesystem;

using sim::testutil::shard_bytes;

std::string scratch_dir(const std::string& leaf) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("nrn_" + leaf);
  fs::remove_all(dir);
  return dir.string();
}

/// An in-process daemon on a scratch socket; run() on a background thread.
class ServerFixture {
 public:
  explicit ServerFixture(const std::string& leaf,
                         const sim::ProtocolRegistry& registry =
                             sim::ProtocolRegistry::global(),
                         ServerOptions options = {}) {
    const std::string dir = scratch_dir(leaf);
    fs::create_directories(dir);
    options.socket_path = dir + "/serve.sock";
    if (options.cache_dir.empty()) options.cache_dir = dir + "/cache";
    options.scheduler.cell_threads = 2;
    options.scheduler.claim_poll_ms = 10;
    server = std::make_unique<SweepServer>(registry, options);
    loop = std::thread([this] { server->run(); });
  }

  ~ServerFixture() {
    server->request_stop();
    loop.join();
  }

  LineClient connect() {
    return LineClient::connect_unix(server->socket_path());
  }

  std::unique_ptr<SweepServer> server;
  std::thread loop;
};

struct PlanOutcome {
  sim::SweepReport report;
  std::string report_text;
  int accepted_cached = 0;  ///< warm cells reported by `accepted`
  int computed = 0;         ///< plan_done counters
  int cached = 0;
  int cell_done_events = 0;
  int cell_done_cached = 0;
  int cell_done_computed = 0;
};

/// Submits `plan_text` and pumps replies until plan_done.
PlanOutcome submit_and_wait(LineClient& client, const std::string& plan_text) {
  client.send(Message("submit").set("plan", plan_text));
  PlanOutcome outcome;
  auto accepted = client.recv();
  if (!accepted || accepted->type() != "accepted") {
    ADD_FAILURE() << "no accepted reply: "
                  << (accepted ? accepted->serialize() : "EOF");
    return outcome;
  }
  const int plan_id = static_cast<int>(accepted->integer("plan"));
  outcome.accepted_cached = static_cast<int>(accepted->integer("cached"));
  while (true) {
    auto reply = client.recv();
    if (!reply) {
      ADD_FAILURE() << "daemon closed mid-plan";
      return outcome;
    }
    if (reply->type() == "cell_done" &&
        static_cast<int>(reply->integer("plan")) == plan_id) {
      ++outcome.cell_done_events;
      if (reply->str("resolution") == "cached")
        ++outcome.cell_done_cached;
      else
        ++outcome.cell_done_computed;
      continue;
    }
    if (reply->type() == "plan_done" &&
        static_cast<int>(reply->integer("plan")) == plan_id) {
      outcome.computed = static_cast<int>(reply->integer("computed"));
      outcome.cached = static_cast<int>(reply->integer("cached"));
      outcome.report_text = reply->str("report");
      std::istringstream in(outcome.report_text);
      outcome.report = sim::read_shard_file(in);
      return outcome;
    }
    ADD_FAILURE() << "unexpected reply: " << reply->serialize();
    return outcome;
  }
}

const char kPlan[] =
    "topology=path:{8,12},gnp:16:0.3; protocols=decay,greedy; trials=3; "
    "seed=21";

sim::SweepReport serial_report(const std::string& plan_text) {
  return sim::SweepRunner().run(sim::SweepPlan::parse(plan_text));
}

TEST(ServeServer, ReportBitIdenticalToSerialAndWarmRepeatComputesNothing) {
  const auto serial = serial_report(kPlan);
  ServerFixture fixture("srv_warm");
  LineClient client = fixture.connect();

  // Cold submission: every cell computed, report bit-identical to serial.
  const PlanOutcome cold = submit_and_wait(client, kPlan);
  EXPECT_EQ(cold.report_text, shard_bytes(serial));
  EXPECT_EQ(cold.report, serial);
  EXPECT_EQ(cold.accepted_cached, 0);
  EXPECT_EQ(cold.computed, static_cast<int>(serial.cells.size()));
  EXPECT_EQ(cold.cell_done_events, static_cast<int>(serial.cells.size()));
  EXPECT_EQ(cold.cell_done_computed, static_cast<int>(serial.cells.size()));

  // Warm resubmission (same connection): answered entirely from the
  // cache -- zero computed cells, verified via the cell_done counters.
  const PlanOutcome warm = submit_and_wait(client, kPlan);
  EXPECT_EQ(warm.report_text, shard_bytes(serial));
  EXPECT_EQ(warm.accepted_cached, static_cast<int>(serial.cells.size()));
  EXPECT_EQ(warm.computed, 0);
  EXPECT_EQ(warm.cell_done_computed, 0);
  EXPECT_EQ(warm.cell_done_cached, static_cast<int>(serial.cells.size()));

  // status reflects the two completed plans.
  client.send(Message("status"));
  auto status = client.recv();
  ASSERT_TRUE(status && status->type() == "status");
  EXPECT_EQ(status->str("protocol"), kProtocolVersion);
  EXPECT_EQ(status->integer("plans_done"), 2);
  EXPECT_EQ(status->integer("plans_active"), 0);
  EXPECT_EQ(status->integer("cells_computed"),
            static_cast<std::int64_t>(serial.cells.size()));
}

TEST(ServeServer, TracedPlanReportBitIdenticalToSerial) {
  // A trace=1 plan's report rides the wire as opaque shard text, so the
  // per-round series must arrive bit-identical to the serial traced run.
  const char traced_plan[] =
      "topology=path:10; fault=receiver:0.25; protocols=decay; trials=2; "
      "seed=11; trace=1";
  const auto serial = serial_report(traced_plan);
  ServerFixture fixture("srv_traced");
  LineClient client = fixture.connect();

  const PlanOutcome cold = submit_and_wait(client, traced_plan);
  EXPECT_EQ(cold.report_text, shard_bytes(serial));
  EXPECT_EQ(cold.report, serial);
  EXPECT_NE(cold.report_text.find("series informed "), std::string::npos);

  // Warm resubmission replays the traced cell from the cache, series intact.
  const PlanOutcome warm = submit_and_wait(client, traced_plan);
  EXPECT_EQ(warm.report_text, shard_bytes(serial));
  EXPECT_EQ(warm.computed, 0);
}

TEST(ServeServer, ConcurrentOverlappingClientsShareCellComputes) {
  // A and B overlap on path:12 cells; the union is 6 distinct cells while
  // the plans total 8.  Whoever triggers a shared cell's compute counts
  // it; the other side sees it as cached -- so computed_A + computed_B
  // must equal the union, strictly less than the sum of plan sizes.
  const char plan_a[] =
      "topology=path:{8,12}; protocols=decay,greedy; trials=3; seed=21";
  const char plan_b[] =
      "topology=path:{12,16}; protocols=decay,greedy; trials=3; seed=21";
  const auto serial_a = serial_report(plan_a);
  const auto serial_b = serial_report(plan_b);

  ServerFixture fixture("srv_overlap");
  PlanOutcome outcome_a, outcome_b;
  {
    std::thread thread_b([&] {
      LineClient client = fixture.connect();
      outcome_b = submit_and_wait(client, plan_b);
    });
    LineClient client = fixture.connect();
    outcome_a = submit_and_wait(client, plan_a);
    thread_b.join();
  }

  // Both clients receive complete, bit-identical-to-serial reports.
  EXPECT_EQ(outcome_a.report_text, shard_bytes(serial_a));
  EXPECT_EQ(outcome_b.report_text, shard_bytes(serial_b));

  // Shared cells were computed once: 6 distinct cells across 4 + 4 plan
  // cells (2 shared).  The exact split depends on timing; the sum does not.
  EXPECT_EQ(outcome_a.computed + outcome_b.computed, 6);
  EXPECT_LT(outcome_a.computed + outcome_b.computed,
            static_cast<int>(serial_a.cells.size() + serial_b.cells.size()));
  // Per-plan counters always partition the plan (warm cells count as
  // cached).
  EXPECT_EQ(outcome_a.computed + outcome_a.cached,
            static_cast<int>(serial_a.cells.size()));
  EXPECT_EQ(outcome_b.computed + outcome_b.cached,
            static_cast<int>(serial_b.cells.size()));
}

TEST(ServeServer, MalformedAndOversizedRequestsGetStructuredErrors) {
  ServerOptions options;
  options.max_line_bytes = 4096;
  ServerFixture fixture("srv_bad", sim::ProtocolRegistry::global(), options);
  LineClient client = fixture.connect();

  // Protocol-level garbage: every line gets an `error` reply in order.
  const std::vector<std::string> bad = {
      "not json",
      "{\"plan\":\"no type\"}",
      "{\"type\":\"submit\"}",                        // missing plan field
      "{\"type\":\"submit\",\"plan\":\"topology=\"}",  // bad plan spec
      "{\"type\":\"nonsense\"}",                      // unknown type
      "{\"type\":\"submit\",\"plan\":{\"nested\":1}}",  // nested value
  };
  for (const auto& line : bad) {
    client.send_raw(line + "\n");
    auto reply = client.recv();
    ASSERT_TRUE(reply) << line;
    EXPECT_EQ(reply->type(), "error") << line;
  }

  // An oversized line (no newline until far past the cap) is answered
  // with an error and discarded without wedging the framing.
  std::string huge = "{\"type\":\"submit\",\"plan\":\"";
  huge.append(3 * options.max_line_bytes, 'x');
  huge += "\"}\n";
  client.send_raw(huge);
  auto reply = client.recv();
  ASSERT_TRUE(reply);
  EXPECT_EQ(reply->type(), "error");

  // The daemon is alive and the connection still works.
  client.send(Message("ping"));
  auto pong = client.recv();
  ASSERT_TRUE(pong);
  EXPECT_EQ(pong->type(), "pong");
  EXPECT_EQ(pong->str("protocol"), kProtocolVersion);

  // And real work still succeeds after all that abuse.
  const char small_plan[] = "topology=path:8; protocols=decay; trials=2";
  const PlanOutcome outcome = submit_and_wait(client, small_plan);
  EXPECT_EQ(outcome.report, serial_report(small_plan));
}

TEST(ServeServer, DisconnectMidPlanThenResubmitGetsFullReport) {
  const auto serial = serial_report(kPlan);
  ServerFixture fixture("srv_kill");
  {
    // First client submits and vanishes right after `accepted` -- the
    // daemon detaches its plan; any in-flight cell finishes into the
    // cache.
    LineClient doomed = fixture.connect();
    doomed.send(Message("submit").set("plan", kPlan));
    auto accepted = doomed.recv();
    ASSERT_TRUE(accepted && accepted->type() == "accepted");
    // ~LineClient closes the socket.
  }
  // A fresh client resubmits the same plan and gets the complete,
  // bit-identical report; cached + computed covers every cell.
  LineClient client = fixture.connect();
  const PlanOutcome outcome = submit_and_wait(client, kPlan);
  EXPECT_EQ(outcome.report_text, shard_bytes(serial));
  EXPECT_EQ(outcome.report, serial);
  EXPECT_EQ(outcome.cell_done_events, static_cast<int>(serial.cells.size()));
  EXPECT_EQ(outcome.computed + outcome.cached,
            static_cast<int>(serial.cells.size()));
}

TEST(ServeServer, QueryAnswersFromWarmCacheOnly) {
  const char small_plan[] = "topology=path:8; protocols=decay; trials=2";
  const auto serial = serial_report(small_plan);
  ServerFixture fixture("srv_query");
  LineClient client = fixture.connect();

  client.send(Message("query").set("plan", small_plan));
  auto cold = client.recv();
  ASSERT_TRUE(cold && cold->type() == "query_result");
  EXPECT_FALSE(cold->boolean("complete"));
  EXPECT_EQ(cold->integer("cached"), 0);
  EXPECT_FALSE(cold->has("report"));

  submit_and_wait(client, small_plan);

  client.send(Message("query").set("plan", small_plan));
  auto warm = client.recv();
  ASSERT_TRUE(warm && warm->type() == "query_result");
  EXPECT_TRUE(warm->boolean("complete"));
  EXPECT_EQ(warm->str("report"), shard_bytes(serial));
}

TEST(ServeServer, TcpListenerSpeaksTheSameProtocol) {
  ServerOptions options;
  options.tcp_port = 0;  // ephemeral
  ServerFixture fixture("srv_tcp", sim::ProtocolRegistry::global(), options);
  ASSERT_GT(fixture.server->tcp_port(), 0);
  LineClient client = LineClient::connect_tcp(fixture.server->tcp_port());
  client.send(Message("ping"));
  auto pong = client.recv();
  ASSERT_TRUE(pong);
  EXPECT_EQ(pong->type(), "pong");

  const char small_plan[] = "topology=path:8; protocols=decay; trials=2";
  const PlanOutcome outcome = submit_and_wait(client, small_plan);
  EXPECT_EQ(outcome.report, serial_report(small_plan));
}

TEST(ServeServer, ShutdownRequestStopsTheLoop) {
  const std::string dir = scratch_dir("srv_bye");
  fs::create_directories(dir);
  ServerOptions options;
  options.socket_path = dir + "/serve.sock";
  options.cache_dir = dir + "/cache";
  SweepServer server(sim::ProtocolRegistry::global(), options);
  std::thread loop([&] { server.run(); });
  {
    LineClient client = LineClient::connect_unix(options.socket_path);
    client.send(Message("shutdown"));
    auto bye = client.recv();
    ASSERT_TRUE(bye);
    EXPECT_EQ(bye->type(), "bye");
  }
  loop.join();  // `shutdown` alone must end run()
  // The socket file is gone once the server is destroyed.
  server.request_stop();  // harmless after the fact
}

TEST(ServeServer, RefusesSocketOfALiveDaemonButReplacesAStaleFile) {
  const std::string dir = scratch_dir("srv_stale");
  fs::create_directories(dir);
  ServerOptions options;
  options.socket_path = dir + "/serve.sock";
  options.cache_dir = dir + "/cache";
  {
    SweepServer live(sim::ProtocolRegistry::global(), options);
    EXPECT_THROW(SweepServer(sim::ProtocolRegistry::global(), options),
                 sim::SpecError);
  }
  // A crashed daemon leaves a socket file nobody answers on.  Fabricate
  // one (bind, close, no unlink) and check the next daemon replaces it.
  {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, options.socket_path.c_str(),
                options.socket_path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof addr),
              0);
    ::close(fd);
    ASSERT_TRUE(fs::exists(options.socket_path));  // the stale leftover
  }
  SweepServer replacement(sim::ProtocolRegistry::global(), options);
  std::thread loop([&] { replacement.run(); });
  LineClient client = LineClient::connect_unix(options.socket_path);
  client.send(Message("ping"));
  auto pong = client.recv();
  EXPECT_TRUE(pong && pong->type() == "pong");
  replacement.request_stop();
  loop.join();
}

}  // namespace
}  // namespace nrn::serve
