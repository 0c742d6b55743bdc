// The ADMIN wire method over a real TCP transport: every verb is callable
// pre-Hello on a fresh connection and answers while admission control
// sheds session work, unknown verbs fail without dropping the connection,
// the documents reflect actual server state, and Hello admits only the
// current wire revision.

#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/session.h"
#include "net/admin.h"
#include "net/fault_injector.h"
#include "net/remote_client.h"
#include "nms/network_model.h"
#include "net/socket.h"
#include "net/tcp_server.h"
#include "net/wire.h"
#include "tools/admin_call.h"
#include "tools/json_indent.h"
#include "tools/prom_text.h"

namespace idba {
namespace {

using admin::Verb;

/// Spins (real time) until `pred` holds or ~5 s elapse.
template <typename Pred>
bool WaitFor(Pred pred) {
  for (int i = 0; i < 500; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

/// Sends one raw Hello for client `id`; `version` < 0 omits the version
/// byte. Returns the response status.
Status RawHello(Socket& sock, uint64_t seq, uint64_t id, int version) {
  std::vector<uint8_t> payload;
  Encoder enc(&payload);
  enc.PutU8(static_cast<uint8_t>(wire::Method::kHello));
  enc.PutI64(0);   // client_now
  enc.PutU64(id);
  enc.PutU8(0);    // kAvoidance
  if (version >= 0) enc.PutU8(static_cast<uint8_t>(version));
  std::mutex mu;
  IDBA_RETURN_NOT_OK(
      sock.WriteFrame(mu, wire::FrameType::kRequest, seq, payload));
  wire::FrameHeader header;
  std::vector<uint8_t> resp;
  IDBA_RETURN_NOT_OK(sock.ReadFrame(&header, &resp));
  Decoder dec(resp.data(), resp.size());
  Status st;
  IDBA_RETURN_NOT_OK(wire::DecodeStatus(&dec, &st));
  return st;
}

class AdminIntrospectTest : public ::testing::Test {
 protected:
  void StartServer(DeploymentOptions opts = {}) {
    deployment_ = std::make_unique<Deployment>(opts);
    transport_ = std::make_unique<TransportServer>(
        &deployment_->server(), &deployment_->dlm(), &deployment_->bus(),
        &deployment_->meter());
    ASSERT_TRUE(transport_->Start().ok());
    ASSERT_NE(transport_->port(), 0);
  }

  void TearDown() override {
    transport_.reset();
    deployment_.reset();
  }

  /// One ADMIN call on a raw socket (no Hello first, no trace bit) that
  /// must succeed. Returns the response string.
  std::string RawAdminCall(Socket& sock, Verb verb,
                           const std::vector<uint8_t>& args, uint64_t seq) {
    std::string out;
    Status st = tools::AdminCall(sock, verb, args, &out, seq);
    EXPECT_TRUE(st.ok()) << admin::VerbName(static_cast<uint8_t>(verb))
                         << ": " << st.ToString();
    return out;
  }

  Socket RawConnect() {
    Result<Socket> raw = Socket::ConnectTo("127.0.0.1", transport_->port());
    EXPECT_TRUE(raw.ok());
    return std::move(raw).value();
  }

  std::unique_ptr<Deployment> deployment_;
  std::unique_ptr<TransportServer> transport_;
};

TEST_F(AdminIntrospectTest, MetricsPromTextPreHello) {
  StartServer();
  Socket sock = RawConnect();
  std::vector<uint8_t> args;
  Encoder enc(&args);
  enc.PutU8(0);  // format 0: Prometheus text
  const std::string text = RawAdminCall(sock, Verb::kMetrics, args, 1);
  ASSERT_FALSE(text.empty());
  tools::PromSamples samples = tools::ParsePromText(text);
  // The canonical cache hierarchy and lock counters registered by the
  // deployment's component constructors are all present.
  EXPECT_TRUE(samples.count("idba_cache_page_hits_total"));
  EXPECT_TRUE(samples.count("idba_cache_display_hits_total"));
  EXPECT_TRUE(samples.count("idba_cache_display_evictions_total"));
  EXPECT_TRUE(samples.count("idba_txn_lock_grants_total"));
  EXPECT_TRUE(samples.count("idba_storage_heap_page_misses_total"));
  EXPECT_TRUE(samples.count("idba_transport_requests_total"));
}

TEST_F(AdminIntrospectTest, MetricsJsonFormats) {
  StartServer();
  Socket sock = RawConnect();
  std::vector<uint8_t> args;
  Encoder enc(&args);
  enc.PutU8(1);  // format 1: registry DumpJson
  const std::string reg_json =
      RawAdminCall(sock, Verb::kMetrics, args, 1);
  EXPECT_NE(reg_json.find("\"counters\""), std::string::npos);
  EXPECT_NE(reg_json.find("\"histograms\""), std::string::npos);
}

TEST_F(AdminIntrospectTest, LocksReflectsHeldAndContendedLocks) {
  StartServer();
  // Drive real lock traffic through a remote client so the LOCKS document
  // reflects genuine LockManager state rather than empty tables.
  auto client =
      RemoteDatabaseClient::Connect("127.0.0.1", transport_->port(), 100);
  ASSERT_TRUE(client.ok());
  ClassId cls = client.value()->DefineClass("Row").value();
  Oid oid = client.value()->AllocateOid();
  TxnId t = client.value()->Begin();
  DatabaseObject obj = NewObject(client.value()->schema(), cls, oid);
  ASSERT_TRUE(client.value()->Insert(t, obj).ok());
  // Transaction t holds its insert locks while we snapshot the table.
  Socket sock = RawConnect();
  std::vector<uint8_t> args;
  Encoder enc(&args);
  enc.PutU8(5);  // top_k
  const std::string locks = RawAdminCall(sock, Verb::kLocks, args, 1);
  EXPECT_NE(locks.find("\"lock_table\""), std::string::npos);
  EXPECT_NE(locks.find("\"wait_edges\""), std::string::npos);
  EXPECT_NE(locks.find("\"top_contended\""), std::string::npos);
  EXPECT_NE(locks.find("\"counters\""), std::string::npos);
  EXPECT_NE(locks.find("\"granted\""), std::string::npos);
  ASSERT_TRUE(client.value()->Commit(t).ok());
}

TEST_F(AdminIntrospectTest, CachesReportsHierarchyAndRegistry) {
  StartServer();
  auto client =
      RemoteDatabaseClient::Connect("127.0.0.1", transport_->port(), 100);
  ASSERT_TRUE(client.ok());
  ClassId cls = client.value()->DefineClass("Row").value();
  Oid oid = client.value()->AllocateOid();
  TxnId t = client.value()->Begin();
  DatabaseObject obj = NewObject(client.value()->schema(), cls, oid);
  ASSERT_TRUE(client.value()->Insert(t, obj).ok());
  ASSERT_TRUE(client.value()->Commit(t).ok());

  Socket sock = RawConnect();
  const std::string caches =
      RawAdminCall(sock, Verb::kCaches, {}, 1);
  EXPECT_NE(caches.find("\"page\""), std::string::npos);
  EXPECT_NE(caches.find("\"dirty_ratio\""), std::string::npos);
  EXPECT_NE(caches.find("\"object\""), std::string::npos);
  EXPECT_NE(caches.find("\"display\""), std::string::npos);
  EXPECT_NE(caches.find("\"registry\""), std::string::npos);
  EXPECT_NE(caches.find("cache.page.hits"), std::string::npos);
}

TEST_F(AdminIntrospectTest, HelloRefusesOtherWireVersions) {
  StartServer();
  Socket sock = RawConnect();
  // A Hello without the version byte, and one from an older revision, are
  // refused without registering the client id...
  Status st = RawHello(sock, 1, 7, /*version=*/-1);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  st = RawHello(sock, 2, 7, /*version=*/2);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_NE(st.message().find("version 2"), std::string::npos)
      << st.ToString();
  // ...so a correct Hello for the same id on the same connection succeeds.
  st = RawHello(sock, 3, 7, wire::kWireVersion);
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST_F(AdminIntrospectTest, AdminMethodsExemptFromAdmission) {
  // Park a commit inside the server (waiting on a stalled subscriber's
  // callback ack) with the in-flight cap at 1: session work is shed, but
  // every ADMIN verb still answers, so an operator can see INTO an
  // overloaded server.
  TransportServerOptions opts;
  opts.max_inflight = 1;
  opts.callback_ack_timeout_ms = 2000;
  deployment_ = std::make_unique<Deployment>(DeploymentOptions{});
  transport_ = std::make_unique<TransportServer>(
      &deployment_->server(), &deployment_->dlm(), &deployment_->bus(),
      &deployment_->meter(), opts);
  ASSERT_TRUE(transport_->Start().ok());
  NmsConfig config;
  config.num_nodes = 4;
  config.sites = 1;
  config.buildings_per_site = 1;
  config.racks_per_building = 1;
  config.devices_per_rack = 1;
  NmsDatabase db = PopulateNms(&deployment_->server(), config).value();
  const Oid held = db.link_oids[0];

  auto connect = [&](ClientId id) {
    auto client =
        RemoteDatabaseClient::Connect("127.0.0.1", transport_->port(), id);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  };
  auto viewer = connect(100);
  auto writer = connect(101);
  auto victim = connect(102);
  ASSERT_TRUE(viewer->ReadCurrent(held).ok());
  auto faults = std::make_shared<FaultInjector>();
  viewer->set_fault_injector(faults);
  faults->InjectAll(FaultDirection::kRead, FaultKind::kDelay, 3000);

  std::thread committer([&] {
    Result<TxnId> t = writer->BeginTxn();
    ASSERT_TRUE(t.ok());
    Result<DatabaseObject> link = writer->Read(t.value(), held);
    ASSERT_TRUE(link.ok());
    DatabaseObject obj = std::move(link).value();
    ASSERT_TRUE(
        obj.SetByName(writer->schema(), "Utilization", Value(0.5)).ok());
    ASSERT_TRUE(writer->Write(t.value(), std::move(obj)).ok());
    EXPECT_TRUE(writer->Commit(t.value()).ok());
  });
  // The commit holds the only in-flight slot while the viewer's ack is
  // outstanding.
  ASSERT_TRUE(WaitFor([&] {
    for (const auto& s : transport_->Sessions()) {
      if (s.callbacks_pending > 0) return true;
    }
    return false;
  }));

  Result<TxnId> rejected = victim->BeginTxn();
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsOverloaded())
      << rejected.status().ToString();

  Socket sock = RawConnect();
  for (uint8_t v = 1; admin::VerbName(v) != nullptr; ++v) {
    std::string out;
    Status st = tools::AdminCall(sock, static_cast<Verb>(v), {}, &out, v);
    EXPECT_TRUE(st.ok()) << admin::VerbName(v) << ": " << st.ToString();
    EXPECT_FALSE(out.empty()) << admin::VerbName(v);
  }
  committer.join();
  faults->Reset();
}

TEST_F(AdminIntrospectTest, UnknownVerbFailsAndConnectionStaysUsable) {
  StartServer();
  Socket sock = RawConnect();
  std::string out;
  Status st = tools::AdminCall(sock, static_cast<Verb>(0), {}, &out, 1);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  st = tools::AdminCall(sock, static_cast<Verb>(200), {}, &out, 2);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  const std::string stats = RawAdminCall(sock, Verb::kStats, {}, 3);
  EXPECT_NE(stats.find("\"transport\""), std::string::npos);
}

TEST_F(AdminIntrospectTest, IndentedStatsReportKeepsTheWholeDocument) {
  StartServer();
  auto client =
      RemoteDatabaseClient::Connect("127.0.0.1", transport_->port(), 100);
  ASSERT_TRUE(client.ok());
  const std::string compact = admin::StatsJson(*transport_);
  EXPECT_EQ(compact.find("wire_version"), std::string::npos);
  // idba_stat's default report: one field per line...
  const std::string indented = tools::IndentJson(compact);
  EXPECT_NE(indented.find("\n  \"sessions\": [\n    {\n      \"client\": 100,"),
            std::string::npos)
      << indented;
  // ...and nothing but layout added (no STATS string holds whitespace).
  auto squeeze = [](std::string text) {
    std::erase_if(text, [](char c) { return std::isspace(c) != 0; });
    return text;
  };
  EXPECT_EQ(squeeze(indented), compact);
}

TEST_F(AdminIntrospectTest, FlightDumpPreHelloShowsTransportThreads) {
  StartServer();
  // Generate a little traffic so the reactor rings hold frame events.
  auto client =
      RemoteDatabaseClient::Connect("127.0.0.1", transport_->port(), 100);
  ASSERT_TRUE(client.ok());
  (void)client.value()->Begin();

  Socket sock = RawConnect();
  const std::string dump = RawAdminCall(sock, Verb::kFlight, {}, 1);
  EXPECT_NE(dump.find("flightdump v1"), std::string::npos);
  EXPECT_NE(dump.find("role=io-loop"), std::string::npos) << dump;
  EXPECT_NE(dump.find("type=frame.in"), std::string::npos) << dump;
  EXPECT_NE(dump.find("end"), std::string::npos);
}

TEST_F(AdminIntrospectTest, ProfileStartDumpStopRoundTrip) {
  StartServer();
  Socket sock = RawConnect();

  // action 0: status while stopped.
  std::vector<uint8_t> args;
  Encoder status_enc(&args);
  status_enc.PutU8(0);
  std::string status = RawAdminCall(sock, Verb::kProfile, args, 1);
  EXPECT_NE(status.find("stopped"), std::string::npos) << status;

  // action 1 + hz: start.
  args.clear();
  Encoder start_enc(&args);
  start_enc.PutU8(1);
  start_enc.PutU32(200);
  status = RawAdminCall(sock, Verb::kProfile, args, 2);
  EXPECT_NE(status.find("running hz=200"), std::string::npos) << status;

  // Traffic while sampling, so worker/io-loop threads are on-CPU at times.
  auto client =
      RemoteDatabaseClient::Connect("127.0.0.1", transport_->port(), 100);
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 200; ++i) (void)client.value()->Begin();

  // action 3: folded dump (may legitimately be empty if every tick landed
  // while all threads slept, so only check it parses as folded lines).
  args.clear();
  Encoder dump_enc(&args);
  dump_enc.PutU8(3);
  const std::string folded = RawAdminCall(sock, Verb::kProfile, args, 3);
  if (!folded.empty()) {
    EXPECT_NE(folded.find_first_of('\n'), std::string::npos);
  }

  // action 2: stop, idempotently.
  args.clear();
  Encoder stop_enc(&args);
  stop_enc.PutU8(2);
  status = RawAdminCall(sock, Verb::kProfile, args, 4);
  EXPECT_NE(status.find("stopped"), std::string::npos) << status;
  status = RawAdminCall(sock, Verb::kProfile, args, 5);
  EXPECT_NE(status.find("stopped"), std::string::npos) << status;
}

TEST_F(AdminIntrospectTest, ServerSideRpcHistogramsAppearAfterTraffic) {
  StartServer();
  auto client =
      RemoteDatabaseClient::Connect("127.0.0.1", transport_->port(), 100);
  ASSERT_TRUE(client.ok());
  (void)client.value()->Begin();

  Socket sock = RawConnect();
  std::vector<uint8_t> args;
  Encoder enc(&args);
  enc.PutU8(0);
  const std::string text = RawAdminCall(sock, Verb::kMetrics, args, 1);
  tools::PromSamples samples = tools::ParsePromText(text);
  // The Hello and Begin the client just issued must have recorded
  // server-side per-opcode histograms.
  EXPECT_GE(tools::SampleOr0(samples, "idba_rpc_Hello_total_us_count"), 1.0);
  EXPECT_GE(tools::SampleOr0(samples, "idba_rpc_Begin_total_us_count"), 1.0);
  // Admin calls are timed per verb: the scrape above shows up as Metrics.
  samples = tools::ParsePromText(RawAdminCall(sock, Verb::kMetrics, args, 2));
  EXPECT_GE(tools::SampleOr0(samples, "idba_rpc_Metrics_total_us_count"), 1.0);
}

}  // namespace
}  // namespace idba
