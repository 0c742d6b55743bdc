// Transport failure handling under injected faults: RPC deadlines against a
// stalled server, indeterminate (Unknown) commit outcomes when the
// connection dies mid-commit, heartbeat-based half-open detection,
// callback-ack timeouts, Reconnect() resume parity, and the bind-address /
// idle-timeout server options.

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <chrono>
#include <csignal>
#include <thread>

#include "client/txn_retry.h"
#include "core/session.h"
#include "net/fault_injector.h"
#include "net/remote_client.h"
#include "net/tcp_server.h"
#include "nms/network_model.h"
#include "obs/audit.h"

namespace idba {
namespace {

using namespace std::chrono_literals;

/// Spins (real time) until `pred` holds or ~5 s elapse.
template <typename Pred>
bool WaitFor(Pred pred) {
  for (int i = 0; i < 500; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(10ms);
  }
  return pred();
}

int64_t ElapsedMs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - since)
      .count();
}

class TransportFaultTest : public ::testing::Test {
 protected:
  void StartServer(TransportServerOptions transport_opts = {},
                   DeploymentOptions opts = {}) {
    deployment_ = std::make_unique<Deployment>(opts);
    transport_ = std::make_unique<TransportServer>(
        &deployment_->server(), &deployment_->dlm(), &deployment_->bus(),
        &deployment_->meter(), transport_opts);
    ASSERT_TRUE(transport_->Start().ok());
    ASSERT_NE(transport_->port(), 0);
  }

  void SeedNms() {
    NmsConfig config;
    config.num_nodes = 8;
    config.sites = 1;
    config.buildings_per_site = 1;
    config.racks_per_building = 1;
    config.devices_per_rack = 1;
    db_ = PopulateNms(&deployment_->server(), config).value();
  }

  std::unique_ptr<RemoteDatabaseClient> Connect(
      ClientId id, RemoteClientOptions opts = {}) {
    auto client =
        RemoteDatabaseClient::Connect("127.0.0.1", transport_->port(), id,
                                      opts);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return client.ok() ? std::move(client).value() : nullptr;
  }

  /// Kills the transport (clients observe a dead connection) and brings a
  /// fresh one up on the same port over the same deployment — a server
  /// process restart from the client's point of view.
  void RestartTransport() {
    uint16_t port = transport_->port();
    transport_->Stop();
    TransportServerOptions opts;
    opts.port = port;
    transport_ = std::make_unique<TransportServer>(
        &deployment_->server(), &deployment_->dlm(), &deployment_->bus(),
        &deployment_->meter(), opts);
    ASSERT_TRUE(transport_->Start().ok());
  }

  /// A full server-process restart: the deployment (database, DLM lock
  /// table, notification bus) is rebuilt from scratch and re-seeded, then a
  /// fresh transport comes up on the same port. Unlike RestartTransport(),
  /// nothing server-side survives — in particular the DLM's OID -> holders
  /// table starts empty, exactly like a crashed-and-recovered process.
  void RestartDeployment(DeploymentOptions opts = {}) {
    uint16_t port = transport_->port();
    NmsConfig config = db_.config;
    transport_->Stop();
    transport_.reset();
    deployment_ = std::make_unique<Deployment>(opts);
    db_ = PopulateNms(&deployment_->server(), config).value();
    TransportServerOptions topts;
    topts.port = port;
    transport_ = std::make_unique<TransportServer>(
        &deployment_->server(), &deployment_->dlm(), &deployment_->bus(),
        &deployment_->meter(), topts);
    ASSERT_TRUE(transport_->Start().ok());
  }

  /// One read-modify-write commit of link `oid`'s Utilization.
  static Status UpdateUtilization(ClientApi* client, Oid oid, double value) {
    Result<TxnId> t = client->BeginTxn();
    IDBA_RETURN_NOT_OK(t.status());
    Result<DatabaseObject> obj = client->Read(t.value(), oid);
    if (!obj.ok()) {
      (void)client->Abort(t.value());
      return obj.status();
    }
    DatabaseObject link = std::move(obj).value();
    IDBA_RETURN_NOT_OK(
        link.SetByName(client->schema(), "Utilization", Value(value)));
    IDBA_RETURN_NOT_OK(client->Write(t.value(), std::move(link)));
    return client->Commit(t.value()).status();
  }

  void TearDown() override {
    transport_.reset();  // stops threads before the deployment dies
    deployment_.reset();
  }

  std::unique_ptr<Deployment> deployment_;
  std::unique_ptr<TransportServer> transport_;
  NmsDatabase db_;
};

TEST_F(TransportFaultTest, StalledServerRpcTimesOutWithinDeadline) {
  StartServer();
  RemoteClientOptions opts;
  opts.rpc_deadline_ms = 200;
  auto client = Connect(100, opts);
  ASSERT_NE(client, nullptr);

  // Every response from here on vanishes: the server is healthy but, as
  // far as this client can tell, stalled.
  auto faults = std::make_shared<FaultInjector>();
  faults->InjectAll(FaultDirection::kRead, FaultKind::kDrop);
  client->set_fault_injector(faults);

  auto start = std::chrono::steady_clock::now();
  Status st = client->BeginTxn().status();
  int64_t elapsed = ElapsedMs(start);
  EXPECT_TRUE(st.IsTimedOut()) << st.ToString();
  EXPECT_GE(elapsed, 150);   // the deadline was actually honored...
  EXPECT_LT(elapsed, 2000);  // ...and the call did not hang.

  // The connection itself survives a deadline miss: lift the fault and the
  // next RPC goes through (the late responses were disowned, not crossed).
  faults->Reset();
  Result<TxnId> txn = client->BeginTxn();
  EXPECT_TRUE(txn.ok()) << txn.status().ToString();
  EXPECT_NE(txn.value(), 0u);
  EXPECT_TRUE(client->connected());
}

TEST_F(TransportFaultTest, DelayedResponseIsDroppedNotCrossed) {
  StartServer();
  RemoteClientOptions opts;
  opts.rpc_deadline_ms = 100;
  auto client = Connect(100, opts);
  ASSERT_NE(client, nullptr);

  auto faults = std::make_shared<FaultInjector>();
  faults->Inject({FaultDirection::kRead, FaultKind::kDelay, /*nth=*/0,
                  /*times=*/1, /*delay_ms=*/400});
  client->set_fault_injector(faults);

  // The response exists but arrives after the deadline: TimedOut, and the
  // late frame must not be matched to a *later* call.
  uint64_t bytes_before = client->bytes_received();
  EXPECT_TRUE(client->BeginTxn().status().IsTimedOut());
  // Wait until the reader has finished consuming the late response (it is
  // counted once fully read) so the next call's response is not stuck
  // behind the injected stall.
  ASSERT_TRUE(
      WaitFor([&] { return client->bytes_received() > bytes_before; }));
  Result<TxnId> txn = client->BeginTxn();
  EXPECT_TRUE(txn.ok()) << txn.status().ToString();
  EXPECT_NE(txn.value(), 0u);
}

TEST_F(TransportFaultTest, WriteDelayInjectionSlowsTheCall) {
  StartServer();
  auto client = Connect(100);
  ASSERT_NE(client, nullptr);

  auto faults = std::make_shared<FaultInjector>();
  faults->Inject({FaultDirection::kWrite, FaultKind::kDelay, /*nth=*/0,
                  /*times=*/1, /*delay_ms=*/150});
  client->set_fault_injector(faults);

  auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(client->BeginTxn().ok());
  EXPECT_GE(ElapsedMs(start), 140);
}

TEST_F(TransportFaultTest, ConnectToClosedPortFailsNotHangs) {
  StartServer();
  uint16_t port = transport_->port();
  transport_->Stop();
  auto start = std::chrono::steady_clock::now();
  auto client = RemoteDatabaseClient::Connect("127.0.0.1", port, 100);
  EXPECT_FALSE(client.ok());
  EXPECT_LT(ElapsedMs(start), 5000);
}

TEST_F(TransportFaultTest, MidCommitDisconnectIsUnknownAndRetrySafe) {
  StartServer();
  SeedNms();
  RemoteClientOptions opts;
  opts.rpc_deadline_ms = 10000;
  auto client = Connect(100, opts);
  ASSERT_NE(client, nullptr);
  Oid oid = db_.link_oids[0];

  Result<TxnId> t = client->BeginTxn();
  ASSERT_TRUE(t.ok());
  DatabaseObject link = client->Read(t.value(), oid).value();
  uint64_t version_before = link.version();
  ASSERT_TRUE(
      link.SetByName(client->schema(), "Utilization", Value(0.66)).ok());
  ASSERT_TRUE(client->Write(t.value(), std::move(link)).ok());

  // Drop exactly the next inbound frame: the commit response. The server
  // *does* execute the commit — only the answer is lost.
  auto faults = std::make_shared<FaultInjector>();
  faults->Inject({FaultDirection::kRead, FaultKind::kDrop, /*nth=*/0,
                  /*times=*/1, /*delay_ms=*/0});
  client->set_fault_injector(faults);

  Status commit_st;
  std::thread committer(
      [&] { commit_st = client->Commit(t.value()).status(); });
  // Once the response has been dropped the server has applied the commit;
  // now the connection dies with the commit still pending client-side.
  ASSERT_TRUE(WaitFor([&] { return faults->faults_fired() >= 1; }));
  transport_->Stop();
  committer.join();

  // Not Aborted, not IOError: the outcome is explicitly indeterminate.
  EXPECT_TRUE(commit_st.IsUnknown()) << commit_st.ToString();
  ASSERT_TRUE(WaitFor([&] { return !client->connected(); }));

  // "Retry" the way RunTransaction would: reconnect, re-read, re-derive.
  faults->Reset();
  RestartTransport();
  ASSERT_TRUE(client->Reconnect().ok());
  EXPECT_EQ(client->reconnects(), 1u);

  // The first commit did apply — the re-read proves why a blind re-send
  // would be wrong and a read-modify-write retry is right.
  DatabaseObject current = client->ReadCurrent(oid).value();
  EXPECT_EQ(current.version(), version_before + 1);
  EXPECT_EQ(current.GetByName(client->schema(), "Utilization").value(),
            Value(0.66));

  ASSERT_TRUE(UpdateUtilization(client.get(), oid, 0.25).ok());
  DatabaseObject after = client->ReadCurrent(oid).value();
  EXPECT_EQ(after.version(), version_before + 2);
}

TEST_F(TransportFaultTest, RunTransactionRecoversViaReconnectHook) {
  StartServer();
  SeedNms();
  auto client = Connect(100);
  ASSERT_NE(client, nullptr);
  Oid oid = db_.link_oids[0];

  // Kill the server out from under the client, then bring it back: the
  // first attempt inside RunTransaction fails with a transport error, the
  // recover hook re-dials, the second attempt commits.
  RestartTransport();
  ASSERT_TRUE(WaitFor([&] { return !client->connected(); }));

  TxnRetryOptions retry;
  retry.recover = [&] { return client->Reconnect(); };
  TxnRetryResult result = RunTransaction(
      client.get(),
      [&](ClientApi& c, TxnId txn) {
        Result<DatabaseObject> obj = c.Read(txn, oid);
        IDBA_RETURN_NOT_OK(obj.status());
        DatabaseObject link = std::move(obj).value();
        IDBA_RETURN_NOT_OK(
            link.SetByName(c.schema(), "Utilization", Value(0.31)));
        return c.Write(txn, std::move(link));
      },
      retry);
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_GE(result.attempts, 2);
  EXPECT_TRUE(client->connected());
  EXPECT_EQ(client->ReadCurrent(oid)
                .value()
                .GetByName(client->schema(), "Utilization")
                .value(),
            Value(0.31));
}

TEST_F(TransportFaultTest, WithoutRecoverHookTransportErrorIsTerminal) {
  StartServer();
  SeedNms();
  auto client = Connect(100);
  ASSERT_NE(client, nullptr);
  transport_->Stop();
  ASSERT_TRUE(WaitFor([&] { return !client->connected(); }));

  TxnRetryOptions retry;  // no recover hook
  TxnRetryResult result = RunTransaction(
      client.get(),
      [&](ClientApi&, TxnId) { return Status::OK(); }, retry);
  EXPECT_EQ(result.status.code(), StatusCode::kIOError)
      << result.status.ToString();
  EXPECT_EQ(result.attempts, 1);
}

TEST_F(TransportFaultTest, CallbackAckTimeoutUnblocksCommit) {
  TransportServerOptions server_opts;
  server_opts.callback_ack_timeout_ms = 100;
  StartServer(server_opts);
  SeedNms();
  auto viewer = Connect(100);
  auto writer = Connect(101);
  ASSERT_NE(viewer, nullptr);
  ASSERT_NE(writer, nullptr);
  Oid oid = db_.link_oids[0];

  // Viewer registers a cached copy, then goes mute: every frame it writes
  // (including the CALLBACK_ACK the writer's commit waits on) is dropped.
  ASSERT_TRUE(viewer->ReadCurrent(oid).ok());
  auto faults = std::make_shared<FaultInjector>();
  faults->InjectAll(FaultDirection::kWrite, FaultKind::kDrop);
  viewer->set_fault_injector(faults);

  auto start = std::chrono::steady_clock::now();
  Status st = UpdateUtilization(writer.get(), oid, 0.5);
  int64_t elapsed = ElapsedMs(start);
  EXPECT_TRUE(st.ok()) << st.ToString();  // dead viewer cannot wedge commits
  EXPECT_LT(elapsed, 4000);
}

TEST_F(TransportFaultTest, HeartbeatDetectsHalfOpenConnection) {
  StartServer();
  RemoteClientOptions opts;
  opts.heartbeat_interval_ms = 50;
  auto client = Connect(100, opts);
  ASSERT_NE(client, nullptr);
  EXPECT_TRUE(client->connected());

  // Server responses stop arriving (the TCP connection stays up): only the
  // heartbeat can notice.
  auto faults = std::make_shared<FaultInjector>();
  faults->InjectAll(FaultDirection::kRead, FaultKind::kDrop);
  client->set_fault_injector(faults);

  ASSERT_TRUE(WaitFor([&] { return !client->connected(); }));
  EXPECT_GE(client->heartbeats_sent(), 1u);
}

TEST_F(TransportFaultTest, ReconnectResumesWorkloadWithParity) {
  StartServer();
  SeedNms();
  auto client = Connect(100);
  ASSERT_NE(client, nullptr);

  // First half of the workload, then the server transport dies and comes
  // back (same database), then the second half after Reconnect().
  for (size_t i = 0; i < db_.link_oids.size(); ++i) {
    ASSERT_TRUE(
        UpdateUtilization(client.get(), db_.link_oids[i], 0.1 * (i + 1)).ok());
  }
  RestartTransport();
  ASSERT_TRUE(WaitFor([&] { return !client->connected(); }));
  ASSERT_TRUE(client->Reconnect().ok());
  EXPECT_EQ(client->cache().entry_count(), 0u);  // dead session's copies gone
  for (size_t i = 0; i < db_.link_oids.size(); ++i) {
    ASSERT_TRUE(
        UpdateUtilization(client.get(), db_.link_oids[i], 0.2 * (i + 1)).ok());
  }

  // Control: the same call sequence against a never-interrupted in-process
  // deployment must land on identical versions and values.
  Deployment control;
  NmsDatabase control_db = PopulateNms(&control.server(), db_.config).value();
  auto session = control.NewSession(100);
  for (size_t i = 0; i < control_db.link_oids.size(); ++i) {
    ASSERT_TRUE(UpdateUtilization(&session->client(),
                                  control_db.link_oids[i], 0.1 * (i + 1))
                    .ok());
    ASSERT_TRUE(UpdateUtilization(&session->client(),
                                  control_db.link_oids[i], 0.2 * (i + 1))
                    .ok());
  }
  for (size_t i = 0; i < db_.link_oids.size(); ++i) {
    DatabaseObject ours = client->ReadCurrent(db_.link_oids[i]).value();
    DatabaseObject theirs =
        session->client().ReadCurrent(control_db.link_oids[i]).value();
    EXPECT_EQ(ours.version(), theirs.version());
    EXPECT_EQ(ours.GetByName(client->schema(), "Utilization").value(),
              theirs.GetByName(session->client().schema(), "Utilization")
                  .value());
  }
}

TEST_F(TransportFaultTest, ReconnectReplaysDisplayLocksToRestartedServer) {
  StartServer();
  SeedNms();
  auto viewer = Connect(100);
  ASSERT_NE(viewer, nullptr);

  // A viewer pins two links into its display, then the whole server process
  // dies and comes back with an empty DLM table.
  Oid watched = db_.link_oids[0];
  ASSERT_TRUE(viewer->Lock(100, watched, viewer->clock().Now()).ok());
  ASSERT_TRUE(
      viewer->LockBatch(100, {db_.link_oids[1]}, viewer->clock().Now()).ok());
  EXPECT_EQ(viewer->held_display_locks(), 2u);

  RestartDeployment();
  ASSERT_TRUE(WaitFor([&] { return !viewer->connected(); }));
  ASSERT_TRUE(viewer->Reconnect().ok());
  // The replay re-registered both locks with the restarted DLM...
  EXPECT_EQ(viewer->held_display_locks(), 2u);
  EXPECT_EQ(deployment_->dlm().holder_count(watched), 1u);
  EXPECT_EQ(deployment_->dlm().holder_count(db_.link_oids[1]), 1u);
  EXPECT_EQ(deployment_->dlm().reregister_requests(), 1u);  // one bulk RPC
  // ...and a synthetic RESYNC told the view layer to refetch everything
  // that changed while we were gone.
  EXPECT_GE(viewer->inbox().DrainAll().size(), 1u);

  // The proof of life: a commit by another client on a watched object must
  // reach the reconnected viewer as a NOTIFY again.
  auto writer = Connect(101);
  ASSERT_NE(writer, nullptr);
  ASSERT_TRUE(UpdateUtilization(writer.get(), watched, 0.5).ok());
  EXPECT_TRUE(WaitFor([&] { return viewer->notifications_received() >= 1; }));

  // Unlocked objects are not replayed by a later reconnect.
  ASSERT_TRUE(
      viewer->Unlock(100, db_.link_oids[1], viewer->clock().Now()).ok());
  EXPECT_EQ(viewer->held_display_locks(), 1u);
}

// Regression (consistency auditor x session recovery): a reconnect to a
// RESTARTED deployment synthesizes a RESYNC, but unlike an overload resync
// the server's virtual clocks started over — post-restart commit vtimes are
// legitimately LOWER than pre-restart ones. Reconnect() must reset the
// auditor's per-subscriber watermarks (OnSessionReset), not replay them:
// with the strict auditor armed, a kept watermark would abort this test on
// the first post-restart notification.
TEST_F(TransportFaultTest, RestartThenCommitDoesNotTripStrictAuditor) {
  obs::ConsistencyAuditor& auditor = obs::GlobalAuditor();
  auditor.ResetForTest();
  auditor.SetMode(obs::AuditMode::kStrict);

  StartServer();
  SeedNms();
  auto viewer = Connect(100);
  auto writer = Connect(101);
  ASSERT_NE(viewer, nullptr);
  ASSERT_NE(writer, nullptr);
  Oid watched = db_.link_oids[0];
  ASSERT_TRUE(viewer->Lock(100, watched, viewer->clock().Now()).ok());

  // Pre-restart stream: several commits drive the watched OID's observed
  // commit vtime well above zero on both the sender and receiver side.
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(UpdateUtilization(writer.get(), watched, i / 10.0).ok());
  }
  ASSERT_TRUE(WaitFor([&] { return viewer->notifications_received() >= 5; }));

  // Full server-process restart: fresh deployment, fresh virtual clocks,
  // same port. Both sessions reconnect; the viewer's lock replay must be
  // preceded by an auditor session reset.
  RestartDeployment();
  ASSERT_TRUE(WaitFor([&] { return !viewer->connected(); }));
  ASSERT_TRUE(WaitFor([&] { return !writer->connected(); }));
  ASSERT_TRUE(viewer->Reconnect().ok());
  ASSERT_TRUE(writer->Reconnect().ok());

  // Post-restart commit: its vtime is far below the pre-restart watermark.
  // With the reset this is clean; without it, strict audit aborts here.
  uint64_t notified_before = viewer->notifications_received();
  ASSERT_TRUE(UpdateUtilization(writer.get(), watched, 0.9).ok());
  ASSERT_TRUE(WaitFor(
      [&] { return viewer->notifications_received() > notified_before; }));

  EXPECT_GT(auditor.checks_total(), 0u);
  EXPECT_EQ(auditor.violations_total(), 0u);
  auditor.ResetForTest();
}

TEST_F(TransportFaultTest, ReconnectWhileConnectedIsRefused) {
  StartServer();
  auto client = Connect(100);
  ASSERT_NE(client, nullptr);
  EXPECT_EQ(client->Reconnect().code(), StatusCode::kInvalidArgument);
}

TEST_F(TransportFaultTest, BeginAndAllocateOidPropagateTransportErrors) {
  StartServer();
  auto client = Connect(100);
  ASSERT_NE(client, nullptr);
  transport_->Stop();
  ASSERT_TRUE(WaitFor([&] { return !client->connected(); }));

  // The Result-returning API surfaces the transport failure...
  EXPECT_EQ(client->BeginTxn().status().code(), StatusCode::kIOError);
  EXPECT_EQ(client->NewOid().status().code(), StatusCode::kIOError);
  // ...and the legacy value-returning wrappers degrade to sentinels
  // instead of silently fabricating usable-looking ids.
  EXPECT_EQ(client->Begin(), 0u);
  EXPECT_TRUE(client->AllocateOid().IsNull());
}

TEST_F(TransportFaultTest, BindAddressIsConfigurable) {
  TransportServerOptions opts;
  opts.bind_host = "0.0.0.0";
  StartServer(opts);
  auto client = Connect(100);  // reachable via loopback
  ASSERT_NE(client, nullptr);
  EXPECT_TRUE(client->BeginTxn().ok());

  TransportServer bad(&deployment_->server(), &deployment_->dlm(),
                      &deployment_->bus(), &deployment_->meter(),
                      TransportServerOptions{/*port=*/0,
                                             /*bind_host=*/"not-an-address"});
  EXPECT_FALSE(bad.Start().ok());
}

TEST_F(TransportFaultTest, ServerIdleTimeoutDropsSilentConnection) {
  TransportServerOptions opts;
  opts.idle_timeout_ms = 100;
  StartServer(opts);

  // A raw connection that never sends a frame (not even Hello) gets cut.
  Result<Socket> raw = Socket::ConnectTo("127.0.0.1", transport_->port());
  ASSERT_TRUE(raw.ok());
  Socket sock = std::move(raw).value();
  wire::FrameHeader header;
  std::vector<uint8_t> payload;
  auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(sock.ReadFrame(&header, &payload).ok());  // EOF from server
  EXPECT_LT(ElapsedMs(start), 5000);
}

TEST_F(TransportFaultTest, TruncatedWriteLeavesPeerStalledUntilDeadline) {
  StartServer();
  RemoteClientOptions opts;
  opts.rpc_deadline_ms = 200;
  auto client = Connect(100, opts);
  ASSERT_NE(client, nullptr);

  // Half the request reaches the wire; the server reader sits on a partial
  // frame, so no response ever comes — the deadline is the only way out.
  auto faults = std::make_shared<FaultInjector>();
  faults->Inject({FaultDirection::kWrite, FaultKind::kTruncate, /*nth=*/0,
                  /*times=*/1, /*delay_ms=*/0});
  client->set_fault_injector(faults);
  EXPECT_TRUE(client->BeginTxn().status().IsTimedOut());
}

TEST_F(TransportFaultTest, WriteErrorInjectionFailsTheCallImmediately) {
  StartServer();
  auto client = Connect(100);
  ASSERT_NE(client, nullptr);
  auto faults = std::make_shared<FaultInjector>();
  faults->Inject({FaultDirection::kWrite, FaultKind::kError, /*nth=*/0,
                  /*times=*/1, /*delay_ms=*/0});
  client->set_fault_injector(faults);
  // Nothing was sent, so this is a definite IOError, not Unknown.
  EXPECT_EQ(client->BeginTxn().status().code(), StatusCode::kIOError);
  // The next call (fault exhausted) is healthy.
  EXPECT_TRUE(client->BeginTxn().ok());
}

// --- NOTIFY fan-out soak ---------------------------------------------------
//
// A big population of raw subscriber sockets (one D lock each on a
// hot object) all receive every committed update, and the transport
// serializes each update's NOTIFY body exactly once: the fanout counters
// show one encode per distinct message and a reuse for every other
// subscriber. Under sanitizers the population shrinks (same code paths,
// smaller constants).
TEST_F(TransportFaultTest, ThousandSubscriberFanoutSerializesOnce) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  constexpr int kSubscribers = 128;
#else
  constexpr int kSubscribers = 1000;
#endif
  constexpr int kCommits = 3;
  StartServer();
  SeedNms();
  Oid hot = db_.link_oids[0];

  // Raw subscribers: Hello (ending in the wire version byte), then one
  // display lock on the hot object. No reader thread per socket — frames
  // accumulate in each socket's kernel buffer until the test drains them.
  std::vector<Socket> subs;
  subs.reserve(kSubscribers);
  std::mutex write_mu;
  for (int i = 0; i < kSubscribers; ++i) {
    Result<Socket> raw = Socket::ConnectTo("127.0.0.1", transport_->port());
    ASSERT_TRUE(raw.ok()) << raw.status().ToString();
    Socket sock = std::move(raw).value();
    const uint64_t id = 10000 + i;
    {
      std::vector<uint8_t> payload;
      Encoder enc(&payload);
      enc.PutU8(static_cast<uint8_t>(wire::Method::kHello));
      enc.PutI64(0);  // client_now
      enc.PutU64(id);
      enc.PutU8(0);  // kAvoidance
      enc.PutU8(wire::kWireVersion);
      ASSERT_TRUE(
          sock.WriteFrame(write_mu, wire::FrameType::kRequest, 1, payload)
              .ok());
      wire::FrameHeader header;
      std::vector<uint8_t> reply;
      ASSERT_TRUE(sock.ReadFrame(&header, &reply).ok());
    }
    {
      std::vector<uint8_t> payload;
      Encoder enc(&payload);
      enc.PutU8(static_cast<uint8_t>(wire::Method::kDlmLock));
      enc.PutI64(0);           // client_now
      enc.PutI64(0);           // sent_at
      enc.PutU64(id);          // holder
      enc.PutU64(hot.value);   // oid
      ASSERT_TRUE(
          sock.WriteFrame(write_mu, wire::FrameType::kRequest, 2, payload)
              .ok());
      wire::FrameHeader header;
      std::vector<uint8_t> reply;
      ASSERT_TRUE(sock.ReadFrame(&header, &reply).ok());
    }
    subs.push_back(std::move(sock));
  }

  const uint64_t encodes_before = transport_->fanout_encodes();
  const uint64_t reuses_before = transport_->fanout_reuses();

  auto writer = Connect(999);
  ASSERT_NE(writer, nullptr);
  for (int c = 0; c < kCommits; ++c) {
    ASSERT_TRUE(UpdateUtilization(writer.get(), hot, 0.10 + 0.01 * c).ok());
  }

  // Every subscriber sees every commit, in order.
  for (Socket& sock : subs) {
    ASSERT_TRUE(sock.SetRecvTimeout(10000).ok());
    for (int c = 0; c < kCommits; ++c) {
      wire::FrameHeader header;
      std::vector<uint8_t> frame;
      ASSERT_TRUE(sock.ReadFrame(&header, &frame).ok());
      EXPECT_EQ(header.type, wire::FrameType::kNotify);
    }
  }

  // Single-serialization invariant: each commit's notification body was
  // encoded once and reused for the other kSubscribers-1 connections.
  const uint64_t encodes = transport_->fanout_encodes() - encodes_before;
  const uint64_t reuses = transport_->fanout_reuses() - reuses_before;
  EXPECT_EQ(encodes, static_cast<uint64_t>(kCommits));
  EXPECT_EQ(reuses, static_cast<uint64_t>(kCommits) * (kSubscribers - 1));
}

// SIGPIPE regression: subscribers vanish (RST, not FIN) while the server
// still owes them a large NOTIFY backlog. A bare writev on such a socket
// raises SIGPIPE, whose default disposition kills the process — the
// transport must ignore it (TransportServer::Start installs SIG_IGN; this
// test restores SIG_DFL first so the ignore demonstrably comes from the
// server, not from the test harness or gtest).
TEST_F(TransportFaultTest, ClientDisconnectDuringNotifyBacklogSurvivesSigpipe) {
  std::signal(SIGPIPE, SIG_DFL);
  StartServer();
  SeedNms();
  Oid hot = db_.link_oids[0];

  // Raw subscribers take a display lock on the hot object and then
  // never read: every commit below queues a NOTIFY for each of them.
  constexpr int kSubscribers = 4;
  std::vector<Socket> subs;
  std::mutex write_mu;
  for (int i = 0; i < kSubscribers; ++i) {
    Result<Socket> raw = Socket::ConnectTo("127.0.0.1", transport_->port());
    ASSERT_TRUE(raw.ok()) << raw.status().ToString();
    Socket sock = std::move(raw).value();
    const uint64_t id = 20000 + i;
    {
      std::vector<uint8_t> payload;
      Encoder enc(&payload);
      enc.PutU8(static_cast<uint8_t>(wire::Method::kHello));
      enc.PutI64(0);  // client_now
      enc.PutU64(id);
      enc.PutU8(0);  // kAvoidance
      enc.PutU8(wire::kWireVersion);
      ASSERT_TRUE(
          sock.WriteFrame(write_mu, wire::FrameType::kRequest, 1, payload)
              .ok());
      wire::FrameHeader header;
      std::vector<uint8_t> reply;
      ASSERT_TRUE(sock.ReadFrame(&header, &reply).ok());
    }
    {
      std::vector<uint8_t> payload;
      Encoder enc(&payload);
      enc.PutU8(static_cast<uint8_t>(wire::Method::kDlmLock));
      enc.PutI64(0);          // client_now
      enc.PutI64(0);          // sent_at
      enc.PutU64(id);         // holder
      enc.PutU64(hot.value);  // oid
      ASSERT_TRUE(
          sock.WriteFrame(write_mu, wire::FrameType::kRequest, 2, payload)
              .ok());
      wire::FrameHeader header;
      std::vector<uint8_t> reply;
      ASSERT_TRUE(sock.ReadFrame(&header, &reply).ok());
    }
    subs.push_back(std::move(sock));
  }

  auto writer = Connect(300);
  ASSERT_NE(writer, nullptr);
  // Build the backlog while the subscribers are alive but not reading.
  for (int c = 0; c < 10; ++c) {
    ASSERT_TRUE(UpdateUtilization(writer.get(), hot, 0.10 + 0.01 * c).ok());
  }

  // Abrupt death: SO_LINGER(0) turns close() into an immediate RST, and
  // the unread NOTIFY frames in each receive queue guarantee the reset is
  // sent. The server learns of it only when its next flush writes.
  for (Socket& sock : subs) {
    struct linger lg {1, 0};
    (void)::setsockopt(sock.fd(), SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
  }
  subs.clear();  // closes the fds

  // Keep committing: each commit makes the server flush NOTIFYs into the
  // reset sockets until it notices and reaps them. With SIGPIPE at
  // SIG_DFL and no SIG_IGN in the transport, this loop kills the process.
  for (int c = 0; c < 10; ++c) {
    ASSERT_TRUE(UpdateUtilization(writer.get(), hot, 0.20 + 0.01 * c).ok());
  }

  // The server is still healthy: fresh connections work end-to-end.
  auto bystander = Connect(301);
  ASSERT_NE(bystander, nullptr);
  Result<DatabaseObject> fresh = bystander->ReadCurrent(hot);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
}

}  // namespace
}  // namespace idba
