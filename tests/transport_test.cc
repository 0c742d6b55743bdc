// End-to-end tests of the TCP transport: a TransportServer on an ephemeral
// loopback port, RemoteDatabaseClients speaking the wire protocol, and the
// display layer (DLC + ActiveView) running unchanged on top of them.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "core/session.h"
#include "net/remote_client.h"
#include "net/tcp_server.h"
#include "nms/display_classes.h"
#include "nms/network_model.h"

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

class TransportTest : public ::testing::Test {
 protected:
  void StartServer(DeploymentOptions opts = {}) {
    deployment_ = std::make_unique<Deployment>(opts);
    transport_ = std::make_unique<TransportServer>(
        &deployment_->server(), &deployment_->dlm(), &deployment_->bus(),
        &deployment_->meter());
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
        RemoteDatabaseClient::Connect("127.0.0.1", transport_->port(), id, opts);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  void TearDown() override {
    transport_.reset();  // stops threads before the deployment dies
    deployment_.reset();
  }

  std::unique_ptr<Deployment> deployment_;
  std::unique_ptr<TransportServer> transport_;
  NmsDatabase db_;
};

TEST_F(TransportTest, ScanReCachingAnEvictedCopyKeepsItsCallback) {
  StartServer();
  auto writer = Connect(101);
  ASSERT_NE(writer, nullptr);
  ClassId cls = writer->DefineClass("Row").value();
  ASSERT_TRUE(writer->AddAttribute(cls, "N", ValueType::kDouble).ok());
  // Six rows; the last one is last in scan order.
  std::vector<Oid> oids;
  for (int i = 0; i < 6; ++i) {
    TxnId t = writer->Begin();
    Oid oid = writer->AllocateOid();
    DatabaseObject obj = NewObject(writer->schema(), cls, oid);
    ASSERT_TRUE(obj.SetByName(writer->schema(), "N", Value(0.5)).ok());
    ASSERT_TRUE(writer->Insert(t, std::move(obj)).ok());
    ASSERT_TRUE(writer->Commit(t).ok());
    oids.push_back(oid);
  }
  const Oid last = oids.back();
  DatabaseServer& server = deployment_->server();
  const size_t one = server.heap().Read(last).value().MemoryBytes();
  // A cache of three copies: the scan evicts the copy of `last` read below
  // before it re-caches `last` as its final row.
  RemoteClientOptions opts;
  opts.cache.capacity_bytes = 3 * one + one / 2;
  auto viewer = Connect(100, opts);
  ASSERT_NE(viewer, nullptr);
  ASSERT_TRUE(viewer->ReadCurrent(last).ok());
  ASSERT_TRUE(viewer->ScanClass(cls, false).ok());
  ASSERT_TRUE(viewer->cache().Contains(last));
  // One round trip on the viewer's connection: the server has handled
  // every eviction notice the scan sent before it.
  ASSERT_TRUE(viewer->NewOid().ok());
  const std::vector<ClientId> holders =
      server.callback_manager().CopyHolders(last);
  EXPECT_NE(std::find(holders.begin(), holders.end(), 100u), holders.end());

  // A later commit must call the viewer's copy back.
  TxnId t = writer->Begin();
  DatabaseObject obj = writer->Read(t, last).value();
  ASSERT_TRUE(obj.SetByName(writer->schema(), "N", Value(0.99)).ok());
  ASSERT_TRUE(writer->Write(t, std::move(obj)).ok());
  ASSERT_TRUE(writer->Commit(t).ok());
  EXPECT_EQ(
      viewer->ReadCurrent(last).value().GetByName(viewer->schema(), "N").value(),
      Value(0.99));
}

TEST_F(TransportTest, HelloSnapshotsServerSchema) {
  StartServer();
  SeedNms();
  auto client = Connect(100);
  ASSERT_NE(client, nullptr);
  // The schema defined server-side (by PopulateNms) arrived with Hello.
  const ClassDef* link = client->schema().Find(db_.schema.link);
  ASSERT_NE(link, nullptr);
  EXPECT_EQ(link->name(), "Link");
}

TEST_F(TransportTest, RemoteDdlReplaysLocally) {
  StartServer();
  auto client = Connect(100);
  ASSERT_NE(client, nullptr);
  Result<ClassId> cls = client->DefineClass("Widget");
  ASSERT_TRUE(cls.ok()) << cls.status().ToString();
  ASSERT_TRUE(
      client->AddAttribute(cls.value(), "Weight", ValueType::kDouble).ok());
  // Both catalogs agree: local copy resolves the attribute, and a second
  // client's Hello snapshot sees the class defined through the first.
  EXPECT_NE(client->schema().Find(cls.value()), nullptr);
  auto second = Connect(101);
  ASSERT_NE(second, nullptr);
  ASSERT_NE(second->schema().Find(cls.value()), nullptr);
  EXPECT_EQ(second->schema().Find(cls.value())->name(), "Widget");
}

TEST_F(TransportTest, CrudRoundTripsAcrossClients) {
  StartServer();
  auto writer = Connect(100);
  ASSERT_NE(writer, nullptr);

  ClassId cls = writer->DefineClass("Item").value();
  ASSERT_TRUE(writer->AddAttribute(cls, "Count", ValueType::kInt).ok());

  // Connect after the DDL: a client's schema snapshot is taken at Hello
  // (setup phase precedes connections, like any client-server DBMS here).
  auto reader = Connect(101);
  ASSERT_NE(reader, nullptr);

  Oid oid = writer->AllocateOid();
  ASSERT_FALSE(oid.IsNull());
  TxnId t = writer->Begin();
  DatabaseObject obj = NewObject(writer->schema(), cls, oid);
  ASSERT_TRUE(
      obj.SetByName(writer->schema(), "Count", Value(int64_t{7})).ok());
  ASSERT_TRUE(writer->Insert(t, obj).ok());
  ASSERT_TRUE(writer->Commit(t).ok());

  // The other client — other cache, same wire — sees the committed image.
  Result<DatabaseObject> got = reader->ReadCurrent(oid);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value().GetByName(reader->schema(), "Count").value(),
            Value(int64_t{7}));
  EXPECT_EQ(reader->LatestVersion(oid).value(), got.value().version());

  // Erase propagates too.
  TxnId t2 = writer->Begin();
  ASSERT_TRUE(writer->EraseObject(t2, oid).ok());
  ASSERT_TRUE(writer->Commit(t2).ok());
  EXPECT_TRUE(reader->LatestVersion(oid).status().IsNotFound());
}

TEST_F(TransportTest, CommitInvalidatesRemoteCachedCopies) {
  StartServer();
  SeedNms();
  auto viewer = Connect(100);
  auto writer = Connect(101);
  ASSERT_NE(viewer, nullptr);
  ASSERT_NE(writer, nullptr);
  Oid oid = db_.link_oids[0];

  // Both cache the link (avoidance mode registers the copies server-side).
  ASSERT_TRUE(viewer->ReadCurrent(oid).ok());
  ASSERT_TRUE(writer->ReadCurrent(oid).ok());
  ASSERT_TRUE(viewer->cache().Contains(oid));

  // Writer commits an update. The CALLBACK -> CALLBACK_ACK exchange with
  // the viewer completes *before* the commit returns, so the viewer's
  // cache is guaranteed clean of the stale copy here — no waiting.
  TxnId t = writer->Begin();
  DatabaseObject link = writer->Read(t, oid).value();
  ASSERT_TRUE(
      link.SetByName(writer->schema(), "Utilization", Value(0.93)).ok());
  ASSERT_TRUE(writer->Write(t, std::move(link)).ok());
  ASSERT_TRUE(writer->Commit(t).ok());

  EXPECT_FALSE(viewer->cache().Contains(oid));
  EXPECT_GE(viewer->callbacks_served(), 1u);
  Result<DatabaseObject> fresh = viewer->ReadCurrent(oid);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh.value().GetByName(viewer->schema(), "Utilization").value(),
            Value(0.93));
}

TEST_F(TransportTest, DisplayLockNotificationCrossesTheWire) {
  StartServer();
  SeedNms();
  auto viewer = Connect(100);
  auto writer = Connect(101);
  ASSERT_NE(viewer, nullptr);
  ASSERT_NE(writer, nullptr);
  Oid oid = db_.link_oids[0];

  // Viewer registers a display lock with the server-hosted DLM.
  ASSERT_TRUE(viewer->Lock(viewer->id(), oid, viewer->clock().Now()).ok());

  // Writer commits; the DLM notifies the holder; the notification frame
  // arrives asynchronously in the viewer's inbox.
  TxnId t = writer->Begin();
  DatabaseObject link = writer->Read(t, oid).value();
  ASSERT_TRUE(
      link.SetByName(writer->schema(), "Utilization", Value(0.42)).ok());
  ASSERT_TRUE(writer->Write(t, std::move(link)).ok());
  ASSERT_TRUE(writer->Commit(t).ok());

  ASSERT_TRUE(WaitFor([&] { return viewer->inbox().pending() > 0; }));
  auto env = viewer->inbox().Poll();
  ASSERT_TRUE(env.has_value());
  EXPECT_EQ(env->to, static_cast<EndpointId>(viewer->id()));
  auto* update = dynamic_cast<const UpdateNotifyMessage*>(env->msg.get());
  ASSERT_NE(update, nullptr);
  ASSERT_EQ(update->updated.size(), 1u);
  EXPECT_EQ(update->updated[0], oid);
  EXPECT_TRUE(update->committed);

  // Non-holders stay quiet.
  EXPECT_EQ(writer->notifications_received(), 0u);
}

TEST_F(TransportTest, ActiveViewRefreshesOverRemoteBackend) {
  StartServer();
  SeedNms();
  NmsDisplayClasses dcs =
      RegisterNmsDisplayClasses(&deployment_->display_schema(),
                                deployment_->server().schema(), db_.schema)
          .value();

  auto remote = Connect(100);
  ASSERT_NE(remote, nullptr);
  RemoteDatabaseClient* raw = remote.get();
  // Backend-agnostic session: the remote client is both the ClientApi and
  // the DisplayLockService; notifications flow through its own inbox.
  InteractiveSession session(std::move(remote), raw, /*bus=*/nullptr);

  auto writer = Connect(101);
  ASSERT_NE(writer, nullptr);

  ActiveView* view = session.CreateView("links");
  const DisplayClassDef* dc =
      deployment_->display_schema().Find(dcs.color_coded_link);
  ASSERT_NE(dc, nullptr);
  Oid oid = db_.link_oids[0];
  ASSERT_TRUE(view->Materialize(dc, {oid}).ok());

  TxnId t = writer->Begin();
  DatabaseObject link = writer->Read(t, oid).value();
  ASSERT_TRUE(
      link.SetByName(writer->schema(), "Utilization", Value(0.95)).ok());
  ASSERT_TRUE(writer->Write(t, std::move(link)).ok());
  ASSERT_TRUE(writer->Commit(t).ok());

  ASSERT_TRUE(WaitFor([&] { return session.client().inbox().pending() > 0; }));
  EXPECT_EQ(session.PumpOnce(), 1);
  EXPECT_EQ(view->refreshes(), 1u);
  auto dobs = view->display_objects();
  ASSERT_EQ(dobs.size(), 1u);
  EXPECT_EQ(dobs[0]->Get("Utilization").value(), Value(0.95));
  EXPECT_EQ(dobs[0]->Get("Color").value(), Value("red"));
}

/// The representative workload of the parity test: bulk display read, a few
/// update transactions, an abort, a scan. Identical call sequence against
/// either backend.
void RunWorkload(ClientApi* client, const NmsDatabase& db) {
  const SchemaCatalog& cat = client->schema();
  for (Oid oid : db.link_oids) {
    ASSERT_TRUE(client->ReadCurrent(oid).ok());
  }
  for (int i = 0; i < 3; ++i) {
    Oid oid = db.link_oids[i % db.link_oids.size()];
    TxnId t = client->Begin();
    DatabaseObject link = client->Read(t, oid).value();
    ASSERT_TRUE(
        link.SetByName(cat, "Utilization", Value(0.2 * (i + 1))).ok());
    ASSERT_TRUE(client->Write(t, std::move(link)).ok());
    ASSERT_TRUE(client->Commit(t).ok());
  }
  TxnId t = client->Begin();
  ASSERT_TRUE(client->Read(t, db.link_oids[0]).ok());
  ASSERT_TRUE(client->Abort(t).ok());
  auto scanned = client->ScanClass(db.schema.link);
  ASSERT_TRUE(scanned.ok());
  ASSERT_EQ(scanned.value().size(), db.link_oids.size());
}

/// Final object states visible through a client: (version, utilization).
std::vector<std::pair<uint64_t, Value>> Fingerprint(ClientApi* client,
                                                    const NmsDatabase& db) {
  std::vector<std::pair<uint64_t, Value>> out;
  for (Oid oid : db.link_oids) {
    DatabaseObject obj = client->ReadCurrent(oid).value();
    out.emplace_back(obj.version(),
                     obj.GetByName(client->schema(), "Utilization").value());
  }
  return out;
}

TEST_F(TransportTest, WorkloadParityWithInProcessBackend) {
  // Remote run.
  StartServer();
  SeedNms();
  auto remote = Connect(100);
  ASSERT_NE(remote, nullptr);
  RunWorkload(remote.get(), db_);
  auto remote_fp = Fingerprint(remote.get(), db_);
  uint64_t remote_rpcs = remote->rpcs_issued();
  uint64_t remote_commits = deployment_->server().commits();

  // In-process run: fresh deployment, same seed, same call sequence.
  Deployment local_dep;
  NmsDatabase local_db = PopulateNms(&local_dep.server(), db_.config).value();
  auto session = local_dep.NewSession(100);
  RunWorkload(&session->client(), local_db);
  auto local_fp = Fingerprint(&session->client(), local_db);

  EXPECT_EQ(remote_fp, local_fp);
  EXPECT_EQ(remote_rpcs, session->client().rpcs_issued());
  EXPECT_EQ(remote_commits, local_dep.server().commits());
}

TEST_F(TransportTest, DuplicateClientIdRejected) {
  StartServer();
  auto first = Connect(100);
  ASSERT_NE(first, nullptr);
  auto second = RemoteDatabaseClient::Connect("127.0.0.1", transport_->port(),
                                              /*id=*/100);
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kAlreadyExists)
      << second.status().ToString();
  // The id frees up once the first client disconnects.
  first.reset();
  ASSERT_TRUE(WaitFor([&] {
    return RemoteDatabaseClient::Connect("127.0.0.1", transport_->port(), 100)
        .ok();
  }));
}

TEST_F(TransportTest, RequestBeforeHelloIsRejected) {
  StartServer();
  Result<Socket> raw = Socket::ConnectTo("127.0.0.1", transport_->port());
  ASSERT_TRUE(raw.ok());
  Socket sock = std::move(raw).value();
  std::mutex mu;
  std::vector<uint8_t> payload;
  Encoder enc(&payload);
  enc.PutU8(static_cast<uint8_t>(wire::Method::kBegin));
  enc.PutI64(0);
  ASSERT_TRUE(
      sock.WriteFrame(mu, wire::FrameType::kRequest, 1, payload).ok());
  wire::FrameHeader header;
  std::vector<uint8_t> reply;
  ASSERT_TRUE(sock.ReadFrame(&header, &reply).ok());
  EXPECT_EQ(header.type, wire::FrameType::kResponse);
  Decoder dec(reply.data(), reply.size());
  Status remote;
  ASSERT_TRUE(wire::DecodeStatus(&dec, &remote).ok());
  EXPECT_EQ(remote.code(), StatusCode::kInvalidArgument) << remote.ToString();
}

TEST_F(TransportTest, MalformedFrameDropsConnection) {
  StartServer();
  Result<Socket> raw = Socket::ConnectTo("127.0.0.1", transport_->port());
  ASSERT_TRUE(raw.ok());
  Socket sock = std::move(raw).value();
  // Frame type 99 does not exist; the server must drop the connection
  // rather than wedge or crash.
  uint8_t junk[wire::kHeaderBytes] = {};
  junk[4] = 99;
  ASSERT_TRUE(sock.SendAll(junk, sizeof(junk)).ok());
  wire::FrameHeader header;
  std::vector<uint8_t> reply;
  EXPECT_FALSE(sock.ReadFrame(&header, &reply).ok());  // EOF: disconnected

  // And the server keeps serving well-formed clients afterwards.
  auto client = Connect(100);
  ASSERT_NE(client, nullptr);
  EXPECT_FALSE(client->Begin() == 0);
}

TEST_F(TransportTest, OversizedPayloadDropsConnection) {
  StartServer();
  Result<Socket> raw = Socket::ConnectTo("127.0.0.1", transport_->port());
  ASSERT_TRUE(raw.ok());
  Socket sock = std::move(raw).value();
  wire::FrameHeader header;
  header.payload_len = wire::kMaxPayloadBytes + 1;
  header.type = wire::FrameType::kRequest;
  header.seq = 1;
  uint8_t out[wire::kHeaderBytes];
  wire::EncodeHeader(header, out);
  ASSERT_TRUE(sock.SendAll(out, sizeof(out)).ok());
  std::vector<uint8_t> reply;
  EXPECT_FALSE(sock.ReadFrame(&header, &reply).ok());
}

TEST_F(TransportTest, DetectionModeValidatesOverTheWire) {
  StartServer();
  SeedNms();
  RemoteClientOptions detection;
  detection.consistency = ConsistencyMode::kDetection;
  auto optimist = Connect(100, detection);
  auto writer = Connect(101);
  ASSERT_NE(optimist, nullptr);
  ASSERT_NE(writer, nullptr);
  Oid oid = db_.link_oids[0];

  // Optimist reads (stale copy allowed, untracked by the server)...
  TxnId t = optimist->Begin();
  DatabaseObject stale = optimist->Read(t, oid).value();

  // ...a writer slips in a commit...
  TxnId wt = writer->Begin();
  DatabaseObject link = writer->Read(wt, oid).value();
  ASSERT_TRUE(
      link.SetByName(writer->schema(), "Utilization", Value(0.77)).ok());
  ASSERT_TRUE(writer->Write(wt, std::move(link)).ok());
  ASSERT_TRUE(writer->Commit(wt).ok());

  // ...so the optimist's commit-time validation must abort.
  ASSERT_TRUE(
      stale.SetByName(optimist->schema(), "Utilization", Value(0.11)).ok());
  ASSERT_TRUE(optimist->Write(t, std::move(stale)).ok());
  Status st = optimist->Commit(t).status();
  EXPECT_TRUE(st.IsAborted()) << st.ToString();
  EXPECT_EQ(optimist->validation_aborts(), 1u);
  // The retry sees the current image and succeeds.
  TxnId t2 = optimist->Begin();
  DatabaseObject fresh = optimist->Read(t2, oid).value();
  EXPECT_EQ(fresh.GetByName(optimist->schema(), "Utilization").value(),
            Value(0.77));
  ASSERT_TRUE(
      fresh.SetByName(optimist->schema(), "Utilization", Value(0.11)).ok());
  ASSERT_TRUE(optimist->Write(t2, std::move(fresh)).ok());
  EXPECT_TRUE(optimist->Commit(t2).ok());
}

TEST_F(TransportTest, ConcurrentCommittersDoNotDeadlock) {
  StartServer();
  SeedNms();
  auto a = Connect(100);
  auto b = Connect(101);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  Oid oid_a = db_.link_oids[0];
  Oid oid_b = db_.link_oids[1];
  // Cross-cache: each client caches the object the *other* one updates, so
  // every commit must call back into the opposite client while that client
  // may itself be blocked committing.
  ASSERT_TRUE(a->ReadCurrent(oid_b).ok());
  ASSERT_TRUE(b->ReadCurrent(oid_a).ok());

  auto updater = [](ClientApi* client, Oid oid, int rounds) {
    for (int i = 0; i < rounds; ++i) {
      TxnId t = client->Begin();
      Result<DatabaseObject> obj = client->Read(t, oid);
      if (!obj.ok()) {
        (void)client->Abort(t);
        continue;
      }
      DatabaseObject link = std::move(obj).value();
      ASSERT_TRUE(link.SetByName(client->schema(), "Utilization",
                                 Value(0.01 * (i + 1)))
                      .ok());
      ASSERT_TRUE(client->Write(t, std::move(link)).ok());
      Status st = client->Commit(t).status();
      ASSERT_TRUE(st.ok() || st.IsDeadlock() || st.IsAborted())
          << st.ToString();
    }
  };
  std::thread ta([&] { updater(a.get(), oid_a, 20); });
  std::thread tb([&] { updater(b.get(), oid_b, 20); });
  ta.join();
  tb.join();
  EXPECT_GE(deployment_->server().commits(), 2u);
}

}  // namespace
}  // namespace idba
