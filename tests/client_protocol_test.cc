// The client half of cache consistency (paper §3.3, CachingClient) on both
// backends: every case runs against the in-process DatabaseClient and
// against RemoteDatabaseClient over loopback TCP, and pins what each
// protocol method costs in RPCs, what it leaves in the client cache and
// which copies the server registers for callbacks.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "core/session.h"
#include "net/remote_client.h"
#include "net/tcp_server.h"

namespace idba {
namespace {

enum class Backend { kInProcess, kTcp };

std::string BackendName(Backend backend) {
  return backend == Backend::kInProcess ? "InProcess" : "Tcp";
}
void PrintTo(Backend backend, std::ostream* os) { *os << BackendName(backend); }

class ClientProtocolTest : public ::testing::TestWithParam<Backend> {
 protected:
  void SetUp() override {
    // DDL before any remote client connects: Hello snapshots the schema.
    SchemaCatalog& schema = deployment_->server().schema();
    cls_ = schema.DefineClass("Item").value();
    ASSERT_TRUE(
        schema.AddAttribute(cls_, "N", ValueType::kInt, Value(int64_t(0))).ok());
    if (GetParam() == Backend::kTcp) {
      transport_ = std::make_unique<TransportServer>(
          &deployment_->server(), &deployment_->dlm(), &deployment_->bus(),
          &deployment_->meter());
      ASSERT_TRUE(transport_->Start().ok());
    }
    writer_ = NewClient(101, ConsistencyMode::kAvoidance);
    viewer_ = NewClient(100, ConsistencyMode::kAvoidance);
    optimist_ = NewClient(102, ConsistencyMode::kDetection);
    ASSERT_TRUE(writer_ && viewer_ && optimist_);
  }

  void TearDown() override {
    clients_.clear();
    transport_.reset();  // stops threads before the deployment dies
    deployment_.reset();
  }

  ClientApi* NewClient(ClientId id, ConsistencyMode mode) {
    if (GetParam() == Backend::kInProcess) {
      DatabaseClientOptions opts;
      opts.consistency = mode;
      clients_.push_back(std::make_unique<DatabaseClient>(
          &deployment_->server(), id, &deployment_->meter(),
          &deployment_->bus(), opts));
      return clients_.back().get();
    }
    RemoteClientOptions opts;
    opts.consistency = mode;
    auto remote = RemoteDatabaseClient::Connect("127.0.0.1", transport_->port(),
                                                id, opts);
    if (!remote.ok()) {
      ADD_FAILURE() << remote.status().ToString();
      return nullptr;
    }
    clients_.push_back(std::move(remote).value());
    return clients_.back().get();
  }

  /// Inserts an Item with N = n through the writer.
  Oid Seed(int64_t n) {
    TxnId t = writer_->Begin();
    Oid oid = writer_->AllocateOid();
    DatabaseObject obj(oid, cls_, 1);
    obj.Set(0, Value(n));
    EXPECT_TRUE(writer_->Insert(t, std::move(obj)).ok());
    EXPECT_TRUE(writer_->Commit(t).ok());
    return oid;
  }

  /// Sets N = n on `oid` in one read-modify-write transaction of `client`.
  Result<CommitResult> Update(ClientApi* client, Oid oid, int64_t n) {
    TxnId t = client->Begin();
    Result<DatabaseObject> obj = client->Read(t, oid);
    if (!obj.ok()) return obj.status();
    obj.value().Set(0, Value(n));
    IDBA_RETURN_NOT_OK(client->Write(t, std::move(obj).value()));
    return client->Commit(t);
  }

  bool HoldsCopy(ClientApi* client, Oid oid) {
    std::vector<ClientId> holders =
        deployment_->server().callback_manager().CopyHolders(oid);
    return std::find(holders.begin(), holders.end(), client->id()) !=
           holders.end();
  }

  std::unique_ptr<Deployment> deployment_ = std::make_unique<Deployment>();
  std::unique_ptr<TransportServer> transport_;
  std::vector<std::unique_ptr<ClientApi>> clients_;
  ClassId cls_ = 0;
  ClientApi* writer_ = nullptr;
  ClientApi* viewer_ = nullptr;
  ClientApi* optimist_ = nullptr;
};

TEST_P(ClientProtocolTest, AvoidanceReadsCostOneRpcPerMissAndLockOnlyOnHit) {
  Oid x = Seed(1);
  Oid y = Seed(2);
  uint64_t rpcs = viewer_->rpcs_issued();
  ASSERT_TRUE(viewer_->ReadCurrent(x).ok());
  EXPECT_EQ(viewer_->rpcs_issued(), rpcs + 1);  // miss: one fetch
  Result<DatabaseObject> hit = viewer_->ReadCurrent(x);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(viewer_->rpcs_issued(), rpcs + 1);  // hit: free

  TxnId t = viewer_->Begin();
  Result<DatabaseObject> locked = viewer_->Read(t, x);
  ASSERT_TRUE(locked.ok());
  EXPECT_EQ(viewer_->rpcs_issued(), rpcs + 2);  // hit: the lock-only trip
  EXPECT_EQ(locked.value().version(), hit.value().version());
  EXPECT_EQ(locked.value().Get(0), Value(int64_t(1)));
  ASSERT_TRUE(viewer_->Read(t, y).ok());
  EXPECT_EQ(viewer_->rpcs_issued(), rpcs + 3);  // miss: one fetch under S
  EXPECT_TRUE(viewer_->cache().Contains(y));
  EXPECT_TRUE(HoldsCopy(viewer_, y));
  ASSERT_TRUE(viewer_->Abort(t).ok());
}

TEST_P(ClientProtocolTest, AbortEndsTheTransactionInOneRpc) {
  Oid x = Seed(1);
  TxnId t = viewer_->Begin();
  ASSERT_TRUE(viewer_->Read(t, x).ok());
  const uint64_t aborts = deployment_->server().aborts();
  const uint64_t rpcs = viewer_->rpcs_issued();
  ASSERT_TRUE(viewer_->Abort(t).ok());
  EXPECT_EQ(viewer_->rpcs_issued(), rpcs + 1);
  EXPECT_EQ(deployment_->server().aborts(), aborts + 1);
  // The S lock went with the transaction: a writer commits at once.
  ASSERT_TRUE(Update(writer_, x, 5).ok());
  EXPECT_EQ(viewer_->ReadCurrent(x).value().Get(0), Value(int64_t(5)));
}

TEST_P(ClientProtocolTest, CommitReplyRefreshesTheWritersCopyAndEraseDropsIt) {
  Oid x = Seed(1);
  Oid y = Seed(2);
  ASSERT_TRUE(writer_->ReadCurrent(x).ok());
  ASSERT_TRUE(writer_->ReadCurrent(y).ok());
  Result<CommitResult> commit = Update(writer_, x, 7);
  ASSERT_TRUE(commit.ok()) << commit.status().ToString();
  ASSERT_EQ(commit.value().updated.size(), 1u);
  const uint64_t committed = commit.value().updated[0].version();

  // The writer's copy is not called back: the reply refreshed it in place.
  const uint64_t rpcs = writer_->rpcs_issued();
  std::optional<DatabaseObject> cached = writer_->cache().Get(x);
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(cached->version(), committed);
  EXPECT_EQ(writer_->ReadCurrent(x).value().Get(0), Value(int64_t(7)));
  EXPECT_EQ(writer_->rpcs_issued(), rpcs);

  TxnId t = writer_->Begin();
  ASSERT_TRUE(writer_->EraseObject(t, y).ok());
  ASSERT_TRUE(writer_->Commit(t).ok());
  EXPECT_FALSE(writer_->cache().Contains(y));
}

TEST_P(ClientProtocolTest, DetectionAbortsAStaleReadDropsTheCopyAndRetries) {
  Oid x = Seed(1);
  TxnId t1 = optimist_->Begin();
  ASSERT_TRUE(optimist_->Read(t1, x).ok());
  ASSERT_TRUE(optimist_->Abort(t1).ok());
  ASSERT_TRUE(Update(writer_, x, 2).ok());
  ASSERT_TRUE(optimist_->cache().Contains(x));  // stale, never called back

  const uint64_t rpcs = optimist_->rpcs_issued();
  TxnId t2 = optimist_->Begin();
  DatabaseObject stale = optimist_->Read(t2, x).value();
  EXPECT_EQ(optimist_->rpcs_issued(), rpcs);  // a detection hit is free
  EXPECT_EQ(stale.Get(0), Value(int64_t(1)));
  stale.Set(0, Value(int64_t(99)));
  ASSERT_TRUE(optimist_->Write(t2, std::move(stale)).ok());
  Status st = optimist_->Commit(t2).status();
  EXPECT_TRUE(st.IsAborted()) << st.ToString();
  EXPECT_EQ(optimist_->validation_aborts(), 1u);
  EXPECT_FALSE(optimist_->cache().Contains(x));

  TxnId t3 = optimist_->Begin();
  DatabaseObject fresh = optimist_->Read(t3, x).value();
  EXPECT_EQ(fresh.Get(0), Value(int64_t(2)));
  fresh.Set(0, Value(int64_t(3)));
  ASSERT_TRUE(optimist_->Write(t3, std::move(fresh)).ok());
  EXPECT_TRUE(optimist_->Commit(t3).ok());
  EXPECT_EQ(optimist_->validation_aborts(), 1u);
}

TEST_P(ClientProtocolTest, ReadOnlyDetectionTransactionValidatesToo) {
  Oid x = Seed(1);
  ASSERT_TRUE(optimist_->ReadCurrent(x).ok());
  ASSERT_TRUE(Update(writer_, x, 2).ok());
  TxnId t = optimist_->Begin();
  ASSERT_TRUE(optimist_->Read(t, x).ok());
  Status st = optimist_->Commit(t).status();
  EXPECT_TRUE(st.IsAborted()) << st.ToString();
  EXPECT_EQ(optimist_->validation_aborts(), 1u);
  EXPECT_FALSE(optimist_->cache().Contains(x));
}

TEST_P(ClientProtocolTest, OnlyAvoidanceCopiesAreRegisteredForCallbacks) {
  Oid x = Seed(1);
  Oid y = Seed(2);
  ASSERT_TRUE(optimist_->ReadCurrent(x).ok());
  TxnId t = optimist_->Begin();
  ASSERT_TRUE(optimist_->Read(t, y).ok());
  ASSERT_TRUE(optimist_->Abort(t).ok());
  EXPECT_TRUE(optimist_->cache().Contains(x));
  EXPECT_TRUE(optimist_->cache().Contains(y));
  EXPECT_FALSE(HoldsCopy(optimist_, x));
  EXPECT_FALSE(HoldsCopy(optimist_, y));

  ASSERT_TRUE(viewer_->ReadCurrent(x).ok());
  EXPECT_TRUE(HoldsCopy(viewer_, x));
}

TEST_P(ClientProtocolTest, ScanAndQueryResultsAreCachedAndRegistered) {
  std::vector<Oid> oids = {Seed(1), Seed(2), Seed(3)};
  const uint64_t rpcs = viewer_->rpcs_issued();
  Result<std::vector<DatabaseObject>> scan = viewer_->ScanClass(cls_);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan.value().size(), oids.size());
  EXPECT_EQ(viewer_->rpcs_issued(), rpcs + 1);
  for (Oid oid : oids) {
    EXPECT_TRUE(viewer_->cache().Contains(oid));
    EXPECT_TRUE(HoldsCopy(viewer_, oid));
  }

  ObjectQuery query;
  query.cls = cls_;
  query.conjuncts.push_back({"N", CompareOp::kGe, Value(int64_t(2))});
  Result<std::vector<DatabaseObject>> matches = writer_->RunQuery(query);
  ASSERT_TRUE(matches.ok());
  ASSERT_EQ(matches.value().size(), 2u);
  for (const DatabaseObject& obj : matches.value()) {
    EXPECT_TRUE(writer_->cache().Contains(obj.oid()));
    EXPECT_TRUE(HoldsCopy(writer_, obj.oid()));
  }
  EXPECT_FALSE(writer_->cache().Contains(oids[0]));
}

INSTANTIATE_TEST_SUITE_P(ClientProtocol, ClientProtocolTest,
                         ::testing::Values(Backend::kInProcess, Backend::kTcp),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                           return BackendName(info.param);
                         });

}  // namespace
}  // namespace idba
