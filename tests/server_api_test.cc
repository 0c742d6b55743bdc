// DatabaseServer API edge cases and cost-accounting contracts.
#include <filesystem>

#include <gtest/gtest.h>

#include "client/database_client.h"
#include "core/session.h"

namespace idba {
namespace {

class ServerApiTest : public ::testing::Test {
 protected:
  ServerApiTest() {
    cls_ = server_.schema().DefineClass("Item").value();
    EXPECT_TRUE(server_.schema()
                    .AddAttribute(cls_, "Payload", ValueType::kString)
                    .ok());
  }

  Oid Insert(const std::string& payload) {
    TxnId t = server_.Begin(0);
    Oid oid = server_.AllocateOid();
    DatabaseObject obj(oid, cls_, 1);
    obj.Set(0, Value(payload));
    EXPECT_TRUE(server_.Insert(0, t, std::move(obj), nullptr).ok());
    EXPECT_TRUE(server_.Commit(0, t, nullptr).ok());
    return oid;
  }

  DatabaseServer server_;
  ClassId cls_;
};

TEST_F(ServerApiTest, FetchAccountsBytesAndMisses) {
  Oid oid = Insert(std::string(500, 'p'));
  ASSERT_TRUE(server_.Checkpoint().ok());
  server_.buffer_pool().DropAllNoFlush();

  ServerCallInfo info;
  TxnId t = server_.Begin(7);
  auto obj = server_.Fetch(7, t, oid, &info);
  ASSERT_TRUE(obj.ok());
  EXPECT_GT(info.request_bytes, 0);
  // The reply carries the object: at least the payload's size.
  EXPECT_GT(info.response_bytes, 500);
  EXPECT_GE(info.page_misses, 1);
  ASSERT_TRUE(server_.Commit(7, t, nullptr).ok());

  // Warm fetch: no physical read.
  ServerCallInfo warm;
  TxnId t2 = server_.Begin(7);
  ASSERT_TRUE(server_.Fetch(7, t2, oid, &warm).ok());
  EXPECT_EQ(warm.page_misses, 0);
  ASSERT_TRUE(server_.Commit(7, t2, nullptr).ok());
}

TEST_F(ServerApiTest, FetchCurrentMissingOidIsNotFound) {
  ServerCallInfo info;
  EXPECT_EQ(server_.FetchCurrent(7, Oid(999), &info).status().code(),
            StatusCode::kNotFound);
  EXPECT_GT(info.request_bytes, 0);  // the failed request still traveled
}

TEST_F(ServerApiTest, AbortUnknownTxnIsNotFound) {
  EXPECT_EQ(server_.Abort(0, 424242, nullptr).code(), StatusCode::kNotFound);
  EXPECT_EQ(server_.Commit(0, 424242, nullptr).status().code(),
            StatusCode::kNotFound);
}

TEST_F(ServerApiTest, AllocateOidIsMonotonicAndUnique) {
  Oid a = server_.AllocateOid();
  Oid b = server_.AllocateOid();
  Oid c = server_.AllocateOid();
  EXPECT_LT(a.value, b.value);
  EXPECT_LT(b.value, c.value);
}

TEST_F(ServerApiTest, ScanClassAccountsResponseBytes) {
  for (int i = 0; i < 5; ++i) Insert("payload-" + std::to_string(i));
  ServerCallInfo info;
  auto objs = server_.ScanClass(7, cls_, false, &info);
  ASSERT_TRUE(objs.ok());
  EXPECT_EQ(objs.value().size(), 5u);
  int64_t expected = 0;
  for (const auto& obj : objs.value()) {
    expected += static_cast<int64_t>(obj.WireBytes());
  }
  EXPECT_GE(info.response_bytes, expected);
}

TEST_F(ServerApiTest, CheckpointOnEmptyServerIsFine) {
  EXPECT_TRUE(server_.Checkpoint().ok());
  EXPECT_TRUE(server_.Checkpoint().ok());
}

TEST_F(ServerApiTest, ObserverRegistrationOrderIndependent) {
  int commit_events = 0, intent_events = 0, abort_events = 0;
  server_.AddCommitObserver(
      [&](ClientId, const CommitResult&) { ++commit_events; });
  server_.AddIntentObserver([&](ClientId, TxnId, Oid) { ++intent_events; });
  server_.AddAbortObserver([&](ClientId, TxnId) { ++abort_events; });

  Oid oid = Insert("x");  // fires commit + intent (the insert's X lock)
  EXPECT_EQ(commit_events, 1);
  EXPECT_EQ(intent_events, 1);
  TxnId t = server_.Begin(0);
  ASSERT_TRUE(server_.Erase(0, t, oid, nullptr).ok());
  ASSERT_TRUE(server_.Abort(0, t, nullptr).ok());
  EXPECT_EQ(abort_events, 1);
  EXPECT_EQ(commit_events, 1);  // the abort committed nothing
}

TEST_F(ServerApiTest, DeploymentPropagatesCostModel) {
  DeploymentOptions opts;
  opts.cost.message_base = 123 * kVMillisecond;
  Deployment deployment(opts);
  EXPECT_EQ(deployment.bus().cost_model().options().message_base,
            123 * kVMillisecond);
  EXPECT_EQ(deployment.meter().cost_model().options().message_base,
            123 * kVMillisecond);
}

TEST_F(ServerApiTest, ServerOverFileDisksServesNormally) {
  std::string dir = ::testing::TempDir() + "/idba_api_" + std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  auto data = FileDisk::Open(dir + "/d.idb").value();
  auto wal = FileDisk::Open(dir + "/w.idb").value();
  {
    DatabaseServer server(data.get(), wal.get(), 0, {});
    ClassId cls = server.schema().DefineClass("Item").value();
    ASSERT_TRUE(server.schema().AddAttribute(cls, "P", ValueType::kInt).ok());
    TxnId t = server.Begin(0);
    DatabaseObject obj(server.AllocateOid(), cls, 1);
    obj.Set(0, Value(int64_t(5)));
    ASSERT_TRUE(server.Insert(0, t, std::move(obj), nullptr).ok());
    ASSERT_TRUE(server.Commit(0, t, nullptr).ok());
    ASSERT_TRUE(server.Checkpoint().ok());
    EXPECT_EQ(server.heap().object_count(), 1u);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace idba
