#include <gtest/gtest.h>

#include <algorithm>

#include "client/database_client.h"

namespace idba {
namespace {

class ClientServerTest : public ::testing::Test {
 protected:
  ClientServerTest() {
    link_ = server_.schema().DefineClass("Link").value();
    EXPECT_TRUE(server_.schema()
                    .AddAttribute(link_, "Utilization", ValueType::kDouble,
                                  Value(0.0))
                    .ok());
    EXPECT_TRUE(
        server_.schema().AddAttribute(link_, "Name", ValueType::kString).ok());
    a_ = std::make_unique<DatabaseClient>(&server_, 100, &meter_, &bus_);
    b_ = std::make_unique<DatabaseClient>(&server_, 101, &meter_, &bus_);
  }

  Oid SeedLink(double util) {
    TxnId t = a_->Begin();
    Oid oid = a_->AllocateOid();
    DatabaseObject obj(oid, link_, 2);
    obj.Set(0, Value(util));
    obj.Set(1, Value("link"));
    EXPECT_TRUE(a_->Insert(t, std::move(obj)).ok());
    EXPECT_TRUE(a_->Commit(t).ok());
    return oid;
  }

  DatabaseServer server_;
  NotificationBus bus_;
  RpcMeter meter_;
  ClassId link_;
  std::unique_ptr<DatabaseClient> a_, b_;
};

TEST_F(ClientServerTest, CachedReadsAvoidDataTransfer) {
  Oid oid = SeedLink(0.5);
  uint64_t rpcs_before = b_->rpcs_issued();
  TxnId t = b_->Begin();
  ASSERT_TRUE(b_->Read(t, oid).ok());
  ASSERT_TRUE(b_->Commit(t).ok());
  uint64_t after_first = b_->rpcs_issued();
  EXPECT_GT(after_first, rpcs_before);

  // Display-style read (degree 0) across transaction boundaries: zero
  // server traffic — the §3.3 avoidance-based promise for displays.
  uint64_t bytes_before = meter_.bytes();
  ASSERT_TRUE(b_->ReadCurrent(oid).ok());
  EXPECT_EQ(b_->rpcs_issued(), after_first);
  EXPECT_EQ(meter_.bytes(), bytes_before);

  // Transactional read of the cached copy: no DATA travels, but (lock
  // caching being out of scope) a small lock-only round trip grants the
  // S lock that makes acting on the copy serializable.
  TxnId t2 = b_->Begin();
  auto obj = b_->Read(t2, oid);
  ASSERT_TRUE(obj.ok());
  EXPECT_EQ(obj.value().GetByName(server_.schema(), "Utilization").value(),
            Value(0.5));
  EXPECT_EQ(b_->rpcs_issued(), after_first + 1);  // the lock-only RPC
  // Far fewer bytes than shipping the (wide) object again.
  EXPECT_LT(meter_.bytes() - bytes_before, 100u);
  ASSERT_TRUE(b_->Commit(t2).ok());
}

TEST_F(ClientServerTest, AvoidanceBasedCoherency_NoStaleReadEver) {
  Oid oid = SeedLink(0.1);
  // B caches the object.
  ASSERT_TRUE(b_->ReadCurrent(oid).ok());
  EXPECT_TRUE(b_->cache().Contains(oid));

  // A updates it: B's copy must be called back during commit.
  TxnId t = a_->Begin();
  auto obj = a_->Read(t, oid);
  ASSERT_TRUE(obj.ok());
  DatabaseObject updated = std::move(obj).value();
  ASSERT_TRUE(
      updated.SetByName(server_.schema(), "Utilization", Value(0.9)).ok());
  ASSERT_TRUE(a_->Write(t, std::move(updated)).ok());
  ASSERT_TRUE(a_->Commit(t).ok());

  EXPECT_FALSE(b_->cache().Contains(oid));  // invalidated, not stale
  auto fresh = b_->ReadCurrent(oid);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh.value().GetByName(server_.schema(), "Utilization").value(),
            Value(0.9));
}

TEST_F(ClientServerTest, WriterOwnCacheRefreshedByCommitReply) {
  Oid oid = SeedLink(0.1);
  ASSERT_TRUE(a_->ReadCurrent(oid).ok());
  TxnId t = a_->Begin();
  DatabaseObject updated = a_->Read(t, oid).value();
  ASSERT_TRUE(
      updated.SetByName(server_.schema(), "Utilization", Value(0.7)).ok());
  ASSERT_TRUE(a_->Write(t, std::move(updated)).ok());
  ASSERT_TRUE(a_->Commit(t).ok());
  // A's own cached copy reflects the commit (no stale self-read).
  auto cached = a_->cache().Get(oid);
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(cached->GetByName(server_.schema(), "Utilization").value(),
            Value(0.7));
  EXPECT_EQ(cached->version(), 2u);
}


// --- Callback fan-out soak -------------------------------------------------
//
// Avoidance-based coherency at population scale: a crowd of clients all
// cache the same hot object, a writer commits a stream of updates, and not
// one cached copy is ever stale — every commit called back every holder
// before completing. (The TCP analogue, with the single-serialization
// NOTIFY fan-out assertion, lives in transport_fault_test.)
TEST_F(ClientServerTest, ManyClientCallbackFanoutKeepsAllCachesCoherent) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  constexpr int kReaders = 64;
#else
  constexpr int kReaders = 256;
#endif
  constexpr int kCommits = 4;
  Oid oid = SeedLink(0.1);

  std::vector<std::unique_ptr<DatabaseClient>> readers;
  readers.reserve(kReaders);
  for (int i = 0; i < kReaders; ++i) {
    readers.push_back(
        std::make_unique<DatabaseClient>(&server_, 1000 + i, &meter_, &bus_));
    ASSERT_TRUE(readers.back()->ReadCurrent(oid).ok());
    ASSERT_TRUE(readers.back()->cache().Contains(oid));
  }

  for (int c = 0; c < kCommits; ++c) {
    const double value = 0.2 + 0.1 * c;
    TxnId t = a_->Begin();
    auto obj = a_->Read(t, oid);
    ASSERT_TRUE(obj.ok());
    DatabaseObject updated = std::move(obj).value();
    ASSERT_TRUE(
        updated.SetByName(server_.schema(), "Utilization", Value(value)).ok());
    ASSERT_TRUE(a_->Write(t, std::move(updated)).ok());
    ASSERT_TRUE(a_->Commit(t).ok());

    // The commit invalidated every holder; each refetch observes the new
    // value and re-registers for the next round.
    for (auto& reader : readers) {
      EXPECT_FALSE(reader->cache().Contains(oid));
      auto fresh = reader->ReadCurrent(oid);
      ASSERT_TRUE(fresh.ok());
      EXPECT_EQ(
          fresh.value().GetByName(server_.schema(), "Utilization").value(),
          Value(value));
    }
  }
}

TEST_F(ClientServerTest, CommitChargesCallbackRoundTrips) {
  Oid oid = SeedLink(0.1);
  ASSERT_TRUE(b_->ReadCurrent(oid).ok());
  ServerCallInfo info;
  TxnId t = server_.Begin(100);
  DatabaseObject obj = server_.Fetch(100, t, oid, nullptr).value();
  ASSERT_TRUE(
      obj.SetByName(server_.schema(), "Utilization", Value(0.3)).ok());
  ASSERT_TRUE(server_.Put(100, t, std::move(obj), nullptr).ok());
  ASSERT_TRUE(server_.Commit(100, t, &info).ok());
  EXPECT_EQ(info.callbacks, 1);  // B held the only remote copy
}

TEST_F(ClientServerTest, ScanClassReturnsAllAndCaches) {
  SeedLink(0.1);
  SeedLink(0.2);
  SeedLink(0.3);
  auto objs = b_->ScanClass(link_);
  ASSERT_TRUE(objs.ok());
  EXPECT_EQ(objs.value().size(), 3u);
  EXPECT_EQ(b_->cache().entry_count(), 3u);
}

TEST_F(ClientServerTest, VirtualClockAdvancesWithTraffic) {
  Oid oid = SeedLink(0.5);
  VTime before = b_->clock().Now();
  ASSERT_TRUE(b_->ReadCurrent(oid).ok());
  VTime after_fetch = b_->clock().Now();
  EXPECT_GT(after_fetch, before);  // two hops + server time charged
  // Cache hit: no virtual time passes.
  ASSERT_TRUE(b_->ReadCurrent(oid).ok());
  EXPECT_EQ(b_->clock().Now(), after_fetch);
}

TEST_F(ClientServerTest, ConflictingWritersSerialize) {
  Oid oid = SeedLink(0.0);
  constexpr int kRounds = 25;
  auto work = [&](DatabaseClient* client) {
    for (int i = 0; i < kRounds; ++i) {
      for (;;) {
        TxnId t = client->Begin();
        auto obj = client->Read(t, oid);
        if (!obj.ok()) {
          (void)client->Abort(t);
          continue;
        }
        DatabaseObject o = std::move(obj).value();
        double u =
            o.GetByName(client->schema(), "Utilization").value().AsDouble();
        (void)o.SetByName(client->schema(), "Utilization", Value(u + 1.0));
        if (!client->Write(t, std::move(o)).ok()) {
          (void)client->Abort(t);
          continue;
        }
        if (client->Commit(t).ok()) break;
      }
    }
  };
  std::thread ta([&] { work(a_.get()); });
  std::thread tb([&] { work(b_.get()); });
  ta.join();
  tb.join();
  // Every increment survived: the final value proves serialized RMWs.
  auto obj = a_->ReadCurrent(oid);
  ASSERT_TRUE(obj.ok());
  EXPECT_DOUBLE_EQ(
      obj.value().GetByName(server_.schema(), "Utilization").value().AsDouble(),
      2.0 * kRounds);
}

TEST_F(ClientServerTest, DisconnectCleansUp) {
  Oid oid = SeedLink(0.5);
  ASSERT_TRUE(b_->ReadCurrent(oid).ok());
  b_.reset();  // disconnects
  // A's update must not try to call back the vanished client.
  TxnId t = a_->Begin();
  DatabaseObject obj = a_->Read(t, oid).value();
  ASSERT_TRUE(obj.SetByName(server_.schema(), "Utilization", Value(1.0)).ok());
  ASSERT_TRUE(a_->Write(t, std::move(obj)).ok());
  EXPECT_TRUE(a_->Commit(t).ok());
}

TEST_F(ClientServerTest, EvictionNoticeKeepsRegistryTight) {
  // Tiny cache: every new object evicts the previous one.
  DatabaseClient c(&server_, 102, &meter_, &bus_,
                   DatabaseClientOptions{.cache = {.capacity_bytes = 1}});
  Oid o1 = SeedLink(0.1);
  Oid o2 = SeedLink(0.2);
  ASSERT_TRUE(c.ReadCurrent(o1).ok());
  ASSERT_TRUE(c.ReadCurrent(o2).ok());  // evicts o1, server notified
  EXPECT_EQ(server_.callback_manager().CopyHolders(o1).size(), 0u);
  EXPECT_EQ(server_.callback_manager().CopyHolders(o2).size(), 1u);
}

TEST_F(ClientServerTest, ScanReCachingAnEvictedCopyKeepsItsCallback) {
  // Six links; the last one is last in scan order.
  std::vector<Oid> oids;
  for (int i = 0; i < 6; ++i) oids.push_back(SeedLink(0.5));
  const Oid last = oids.back();
  const size_t one = server_.heap().Read(last).value().MemoryBytes();
  // A cache of three copies: the scan evicts the copy of `last` read below
  // before it re-caches `last` as its final row.
  DatabaseClient viewer(
      &server_, 102, &meter_, &bus_,
      DatabaseClientOptions{.cache = {.capacity_bytes = 3 * one + one / 2}});
  ASSERT_TRUE(viewer.ReadCurrent(last).ok());
  ASSERT_TRUE(viewer.ScanClass(link_, false).ok());
  ASSERT_TRUE(viewer.cache().Contains(last));
  const std::vector<ClientId> holders =
      server_.callback_manager().CopyHolders(last);
  EXPECT_NE(std::find(holders.begin(), holders.end(), 102u), holders.end());

  // A later commit must call the viewer's copy back.
  TxnId t = a_->Begin();
  DatabaseObject obj = a_->Read(t, last).value();
  ASSERT_TRUE(obj.SetByName(server_.schema(), "Utilization", Value(0.99)).ok());
  ASSERT_TRUE(a_->Write(t, std::move(obj)).ok());
  ASSERT_TRUE(a_->Commit(t).ok());
  EXPECT_EQ(viewer.ReadCurrent(last).value().GetByName(server_.schema(),
                                                        "Utilization").value(),
            Value(0.99));
}

}  // namespace
}  // namespace idba
