// Crash-recovery matrix for the group-commit WAL.
//
// Each test injects a "kill point" in the commit pipeline — records
// appended but unflushed, a batch partially page-written, a commit durable
// but the heap apply never run — snapshots the WAL disk as a crashed image
// (MemDisk::Clone), and asserts that replaying it yields exactly the
// committed prefix: every transaction whose commit became durable, nothing
// else.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/heap_store.h"
#include "storage/wal.h"
#include "txn/recovery.h"
#include "txn/txn_manager.h"

namespace idba {
namespace {

DatabaseObject MakeObj(Oid oid, int64_t v) {
  DatabaseObject obj(oid, 1, 1);
  obj.Set(0, Value(v));
  return obj;
}

/// ~400-byte object: a batch of a few dozen spans multiple WAL pages, which
/// the torn-batch and stale-page tests below rely on.
DatabaseObject MakeBigObj(Oid oid, int64_t v) {
  DatabaseObject obj(oid, 1, 2);
  obj.Set(0, Value(v));
  obj.Set(1, Value(std::string(400, 'x')));
  return obj;
}

/// Fresh heap stack + replay of `wal_image` into it.
struct Recovered {
  MemDisk data;
  BufferPool pool{&data, {.frame_count = 32}};
  std::unique_ptr<HeapStore> heap;
  RecoveryStats stats;

  explicit Recovered(Disk* wal_image) {
    heap = std::move(HeapStore::Open(&pool, 0).value());
    stats = RecoverFromWal(wal_image, heap.get()).value();
  }
};

/// Disk wrapper that simulates a crash mid-batch: after `n` more page
/// writes every write (and sync) fails, as if power was cut — earlier
/// writes of the batch are on disk, later ones never happen.
class DieAfterNWritesDisk : public Disk {
 public:
  explicit DieAfterNWritesDisk(MemDisk* base) : base_(base) {}
  void DieAfterWrites(int n) { remaining_.store(n); }
  Status ReadPage(PageId id, PageData* out) override {
    return base_->ReadPage(id, out);
  }
  Status WritePage(PageId id, const PageData& data) override {
    if (remaining_.load() >= 0 && remaining_.fetch_sub(1) <= 0) {
      return Status::IOError("simulated crash: write dropped");
    }
    return base_->WritePage(id, data);
  }
  Status Sync() override {
    if (remaining_.load() >= 0 && remaining_.load() <= 0) {
      return Status::IOError("simulated crash: sync dropped");
    }
    return base_->Sync();
  }
  Status Truncate() override { return base_->Truncate(); }
  PageId PageCount() const override { return base_->PageCount(); }

 private:
  MemDisk* base_;
  std::atomic<int> remaining_{-1};  // -1 = healthy
};

TEST(GroupCommitRecoveryTest, AppendedButUnflushedRecordsAreNotRecovered) {
  MemDisk data_disk, wal_disk;
  BufferPool pool(&data_disk, {.frame_count = 32});
  auto heap = std::move(HeapStore::Open(&pool, 0).value());
  Wal wal(&wal_disk);
  TxnManager mgr(heap.get(), &wal);

  // One durable commit, then a transaction whose records are appended but
  // never synced (a commit always flushes; emulate the kill point between
  // the append phase and the durability barrier via the Wal).
  TxnId t1 = mgr.Begin();
  Oid committed = mgr.AllocateOid();
  ASSERT_TRUE(mgr.Insert(t1, MakeObj(committed, 1)).ok());
  ASSERT_TRUE(mgr.Commit(t1).ok());

  Oid lost(committed.value + 1);
  WalRecord ins;
  ins.type = WalRecordType::kInsert;
  ins.txn = 99;
  ins.oid = lost;
  ins.after = MakeObj(lost, 2);
  ASSERT_TRUE(wal.Append(std::move(ins)).ok());
  WalRecord commit;
  commit.type = WalRecordType::kCommit;
  commit.txn = 99;
  ASSERT_TRUE(wal.Append(std::move(commit)).ok());
  // Crash here: no WaitDurable ever runs.

  auto image = wal_disk.Clone();
  Recovered rec(image.get());
  EXPECT_TRUE(rec.heap->Contains(committed));
  EXPECT_FALSE(rec.heap->Contains(lost));
  EXPECT_EQ(rec.stats.committed_txns, 1u);
}

TEST(GroupCommitRecoveryTest, PartiallyWrittenBatchRecoversCommittedPrefix) {
  MemDisk data_disk, wal_base;
  DieAfterNWritesDisk wal_disk(&wal_base);
  BufferPool pool(&data_disk, {.frame_count = 32});
  auto heap = std::move(HeapStore::Open(&pool, 0).value());
  Wal wal(&wal_disk);
  TxnManager mgr(heap.get(), &wal);

  TxnId t1 = mgr.Begin();
  Oid committed = mgr.AllocateOid();
  ASSERT_TRUE(mgr.Insert(t1, MakeObj(committed, 1)).ok());
  ASSERT_TRUE(mgr.Commit(t1).ok());

  // A transaction big enough that its batch spans several pages; the disk
  // dies after the first page write, so the batch — including its commit
  // record — is torn on disk.
  TxnId t2 = mgr.Begin();
  std::vector<Oid> torn;
  for (int i = 0; i < 40; ++i) {
    Oid oid = mgr.AllocateOid();
    torn.push_back(oid);
    ASSERT_TRUE(mgr.Insert(t2, MakeBigObj(oid, 100 + i)).ok());
  }
  wal_disk.DieAfterWrites(1);
  auto commit = mgr.Commit(t2);
  EXPECT_FALSE(commit.ok());
  EXPECT_EQ(mgr.GetState(t2), TxnState::kAborted);

  auto image = wal_base.Clone();
  Recovered rec(image.get());
  EXPECT_TRUE(rec.heap->Contains(committed));
  for (Oid oid : torn) EXPECT_FALSE(rec.heap->Contains(oid));
  EXPECT_EQ(rec.stats.committed_txns, 1u);
}

TEST(GroupCommitRecoveryTest, StalePagesFromFailedBatchNeverResurrect) {
  MemDisk data_disk, wal_disk;
  BufferPool pool(&data_disk, {.frame_count = 32});
  auto heap = std::move(HeapStore::Open(&pool, 0).value());
  Wal wal(&wal_disk);
  TxnManager mgr(heap.get(), &wal);

  // Big transaction whose batch page-writes all land but whose sync fails:
  // its pages (with its commit record) sit on disk beyond the logical tail.
  TxnId t1 = mgr.Begin();
  std::vector<Oid> failed;
  for (int i = 0; i < 40; ++i) {
    Oid oid = mgr.AllocateOid();
    failed.push_back(oid);
    ASSERT_TRUE(mgr.Insert(t1, MakeBigObj(oid, i)).ok());
  }
  wal_disk.InjectSyncFailures(1);
  EXPECT_FALSE(mgr.Commit(t1).ok());

  // A small transaction then commits successfully, rewriting only the tail
  // page — the failed batch's later pages remain as stale garbage that the
  // recovery scan must cut off (their LSNs regress behind the new tail).
  TxnId t2 = mgr.Begin();
  Oid small = mgr.AllocateOid();
  ASSERT_TRUE(mgr.Insert(t2, MakeObj(small, 7)).ok());
  ASSERT_TRUE(mgr.Commit(t2).ok());

  auto image = wal_disk.Clone();
  Recovered rec(image.get());
  EXPECT_TRUE(rec.heap->Contains(small));
  for (Oid oid : failed) EXPECT_FALSE(rec.heap->Contains(oid));
}

TEST(GroupCommitRecoveryTest, DurableCommitWithoutHeapApplyIsRedone) {
  // Kill point: commit record durable, crash before the heap apply (or, the
  // same image, before any checkpoint shipped heap pages). Replay must
  // redo the transaction in full.
  MemDisk wal_disk;
  Wal wal(&wal_disk);
  Oid oid(1);
  WalRecord ins;
  ins.type = WalRecordType::kInsert;
  ins.txn = 5;
  ins.oid = oid;
  ins.after = MakeObj(oid, 42);
  ins.after.set_version(1);
  ASSERT_TRUE(wal.Append(std::move(ins)).ok());
  WalRecord commit;
  commit.type = WalRecordType::kCommit;
  commit.txn = 5;
  Lsn commit_lsn = wal.Append(std::move(commit)).value();
  ASSERT_TRUE(wal.WaitDurable(commit_lsn).ok());

  auto image = wal_disk.Clone();
  Recovered rec(image.get());
  ASSERT_TRUE(rec.heap->Contains(oid));
  EXPECT_EQ(rec.heap->Read(oid).value().Get(0), Value(int64_t(42)));
  EXPECT_EQ(rec.stats.redone_writes, 1u);
}

TEST(GroupCommitRecoveryTest, AbortRecordCancelsAnEarlierCommitRecord) {
  // The commit path appends a best-effort abort record when the sync
  // covering a commit record fails (the record may still be on disk, but
  // the client was told the commit failed). Recovery processes winners in
  // log order: the abort must cancel the commit.
  MemDisk wal_disk;
  Wal wal(&wal_disk);
  Oid oid(1);
  WalRecord ins;
  ins.type = WalRecordType::kInsert;
  ins.txn = 5;
  ins.oid = oid;
  ins.after = MakeObj(oid, 1);
  ASSERT_TRUE(wal.Append(std::move(ins)).ok());
  WalRecord commit;
  commit.type = WalRecordType::kCommit;
  commit.txn = 5;
  ASSERT_TRUE(wal.Append(std::move(commit)).ok());
  WalRecord abort;
  abort.type = WalRecordType::kAbort;
  abort.txn = 5;
  ASSERT_TRUE(wal.Append(std::move(abort)).ok());
  ASSERT_TRUE(wal.Flush().ok());

  Recovered rec(&wal_disk);
  EXPECT_FALSE(rec.heap->Contains(oid));
  EXPECT_EQ(rec.stats.committed_txns, 0u);
}

TEST(GroupCommitRecoveryTest, ConcurrentCommittersAllSurviveACrash) {
  MemDisk data_disk, wal_disk;
  BufferPool pool(&data_disk, {.frame_count = 64});
  auto heap = std::move(HeapStore::Open(&pool, 0).value());
  Wal wal(&wal_disk);
  TxnManager mgr(heap.get(), &wal);

  constexpr int kThreads = 8;
  constexpr int kRounds = 5;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kRounds; ++i) {
        TxnId txn = mgr.Begin();
        Oid oid = mgr.AllocateOid();
        if (!mgr.Insert(txn, MakeObj(oid, i)).ok() || !mgr.Commit(txn).ok()) {
          ++failures;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(failures.load(), 0);

  // Crash after the storm: every acknowledged commit must replay.
  auto image = wal_disk.Clone();
  Recovered rec(image.get());
  EXPECT_EQ(rec.stats.committed_txns,
            static_cast<size_t>(kThreads * kRounds));
  EXPECT_EQ(rec.stats.redone_writes,
            static_cast<size_t>(kThreads * kRounds));
  // Group commit held: no more sync barriers than commits (usually far
  // fewer; equality only if the threads never overlapped).
  EXPECT_LE(wal_disk.syncs(), static_cast<uint64_t>(kThreads * kRounds));
}

}  // namespace
}  // namespace idba
