#include "txn/recovery.h"

#include <gtest/gtest.h>

#include "txn/txn_manager.h"

namespace idba {
namespace {

DatabaseObject MakeObj(Oid oid, int64_t v, ClassId cls = 1) {
  DatabaseObject obj(oid, cls, 1);
  obj.Set(0, Value(v));
  return obj;
}

class RecoveryTest : public ::testing::Test {
 protected:
  RecoveryTest() : pool_(&data_disk_, {.frame_count = 32}) {
    heap_ = std::move(HeapStore::Open(&pool_, 0).value());
    wal_ = std::make_unique<Wal>(&wal_disk_);
    mgr_ = std::make_unique<TxnManager>(heap_.get(), wal_.get());
  }

  /// Simulates a crash: drops all buffered (unflushed) data pages, then
  /// reopens the heap from disk and replays the WAL.
  std::unique_ptr<HeapStore> CrashAndRecover(RecoveryStats* stats = nullptr) {
    PageId pages = heap_->data_page_count();
    pool_.DropAllNoFlush();
    recovered_pool_ = std::make_unique<BufferPool>(
        &data_disk_, BufferPoolOptions{.frame_count = 32});
    auto heap = std::move(HeapStore::Open(recovered_pool_.get(), pages).value());
    auto st = RecoverFromWal(&wal_disk_, heap.get());
    EXPECT_TRUE(st.ok()) << st.status().ToString();
    if (stats != nullptr && st.ok()) *stats = st.value();
    return heap;
  }

  MemDisk data_disk_, wal_disk_;
  BufferPool pool_;
  std::unique_ptr<BufferPool> recovered_pool_;
  std::unique_ptr<HeapStore> heap_;
  std::unique_ptr<Wal> wal_;
  std::unique_ptr<TxnManager> mgr_;
};

TEST_F(RecoveryTest, CommittedWritesSurviveCrash) {
  TxnId t = mgr_->Begin();
  Oid a = mgr_->AllocateOid();
  Oid b = mgr_->AllocateOid();
  ASSERT_TRUE(mgr_->Insert(t, MakeObj(a, 1)).ok());
  ASSERT_TRUE(mgr_->Insert(t, MakeObj(b, 2)).ok());
  ASSERT_TRUE(mgr_->Commit(t).ok());
  // No pool flush: data pages never reached disk.
  auto heap = CrashAndRecover();
  EXPECT_EQ(heap->Read(a).value().Get(0), Value(int64_t(1)));
  EXPECT_EQ(heap->Read(b).value().Get(0), Value(int64_t(2)));
}

TEST_F(RecoveryTest, UncommittedTxnIsInvisibleAfterCrash) {
  TxnId t1 = mgr_->Begin();
  Oid a = mgr_->AllocateOid();
  ASSERT_TRUE(mgr_->Insert(t1, MakeObj(a, 1)).ok());
  ASSERT_TRUE(mgr_->Commit(t1).ok());

  // A loser: updates a, appends WAL records but the commit record is
  // missing (simulate by writing updates + flushing, never committing).
  WalRecord rec;
  rec.type = WalRecordType::kUpdate;
  rec.txn = 999;
  rec.oid = a;
  rec.after = MakeObj(a, 666);
  rec.after.set_version(99);
  ASSERT_TRUE(wal_->Append(std::move(rec)).ok());
  ASSERT_TRUE(wal_->Flush().ok());

  RecoveryStats stats;
  auto heap = CrashAndRecover(&stats);
  EXPECT_EQ(heap->Read(a).value().Get(0), Value(int64_t(1)));
  EXPECT_EQ(stats.committed_txns, 1u);
}

TEST_F(RecoveryTest, UpdatesAndErasesReplayInOrder) {
  Oid a = mgr_->AllocateOid();
  Oid b = mgr_->AllocateOid();
  TxnId t1 = mgr_->Begin();
  ASSERT_TRUE(mgr_->Insert(t1, MakeObj(a, 1)).ok());
  ASSERT_TRUE(mgr_->Insert(t1, MakeObj(b, 2)).ok());
  ASSERT_TRUE(mgr_->Commit(t1).ok());
  TxnId t2 = mgr_->Begin();
  ASSERT_TRUE(mgr_->Put(t2, MakeObj(a, 11)).ok());
  ASSERT_TRUE(mgr_->Erase(t2, b).ok());
  ASSERT_TRUE(mgr_->Commit(t2).ok());

  auto heap = CrashAndRecover();
  EXPECT_EQ(heap->Read(a).value().Get(0), Value(int64_t(11)));
  EXPECT_EQ(heap->Read(a).value().version(), 2u);
  EXPECT_FALSE(heap->Contains(b));
}

TEST_F(RecoveryTest, ClassExtentsMatchAfterReplay) {
  // Part of the history reaches the data pages before the crash, the rest
  // only the WAL: the recovered extents must reflect all of it.
  std::vector<Oid> oids;
  TxnId t1 = mgr_->Begin();
  for (int i = 0; i < 6; ++i) {
    oids.push_back(mgr_->AllocateOid());
    ASSERT_TRUE(mgr_->Insert(t1, MakeObj(oids[i], i, 1 + i % 2)).ok());
  }
  ASSERT_TRUE(mgr_->Commit(t1).ok());
  ASSERT_TRUE(pool_.FlushAll().ok());
  TxnId t2 = mgr_->Begin();
  ASSERT_TRUE(mgr_->Put(t2, MakeObj(oids[0], 10, 3)).ok());  // class 1 -> 3
  ASSERT_TRUE(mgr_->Erase(t2, oids[1]).ok());
  Oid late = mgr_->AllocateOid();
  ASSERT_TRUE(mgr_->Insert(t2, MakeObj(late, 11, 2)).ok());
  ASSERT_TRUE(mgr_->Commit(t2).ok());

  auto heap = CrashAndRecover();
  EXPECT_EQ(heap->ScanClass(1).value(), (std::vector<Oid>{oids[2], oids[4]}));
  EXPECT_EQ(heap->ScanClass(2).value(),
            (std::vector<Oid>{oids[3], oids[5], late}));
  EXPECT_EQ(heap->ScanClass(3).value(), (std::vector<Oid>{oids[0]}));
  for (ClassId cls = 1; cls <= 3; ++cls) {
    EXPECT_EQ(heap->ScanClass(cls).value(), heap_->ScanClass(cls).value());
  }
}

TEST_F(RecoveryTest, ReferenceIndexMatchesAFreshHeapAfterReplay) {
  // Objects hold one reference (slot 0). Part of the history reaches the
  // data pages, the rest only the WAL; replay maintains the index through
  // Insert/Update/Erase, and it must equal the index that Open builds
  // from the recovered pages, and the one the crashed heap held.
  auto make = [](Oid oid, uint64_t parent, ClassId cls) {
    DatabaseObject obj(oid, cls, 1);
    obj.Set(0, Value(Oid(parent)));
    return obj;
  };
  std::vector<Oid> oids;
  TxnId t1 = mgr_->Begin();
  for (int i = 0; i < 12; ++i) {
    oids.push_back(mgr_->AllocateOid());
    ASSERT_TRUE(mgr_->Insert(t1, make(oids[i], 100 + i % 3, 1 + i % 2)).ok());
  }
  ASSERT_TRUE(mgr_->Commit(t1).ok());
  ASSERT_TRUE(pool_.FlushAll().ok());
  TxnId t2 = mgr_->Begin();
  ASSERT_TRUE(mgr_->Put(t2, make(oids[0], 102, 1)).ok());  // new target
  ASSERT_TRUE(mgr_->Put(t2, make(oids[1], 100, 3)).ok());  // new class
  ASSERT_TRUE(mgr_->Put(t2, make(oids[2], 0, 1)).ok());    // null target
  ASSERT_TRUE(mgr_->Erase(t2, oids[3]).ok());
  Oid late = mgr_->AllocateOid();
  ASSERT_TRUE(mgr_->Insert(t2, make(late, 101, 2)).ok());
  ASSERT_TRUE(mgr_->Commit(t2).ok());

  auto heap = CrashAndRecover();
  ASSERT_TRUE(recovered_pool_->FlushAll().ok());
  BufferPool fresh_pool(&data_disk_, {.frame_count = 32});
  auto fresh = std::move(HeapStore::Open(&fresh_pool, heap->data_page_count()).value());
  for (ClassId cls = 1; cls <= 3; ++cls) {
    for (uint64_t target : {0, 100, 101, 102}) {
      std::vector<Oid> want = heap_->Referrers(cls, 0, Oid(target));
      EXPECT_EQ(heap->Referrers(cls, 0, Oid(target)), want)
          << "class " << cls << " target " << target;
      EXPECT_EQ(fresh->Referrers(cls, 0, Oid(target)), want)
          << "class " << cls << " target " << target;
    }
  }
  EXPECT_EQ(heap->Referrers(1, 0, Oid(102)), (std::vector<Oid>{oids[0], oids[8]}));
  EXPECT_EQ(heap->Referrers(3, 0, Oid(100)), (std::vector<Oid>{oids[1]}));
  EXPECT_EQ(heap->Referrers(1, 0, kNullOid), (std::vector<Oid>{oids[2]}));
  EXPECT_EQ(heap->Referrers(2, 0, Oid(101)),
            (std::vector<Oid>{oids[7], late}));
}

TEST_F(RecoveryTest, ReplayIsIdempotentAgainstFlushedPages) {
  // Commit, flush pages to disk (so images are already there), crash,
  // recover: version check must skip the stale redo.
  Oid a = mgr_->AllocateOid();
  TxnId t = mgr_->Begin();
  ASSERT_TRUE(mgr_->Insert(t, MakeObj(a, 7)).ok());
  ASSERT_TRUE(mgr_->Commit(t).ok());
  ASSERT_TRUE(pool_.FlushAll().ok());

  RecoveryStats stats;
  auto heap = CrashAndRecover(&stats);
  EXPECT_EQ(stats.skipped_stale, 1u);
  EXPECT_EQ(heap->Read(a).value().Get(0), Value(int64_t(7)));
  EXPECT_EQ(heap->Read(a).value().version(), 1u);
}

TEST_F(RecoveryTest, ManyTransactionsMixedOutcome) {
  std::vector<Oid> committed_oids, aborted_oids;
  for (int i = 0; i < 30; ++i) {
    TxnId t = mgr_->Begin();
    Oid oid = mgr_->AllocateOid();
    ASSERT_TRUE(mgr_->Insert(t, MakeObj(oid, i)).ok());
    if (i % 3 == 0) {
      ASSERT_TRUE(mgr_->Abort(t).ok());
      aborted_oids.push_back(oid);
    } else {
      ASSERT_TRUE(mgr_->Commit(t).ok());
      committed_oids.push_back(oid);
    }
  }
  RecoveryStats stats;
  auto heap = CrashAndRecover(&stats);
  EXPECT_EQ(stats.committed_txns, committed_oids.size());
  for (Oid oid : committed_oids) EXPECT_TRUE(heap->Contains(oid));
  for (Oid oid : aborted_oids) EXPECT_FALSE(heap->Contains(oid));
}

TEST_F(RecoveryTest, EmptyLogRecoversCleanly) {
  RecoveryStats stats;
  auto heap = CrashAndRecover(&stats);
  EXPECT_EQ(stats.records_scanned, 0u);
  EXPECT_EQ(heap->object_count(), 0u);
}

TEST_F(RecoveryTest, CorruptedWalPageCutsReplayAtCleanPrefix) {
  // Enough single-insert transactions that the log spans several pages.
  std::vector<Oid> oids;
  for (int i = 0; i < 200; ++i) {
    TxnId t = mgr_->Begin();
    Oid oid = mgr_->AllocateOid();
    ASSERT_TRUE(mgr_->Insert(t, MakeObj(oid, i)).ok());
    ASSERT_TRUE(mgr_->Commit(t).ok());
    oids.push_back(oid);
  }
  ASSERT_GE(wal_disk_.PageCount(), 4u);

  // Bit-flip a record page in the middle of the log (page 0 is the WAL
  // header). Recovery must cut the scan there — not crash, not replay past
  // the damage.
  PageId victim = 1 + (wal_disk_.PageCount() - 1) / 2;
  wal_disk_.CorruptPage(victim, 300, 0x20);

  RecoveryStats stats;
  auto heap = CrashAndRecover(&stats);
  EXPECT_GT(heap->object_count(), 0u);
  EXPECT_LT(heap->object_count(), oids.size());
  // Whatever survived is a prefix of commit order: no transaction after the
  // cut resurrected, none before it lost.
  size_t present = 0;
  while (present < oids.size() && heap->Contains(oids[present])) ++present;
  EXPECT_EQ(present, heap->object_count());
  for (size_t i = present; i < oids.size(); ++i) {
    EXPECT_FALSE(heap->Contains(oids[i]));
  }
}

TEST_F(RecoveryTest, CorruptedDataPageSurfacesCorruptionNotGarbage) {
  TxnId t = mgr_->Begin();
  Oid a = mgr_->AllocateOid();
  ASSERT_TRUE(mgr_->Insert(t, MakeObj(a, 11)).ok());
  ASSERT_TRUE(mgr_->Commit(t).ok());
  ASSERT_TRUE(pool_.FlushAll().ok());
  PageId pages = heap_->data_page_count();
  ASSERT_GT(pages, 0u);

  pool_.DropAllNoFlush();
  for (PageId p = 0; p < pages; ++p) data_disk_.CorruptPage(p, 900, 0x01);

  // Reopening the heap reads every data page; the damage must surface as
  // Corruption, never as silently decoded garbage.
  BufferPool pool(&data_disk_, {.frame_count = 32});
  auto heap = HeapStore::Open(&pool, pages);
  ASSERT_FALSE(heap.ok());
  EXPECT_EQ(heap.status().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace idba
