#include "storage/wal.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

namespace idba {
namespace {

/// Disk whose Sync takes ~1 ms: while one leader pays it, concurrent
/// committers pile up behind flush_in_progress_, so batching is guaranteed
/// (a MemDisk sync is instant, which would make coalescing assertions racy).
class SlowSyncDisk : public Disk {
 public:
  explicit SlowSyncDisk(Disk* base) : base_(base) {}
  Status ReadPage(PageId id, PageData* out) override {
    return base_->ReadPage(id, out);
  }
  Status WritePage(PageId id, const PageData& data) override {
    return base_->WritePage(id, data);
  }
  Status Sync() override {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    Status st = base_->Sync();
    if (st.ok()) syncs_.Add();
    return st;
  }
  Status Truncate() override { return base_->Truncate(); }
  PageId PageCount() const override { return base_->PageCount(); }

 private:
  Disk* base_;
};

DatabaseObject MakeObj(uint64_t oid, int64_t v) {
  DatabaseObject obj(Oid(oid), 1, 1);
  obj.Set(0, Value(v));
  obj.set_version(1);
  return obj;
}

WalRecord Update(TxnId txn, uint64_t oid, int64_t v) {
  WalRecord rec;
  rec.type = WalRecordType::kUpdate;
  rec.txn = txn;
  rec.oid = Oid(oid);
  rec.after = MakeObj(oid, v);
  return rec;
}

TEST(WalRecordTest, EncodeDecodeRoundTrip) {
  WalRecord rec = Update(7, 42, 99);
  rec.lsn = 13;
  std::vector<uint8_t> buf;
  Encoder enc(&buf);
  rec.EncodeTo(&enc);
  Decoder dec(buf);
  WalRecord out;
  ASSERT_TRUE(WalRecord::DecodeFrom(&dec, &out).ok());
  EXPECT_EQ(out.type, WalRecordType::kUpdate);
  EXPECT_EQ(out.lsn, 13u);
  EXPECT_EQ(out.txn, 7u);
  EXPECT_EQ(out.oid, Oid(42));
  EXPECT_EQ(out.after, rec.after);
}

TEST(WalTest, AppendAssignsMonotonicLsns) {
  MemDisk disk;
  Wal wal(&disk);
  EXPECT_EQ(wal.Append(Update(1, 1, 1)).value(), 1u);
  EXPECT_EQ(wal.Append(Update(1, 2, 2)).value(), 2u);
  EXPECT_EQ(wal.next_lsn(), 3u);
}

TEST(WalTest, ReadAllSeesBufferedRecords) {
  MemDisk disk;
  Wal wal(&disk);
  ASSERT_TRUE(wal.Append(Update(1, 1, 10)).ok());
  ASSERT_TRUE(wal.Append(Update(2, 2, 20)).ok());
  auto records = wal.ReadAll();
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records.value().size(), 2u);
  EXPECT_EQ(records.value()[0].txn, 1u);
  EXPECT_EQ(records.value()[1].txn, 2u);
}

TEST(WalTest, DiskSeesNothingBeforeFlush) {
  MemDisk disk;
  Wal wal(&disk);
  ASSERT_TRUE(wal.Append(Update(1, 1, 10)).ok());
  EXPECT_EQ(Wal::ReadAllFromDisk(&disk).value().size(), 0u);
  ASSERT_TRUE(wal.Flush().ok());
  EXPECT_EQ(Wal::ReadAllFromDisk(&disk).value().size(), 1u);
}

TEST(WalTest, ManyRecordsSpanPagesAndSurvive) {
  MemDisk disk;
  Wal wal(&disk);
  const int kRecords = 500;
  for (int i = 0; i < kRecords; ++i) {
    ASSERT_TRUE(wal.Append(Update(i, i, i * 10)).ok());
  }
  ASSERT_TRUE(wal.Flush().ok());
  auto records = Wal::ReadAllFromDisk(&disk);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records.value().size(), static_cast<size_t>(kRecords));
  for (int i = 0; i < kRecords; ++i) {
    EXPECT_EQ(records.value()[i].lsn, static_cast<Lsn>(i + 1));
    EXPECT_EQ(records.value()[i].oid, Oid(i));
  }
  EXPECT_GT(disk.PageCount(), 1u);  // really spanned pages
}

TEST(WalTest, InterleavedFlushesPreserveOrder) {
  MemDisk disk;
  Wal wal(&disk);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(wal.Append(Update(1, i, i)).ok());
    if (i % 7 == 0) ASSERT_TRUE(wal.Flush().ok());
  }
  ASSERT_TRUE(wal.Flush().ok());
  auto records = Wal::ReadAllFromDisk(&disk);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records.value().size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(records.value()[i].oid, Oid(i));
}

TEST(WalTest, RestartContinuesLsnSequence) {
  MemDisk disk;
  {
    Wal wal(&disk);
    ASSERT_TRUE(wal.Append(Update(1, 1, 1)).ok());
    ASSERT_TRUE(wal.Append(Update(1, 2, 2)).ok());
    ASSERT_TRUE(wal.Flush().ok());
  }
  Wal wal2(&disk);
  EXPECT_EQ(wal2.next_lsn(), 3u);
  ASSERT_TRUE(wal2.Append(Update(2, 3, 3)).ok());
  ASSERT_TRUE(wal2.Flush().ok());
  auto records = Wal::ReadAllFromDisk(&disk);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records.value().size(), 3u);
  EXPECT_EQ(records.value()[2].lsn, 3u);
}

TEST(WalTest, OversizedRecordRejected) {
  MemDisk disk;
  Wal wal(&disk);
  WalRecord rec;
  rec.type = WalRecordType::kInsert;
  rec.txn = 1;
  DatabaseObject obj(Oid(1), 1, 1);
  obj.Set(0, Value(std::string(5000, 'x')));
  rec.oid = obj.oid();
  rec.after = std::move(obj);
  EXPECT_EQ(wal.Append(std::move(rec)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(WalTest, ResetTruncatesButKeepsLsnSequence) {
  MemDisk disk;
  Wal wal(&disk);
  ASSERT_TRUE(wal.Append(Update(1, 1, 1)).ok());
  ASSERT_TRUE(wal.Append(Update(1, 2, 2)).ok());
  ASSERT_TRUE(wal.Flush().ok());
  EXPECT_GT(wal.DiskPages(), 0u);
  ASSERT_TRUE(wal.Reset().ok());
  EXPECT_EQ(wal.DiskPages(), 0u);
  EXPECT_EQ(wal.ReadAll().value().size(), 0u);
  // LSNs continue monotonically across the truncation.
  EXPECT_EQ(wal.Append(Update(2, 3, 3)).value(), 3u);
  ASSERT_TRUE(wal.Flush().ok());
  auto records = Wal::ReadAllFromDisk(&disk);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records.value().size(), 1u);
  EXPECT_EQ(records.value()[0].lsn, 3u);
}

TEST(WalTest, CleanFlushDoesNoIo) {
  MemDisk disk;
  Wal wal(&disk);
  ASSERT_TRUE(wal.Append(Update(1, 1, 1)).ok());
  ASSERT_TRUE(wal.Flush().ok());
  const uint64_t writes = disk.writes();
  const uint64_t syncs = disk.syncs();
  EXPECT_EQ(syncs, 1u);
  // Nothing appended since the last flush: flushing again (the Checkpoint
  // path does this on every call) must be free — zero writes, zero syncs.
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(wal.Flush().ok());
  EXPECT_EQ(disk.writes(), writes);
  EXPECT_EQ(disk.syncs(), syncs);
  // And WaitDurable on an already-durable LSN is equally free.
  ASSERT_TRUE(wal.WaitDurable(wal.durable_lsn()).ok());
  EXPECT_EQ(disk.syncs(), syncs);
}

TEST(WalTest, WaitDurableAdvancesTheDurableHorizon) {
  MemDisk disk;
  Wal wal(&disk);
  EXPECT_EQ(wal.durable_lsn(), 0u);
  Lsn a = wal.Append(Update(1, 1, 1)).value();
  Lsn b = wal.Append(Update(1, 2, 2)).value();
  Lsn c = wal.Append(Update(1, 3, 3)).value();
  // Waiting on the middle LSN makes the whole pending batch durable (the
  // leader packs everything appended so far).
  ASSERT_TRUE(wal.WaitDurable(b).ok());
  EXPECT_GE(wal.durable_lsn(), c);
  EXPECT_EQ(disk.syncs(), 1u);
  ASSERT_TRUE(wal.WaitDurable(a).ok());
  ASSERT_TRUE(wal.WaitDurable(c).ok());
  EXPECT_EQ(disk.syncs(), 1u);  // both were already covered
}

TEST(WalTest, RestartRestoresAppendedBytes) {
  MemDisk disk;
  uint64_t bytes_before = 0;
  {
    Wal wal(&disk);
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(wal.Append(Update(1, i, i)).ok());
    }
    ASSERT_TRUE(wal.Flush().ok());
    bytes_before = wal.appended_bytes();
    ASSERT_GT(bytes_before, 0u);
  }
  Wal wal2(&disk);
  EXPECT_EQ(wal2.appended_bytes(), bytes_before);
  EXPECT_EQ(wal2.recovered_records(), 20u);
  EXPECT_EQ(wal2.durable_lsn(), 20u);
}

TEST(WalTest, FailedSyncDropsBatchAndPinsTheError) {
  MemDisk disk;
  Wal wal(&disk);
  Lsn lost = wal.Append(Update(1, 1, 1)).value();
  disk.InjectSyncFailures(1);
  Status st = wal.WaitDurable(lost);
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  // The batch's LSNs were dropped: later waiters for them must keep seeing
  // the error even after other batches succeed — never a silent OK.
  EXPECT_EQ(wal.WaitDurable(lost).code(), StatusCode::kIOError);
  Lsn fresh = wal.Append(Update(2, 2, 2)).value();
  ASSERT_TRUE(wal.WaitDurable(fresh).ok());
  EXPECT_EQ(wal.WaitDurable(lost).code(), StatusCode::kIOError);
  // Only the fresh record is durable; the dropped one never reaches disk.
  auto records = Wal::ReadAllFromDisk(&disk);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records.value().size(), 1u);
  EXPECT_EQ(records.value()[0].lsn, fresh);
}

TEST(WalTest, ConcurrentCommittersCoalesceIntoFewFsyncs) {
  MemDisk base;
  SlowSyncDisk disk(&base);
  Wal wal(&disk);
  constexpr int kThreads = 8;
  constexpr int kRounds = 10;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRounds; ++i) {
        auto lsn = wal.Append(Update(t + 1, t * kRounds + i, i));
        if (!lsn.ok() || !wal.WaitDurable(lsn.value()).ok()) ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  // Every record made it to disk...
  auto records = Wal::ReadAllFromDisk(&base);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records.value().size(),
            static_cast<size_t>(kThreads * kRounds));
  // ...with far fewer sync barriers than commits: while a leader pays the
  // slow sync, the other 7 threads append and ride the next batch.
  EXPECT_LT(wal.fsyncs(), static_cast<uint64_t>(kThreads * kRounds));
  EXPECT_EQ(wal.fsyncs(), disk.syncs());
}

TEST(WalTest, GroupCommitWindowStillCommitsSingleWriters) {
  MemDisk disk;
  Wal wal(&disk);
  wal.set_group_commit_window_us(200);
  EXPECT_EQ(wal.group_commit_window_us(), 200);
  Lsn lsn = wal.Append(Update(1, 1, 1)).value();
  ASSERT_TRUE(wal.WaitDurable(lsn).ok());
  EXPECT_EQ(Wal::ReadAllFromDisk(&disk).value().size(), 1u);
}

TEST(WalTest, CommitAndAbortRecordsCarryNoImage) {
  MemDisk disk;
  Wal wal(&disk);
  WalRecord commit;
  commit.type = WalRecordType::kCommit;
  commit.txn = 9;
  ASSERT_TRUE(wal.Append(std::move(commit)).ok());
  ASSERT_TRUE(wal.Flush().ok());
  auto records = Wal::ReadAllFromDisk(&disk);
  ASSERT_EQ(records.value().size(), 1u);
  EXPECT_EQ(records.value()[0].type, WalRecordType::kCommit);
  EXPECT_EQ(records.value()[0].txn, 9u);
}

TEST(WalTruncateTest, DropsPrefixKeepsSurvivors) {
  MemDisk disk;
  Wal wal(&disk);
  Lsn last = 0;
  for (int i = 1; i <= 10; ++i) last = wal.Append(Update(1, i, i)).value();
  ASSERT_TRUE(wal.WaitDurable(last).ok());
  ASSERT_TRUE(wal.TruncateUpTo(5).ok());
  EXPECT_EQ(wal.truncate_below_lsn(), 5u);

  auto records = Wal::ReadAllFromDisk(&disk);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records.value().size(), 5u);
  EXPECT_EQ(records.value().front().lsn, 6u);
  EXPECT_EQ(records.value().back().lsn, 10u);
  // The in-memory view agrees with the disk view.
  EXPECT_EQ(wal.ReadAll().value().size(), 5u);
}

TEST(WalTruncateTest, RestartAfterTruncationAppendsRecoverably) {
  MemDisk disk;
  {
    Wal wal(&disk);
    Lsn last = 0;
    for (int i = 1; i <= 8; ++i) last = wal.Append(Update(1, i, i)).value();
    ASSERT_TRUE(wal.WaitDurable(last).ok());
    ASSERT_TRUE(wal.TruncateUpTo(6).ok());
  }
  {
    // Restart on the truncated disk: LSNs continue, new appends must land
    // where the recovery scan can see them (not past the terminator page).
    Wal wal(&disk);
    EXPECT_EQ(wal.next_lsn(), 9u);
    Lsn lsn = wal.Append(Update(2, 100, 100)).value();
    EXPECT_EQ(lsn, 9u);
    ASSERT_TRUE(wal.WaitDurable(lsn).ok());
  }
  auto records = Wal::ReadAllFromDisk(&disk);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records.value().size(), 3u);
  EXPECT_EQ(records.value()[0].lsn, 7u);
  EXPECT_EQ(records.value()[1].lsn, 8u);
  EXPECT_EQ(records.value()[2].lsn, 9u);
}

TEST(WalTruncateTest, TruncatingEverythingPreservesLsnSequence) {
  MemDisk disk;
  {
    Wal wal(&disk);
    Lsn last = 0;
    for (int i = 1; i <= 4; ++i) last = wal.Append(Update(1, i, i)).value();
    ASSERT_TRUE(wal.WaitDurable(last).ok());
    ASSERT_TRUE(wal.TruncateUpTo(last).ok());
    EXPECT_TRUE(Wal::ReadAllFromDisk(&disk).value().empty());
  }
  Wal wal(&disk);
  EXPECT_EQ(wal.next_lsn(), 5u);  // no reuse of truncated LSNs
}

TEST(WalTruncateTest, RejectsNonDurableBoundAndResetsByteCounter) {
  MemDisk disk;
  Wal wal(&disk);
  Lsn l1 = wal.Append(Update(1, 1, 1)).value();
  Lsn l2 = wal.Append(Update(1, 2, 2)).value();
  EXPECT_EQ(wal.TruncateUpTo(l2 + 1).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(wal.WaitDurable(l2).ok());
  EXPECT_GT(wal.bytes_since_truncate(), 0u);
  Wal::TruncateStats stats;
  ASSERT_TRUE(wal.TruncateUpTo(l1, &stats).ok());
  EXPECT_GT(stats.bytes_truncated, 0u);
  EXPECT_GT(stats.pages_written, 0u);
  // Byte-trigger accounting restarts from the truncation point.
  EXPECT_LT(wal.bytes_since_truncate(), stats.bytes_truncated + 1);
}

TEST(WalTruncateTest, RepeatedTruncationsKeepLogScannable) {
  MemDisk disk;
  Wal wal(&disk);
  Lsn last = 0;
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 40; ++i) {
      last = wal.Append(Update(1, round * 100 + i, i)).value();
    }
    ASSERT_TRUE(wal.WaitDurable(last).ok());
    ASSERT_TRUE(wal.TruncateUpTo(last - 3).ok());
    auto records = Wal::ReadAllFromDisk(&disk);
    ASSERT_TRUE(records.ok());
    ASSERT_EQ(records.value().size(), 3u);
    EXPECT_EQ(records.value().back().lsn, last);
  }
}

TEST(WalTruncateTest, LostHeaderPageStillTruncates) {
  MemDisk disk;
  Lsn last = 0;
  {
    Wal wal(&disk);
    for (int i = 1; i <= 300; ++i) last = wal.Append(Update(1, i, i)).value();
    ASSERT_TRUE(wal.WaitDurable(last).ok());
  }
  // The header write is lost (a torn first flush): page 0 reads back all
  // zero, which passes its checksum. Every record is still recovered.
  disk.TornWrite(0, 0);
  {
    Wal wal(&disk);
    EXPECT_EQ(wal.recovered_records(), 300u);
    // A checkpoint's truncation must not be a silent no-op on this log.
    Wal::TruncateStats stats;
    ASSERT_TRUE(wal.TruncateUpTo(last, &stats).ok());
    EXPECT_GT(stats.bytes_truncated, 0u);
    EXPECT_EQ(wal.truncate_below_lsn(), last);
    Lsn lsn = wal.Append(Update(2, 1000, 1)).value();
    ASSERT_TRUE(wal.WaitDurable(lsn).ok());
  }
  // The header is back: a restart sees the horizon and only the record
  // appended after the truncation.
  Lsn horizon = 0;
  auto records = Wal::ReadAllFromDisk(&disk, &horizon);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(horizon, last);
  ASSERT_EQ(records.value().size(), 1u);
  EXPECT_EQ(records.value()[0].lsn, last + 1);
}

TEST(WalCorruptionTest, BitFlippedPageCutsScanWithoutCrashing) {
  MemDisk disk;
  Wal wal(&disk);
  Lsn last = 0;
  for (int i = 1; i <= 400; ++i) last = wal.Append(Update(1, i, i)).value();
  ASSERT_TRUE(wal.WaitDurable(last).ok());
  auto all = Wal::ReadAllFromDisk(&disk);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all.value().size(), 400u);
  ASSERT_GE(disk.PageCount(), 4u) << "need several record pages to corrupt one";

  // Flip a payload bit in the middle of the record region (page 0 is the
  // header; records start at page 1).
  PageId victim = 1 + (disk.PageCount() - 1) / 2;
  disk.CorruptPage(victim, 200, 0x10);

  auto cut = Wal::ReadAllFromDisk(&disk);
  ASSERT_TRUE(cut.ok());
  EXPECT_LT(cut.value().size(), 400u);
  // Everything before the corrupted page survives, in order.
  for (size_t i = 0; i < cut.value().size(); ++i) {
    EXPECT_EQ(cut.value()[i].lsn, i + 1);
  }
}

TEST(WalCorruptionTest, CorruptHeaderPageIsAnError) {
  MemDisk disk;
  {
    Wal wal(&disk);
    Lsn lsn = wal.Append(Update(1, 1, 1)).value();
    ASSERT_TRUE(wal.WaitDurable(lsn).ok());
  }
  disk.CorruptPage(0, 100, 0x01);
  EXPECT_EQ(Wal::ReadAllFromDisk(&disk).status().code(),
            StatusCode::kCorruption);
}

}  // namespace
}  // namespace idba
