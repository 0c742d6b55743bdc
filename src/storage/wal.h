// Write-ahead log with group commit.
//
// The transaction manager uses deferred updates (no-steal): a transaction's
// writes are buffered in an intention list and applied to the heap store
// only after the commit record is durable. The WAL therefore carries
// redo-only full object images; recovery replays committed transactions'
// images in log order (idempotent, since images are complete).
//
// Durability is a two-phase protocol: Append() assigns an LSN and buffers
// the record (lock-light — one short mutex hold, no I/O), WaitDurable(lsn)
// blocks until that LSN is covered by a sync barrier. Concurrent committers
// elect a leader: the first waiter whose LSN is not yet durable packs every
// buffered record into pages, writes them, and issues ONE disk sync for the
// whole batch, while followers sleep on a condition variable. K concurrent
// commits therefore cost ~1 fsync per batch instead of K — the group commit
// of the ROADMAP "storage engine raw speed" item, keeping WAL force time
// off the interaction-latency critical path the display cache protects.
//
// On-disk format: the WAL owns its own Disk. Page 0 is a header page
// ({magic "IWAL", version, start_page, truncate_below_lsn}); record pages
// follow from start_page. A page 0 without the magic is a header write
// that was lost (an all-zero page passes its checksum): records are read
// from page 1 and the header is rewritten on the next flush. Records are packed back-to-back into pages as
// [u32 length][payload]; a zero length terminates a page (the tail
// continues on the next page only when a record is split, which we avoid
// by starting oversized records on a fresh page — records larger than a
// page are rejected). Bytes [0, kPageCrcSize) of every page belong to the
// disk-layer checksum.
//
// TruncateUpTo(B) bounds recovery by WAL-since-last-checkpoint: survivors
// (records with LSN > B) are copied forward to a fresh region, a
// deliberately invalid terminator page fences the scan, and the header is
// flipped to the new region in one page write — a crash at any point
// recovers either the old complete log or the new truncated one.

#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/codec.h"
#include "common/metrics.h"
#include "common/status.h"
#include "objectmodel/object.h"
#include "storage/disk.h"

namespace idba {

using Lsn = uint64_t;
using TxnId = uint64_t;

enum class WalRecordType : uint8_t {
  kBegin = 1,
  kInsert = 2,   ///< after image
  kUpdate = 3,   ///< after image (redo-only)
  kErase = 4,    ///< erased oid
  kCommit = 5,
  kAbort = 6,
  kCheckpoint = 7,     ///< fuzzy-checkpoint begin fence (txn = 0)
  kCheckpointEnd = 8,  ///< fuzzy-checkpoint end; txn carries the begin LSN
};

struct WalRecord {
  WalRecordType type = WalRecordType::kBegin;
  Lsn lsn = 0;
  TxnId txn = 0;
  Oid oid;                   // kInsert/kUpdate/kErase
  DatabaseObject after;      // kInsert/kUpdate

  void EncodeTo(Encoder* enc) const;
  static Status DecodeFrom(Decoder* dec, WalRecord* out);
};

/// Append-only durable log with group commit. Thread-safe.
class Wal {
 public:
  explicit Wal(Disk* disk);

  /// Appends a record, assigning it the next LSN (returned). Buffers only;
  /// call WaitDurable (or Flush) to force it to disk.
  Result<Lsn> Append(WalRecord rec);

  /// Blocks until every record with LSN <= `lsn` is durable. Waiters
  /// coalesce: one leader packs and syncs the whole pending batch, the
  /// rest wait for the durable horizon to cover them. Returns the flush
  /// error if the batch covering `lsn` failed to reach disk.
  Status WaitDurable(Lsn lsn);

  /// Makes everything appended so far durable (== WaitDurable on the last
  /// assigned LSN). A no-op — zero writes, zero syncs — when nothing
  /// changed since the last successful flush.
  Status Flush();

  /// Reads every record currently durable *plus* buffered ones, in order.
  Result<std::vector<WalRecord>> ReadAll() const;

  /// Scans the log from disk only — what recovery would see after a crash.
  /// A checksum-failed or torn record page cuts the scan (the durable
  /// prefix before it is returned); header-page corruption propagates.
  /// `truncate_below` (optional) receives the header's truncation horizon:
  /// every record with LSN <= it was already checkpointed into the data
  /// pages before the log was truncated. `resume_page` (optional) receives
  /// the page a resumed Wal should append from: one past the last cleanly
  /// parsed record page — NOT PageCount(), which can lie past a truncation
  /// terminator where appended records would be invisible to recovery.
  static Result<std::vector<WalRecord>> ReadAllFromDisk(
      Disk* disk, Lsn* truncate_below = nullptr,
      PageId* resume_page = nullptr);

  /// Discards the entire log (LSNs keep counting). Call ONLY after every
  /// effect of logged transactions has been forced to the data disk (a
  /// checkpoint) — replaying an empty log over those pages is then a
  /// no-op, which is exactly what recovery will do.
  Status Reset();

  struct TruncateStats {
    uint64_t pages_written = 0;    ///< survivor + terminator + header writes
    uint64_t bytes_truncated = 0;  ///< log bytes dropped (records <= upto)
  };

  /// Drops every record with LSN <= `upto` after a fuzzy checkpoint made
  /// their effects durable in the data pages. Survivors are copied forward
  /// (two-hop: first past the live tail, then — when it fits — back to the
  /// front so the disk can physically shrink); appends keep running
  /// throughout. Writes the header page, so a log whose header was lost
  /// in a torn first flush truncates like any other.
  Status TruncateUpTo(Lsn upto, TruncateStats* stats = nullptr);

  /// Truncation horizon: every record with LSN <= this has been dropped
  /// from the log (its effects live in the data pages).
  Lsn truncate_below_lsn() const;
  /// Bytes appended since the last TruncateUpTo (0 if never truncated —
  /// then it counts from construction).
  uint64_t bytes_since_truncate() const;

  /// Maximum time a group-commit leader waits, after claiming the flush,
  /// for more committers to append before paying the sync (0 = flush
  /// immediately; batching then comes only from sync backpressure).
  void set_group_commit_window_us(int64_t us) { group_window_us_.store(us); }
  int64_t group_commit_window_us() const { return group_window_us_.load(); }

  Lsn next_lsn() const;
  /// Highest LSN known durable on disk.
  Lsn durable_lsn() const;
  uint64_t appended_bytes() const;
  /// Pages the log currently occupies on its disk.
  PageId DiskPages() const;

  // --- Group-commit telemetry (per-instance; also mirrored into the
  // process-global registry as wal.* for STATS/METRICS/Prometheus) -------
  /// Disk sync barriers issued by this log.
  uint64_t fsyncs() const { return fsyncs_local_.Get(); }
  /// Flush batches that actually did I/O (fsyncs() == flush_batches()).
  uint64_t flush_batches() const { return fsyncs_local_.Get(); }
  /// Records recovered from disk when this Wal resumed an existing log.
  uint64_t recovered_records() const { return recovered_records_; }

 private:
  /// Packs `batch` (entries already length-prefixed) into pages after the
  /// current tail and syncs. Runs WITHOUT mu_ held — exclusivity comes from
  /// flush_in_progress_; only the elected leader touches the pack state.
  Status PackAndSync(const std::vector<std::vector<uint8_t>>& batch);

  Disk* disk_;

  // mu_ guards everything below plus, when flush_in_progress_ is false,
  // the pack state. While flush_in_progress_ is true the pack state is
  // owned exclusively by the leader (which holds no mutex during I/O, so
  // appenders keep running while the batch is written and synced).
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;  // durable_lsn_ advanced / flush done
  bool flush_in_progress_ = false;
  Lsn next_lsn_ = 1;
  Lsn durable_lsn_ = 0;
  std::vector<std::vector<uint8_t>> pending_;  // entries not yet paged
  uint64_t appended_bytes_ = 0;
  /// LSN ranges lost to failed batches (entries are dropped on failure so
  /// later batches never silently make them durable). One entry per failed
  /// batch; waiters inside a range get that batch's error forever.
  struct DroppedRange {
    Lsn from;
    Lsn upto;
    Status error;
  };
  std::vector<DroppedRange> dropped_;

  // Pack state (see mu_ comment for the ownership protocol).
  PageId start_page_ = 1;           // first record page (from the header)
  PageId next_page_ = 1;            // page the in-memory tail will land on
  PageData cur_page_;               // partially filled tail page
  size_t cur_used_ = 0;             // payload bytes used in cur_page_
  /// True when the on-disk tail page may differ from cur_page_ (set after
  /// a failed batch so the next flush rewrites it; never set by a clean
  /// flush, which is what makes empty Flush() calls free).
  bool tail_dirty_ = false;
  /// True until the header page has been written (fresh or Reset logs,
  /// or a resumed log whose header was lost); the next PackAndSync writes
  /// it before the record pages.
  bool header_dirty_ = true;
  Lsn truncate_below_lsn_ = 0;
  uint64_t bytes_at_truncate_ = 0;  // appended_bytes_ at last TruncateUpTo

  std::atomic<int64_t> group_window_us_{0};
  uint64_t recovered_records_ = 0;

  Counter fsyncs_local_;
  Counter* fsyncs_total_;       // wal.fsyncs_total
  Histogram* batch_size_;       // wal.group.batch_size (records per batch)
  Histogram* wait_us_;          // wal.group.wait_us (WaitDurable latency)
};

}  // namespace idba
