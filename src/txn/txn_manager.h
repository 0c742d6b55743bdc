// Transaction manager: strict two-phase locking with deferred updates.
//
// Reads take S locks and hit the heap store; writes take X locks and are
// buffered in a per-transaction intention list. Commit appends redo records
// + a commit record to the WAL, forces the log, applies the intention list
// to the heap (bumping object versions), fires the commit hooks (client
// cache callbacks and display-lock notifications are driven from there) and
// only then releases locks — guaranteeing ACID per Gray & Reuter, as the
// paper assumes of its substrate DBMS.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "objectmodel/object.h"
#include "storage/heap_store.h"
#include "storage/wal.h"
#include "txn/lock_manager.h"

namespace idba {

enum class TxnState : uint8_t { kActive, kCommitted, kAborted };

/// What a commit changed — input for cache callbacks and DLM notification.
struct CommitResult {
  TxnId txn = 0;
  std::vector<DatabaseObject> updated;  ///< post-commit images (incl. inserts)
  std::vector<Oid> erased;
  int page_misses = 0;  ///< physical reads incurred applying the commit
};

/// Fired while holding no internal mutex, after locks are still held
/// (strictness) but the commit is durable.
using CommitHook = std::function<void(const CommitResult&)>;

/// Fired when a transaction acquires an X lock on an object (the paper's
/// early-notify trigger: "update intention").
using XLockHook = std::function<void(TxnId, Oid)>;

/// Fired when a transaction aborts (early-notify resolution messages).
using AbortHook = std::function<void(TxnId)>;

struct TxnManagerOptions {
  /// Group-commit window: how long the WAL flush leader lingers for more
  /// committers before paying the sync (applied to the Wal at construction;
  /// 0 = flush immediately, batching then comes from sync backpressure).
  int64_t group_commit_window_us = 0;
};

/// Thread-safe transaction manager over a heap store and WAL.
class TxnManager {
 public:
  TxnManager(HeapStore* heap, Wal* wal, TxnManagerOptions opts = {});

  /// Starts a transaction.
  TxnId Begin();

  /// Reads `oid` under an S lock (sees the transaction's own writes).
  Result<DatabaseObject> Get(TxnId txn, Oid oid, IoStats* io = nullptr);

  /// Takes only the S lock (no data access): clients reading a cached copy
  /// acquire this before trusting it inside an update transaction. With the
  /// S lock held, a present cached copy is guaranteed current (invalidation
  /// happens strictly before the writer's X lock is released).
  Status LockRead(TxnId txn, Oid oid);

  /// Detection-based consistency support (the protocol family §2.3/§3.3
  /// contrasts with avoidance): validates that each (oid, version) pair a
  /// client read optimistically from its cache is still current, taking S
  /// locks so the validation holds through commit. Returns Aborted on any
  /// stale read (the caller then aborts the transaction).
  Status ValidateReads(TxnId txn,
                       const std::vector<std::pair<Oid, uint64_t>>& reads,
                       IoStats* io = nullptr);

  /// Buffers an update of an existing object (X lock).
  Status Put(TxnId txn, DatabaseObject obj);

  /// Buffers insertion of a new object (X lock on its fresh OID).
  Status Insert(TxnId txn, DatabaseObject obj);

  /// Buffers deletion (X lock).
  Status Erase(TxnId txn, Oid oid);

  /// Durably commits; returns what changed.
  Result<CommitResult> Commit(TxnId txn);

  /// Discards the intention list and releases locks.
  Status Abort(TxnId txn);

  /// Allocates a fresh OID (monotonic, never reused).
  Oid AllocateOid();

  /// Re-derives the allocator floor from the heap's current contents.
  /// The constructor scans the heap once, but WAL replay (which runs after
  /// server construction) can add objects with higher oids; callers that
  /// replay must reseed or later allocations would collide. Never lowers
  /// the counter.
  void ReseedOidCounter();

  /// Appends a fuzzy-checkpoint begin record and returns its LSN, holding
  /// the commit fence exclusively so no transaction is between its WAL
  /// append and its heap apply at that instant. After this returns, every
  /// commit with LSN <= the returned fence has fully reached the heap, and
  /// every later commit's records survive the WAL truncation that follows
  /// the checkpoint. Appends only — no I/O under the fence.
  Result<Lsn> AppendCheckpointBegin();

  TxnState GetState(TxnId txn) const;
  LockManager& lock_manager() { return locks_; }

  void set_commit_hook(CommitHook hook) { commit_hook_ = std::move(hook); }
  void set_xlock_hook(XLockHook hook) { xlock_hook_ = std::move(hook); }
  void set_abort_hook(AbortHook hook) { abort_hook_ = std::move(hook); }

  uint64_t commits() const { return commits_.Get(); }
  uint64_t aborts() const { return aborts_.Get(); }

 private:
  enum class WriteKind : uint8_t { kInsert, kUpdate, kErase };
  struct PendingWrite {
    WriteKind kind;
    DatabaseObject obj;  // kInsert/kUpdate
    Oid oid;
  };
  struct Txn {
    TxnState state = TxnState::kActive;
    std::vector<PendingWrite> writes;                // in issue order
    std::unordered_map<Oid, size_t> last_write;      // oid -> index in writes
  };

  Result<Txn*> FindActive(TxnId txn);

  /// Commit failed before the transaction became durable: release its
  /// locks, mark it aborted and surface `cause`. Leaving the X locks held
  /// here (the pre-group-commit behaviour) hung every later reader of the
  /// transaction's OIDs forever.
  Status FailCommit(TxnId txn, Txn* t, Status cause);

  HeapStore* heap_;
  Wal* wal_;
  LockManager locks_;
  CommitHook commit_hook_;
  XLockHook xlock_hook_;
  AbortHook abort_hook_;

  /// Commits hold this shared from WAL append through heap apply; the
  /// checkpointer takes it exclusively (only to append its begin record)
  /// so the begin LSN cleanly separates fully-applied transactions from
  /// ones whose records will survive truncation.
  mutable std::shared_mutex commit_fence_;

  mutable std::mutex mu_;
  std::unordered_map<TxnId, std::unique_ptr<Txn>> txns_;
  TxnId next_txn_ = 1;
  std::atomic<uint64_t> next_oid_{1};
  Counter commits_, aborts_;
};

}  // namespace idba
