// The database server: storage + transactions + client cache consistency,
// with hooks for the Display Lock Manager. Display locks themselves live
// only in the DLM's table (core/dlm.h), in both the agent and the
// integrated deployment; the server reports commits, update intentions
// and aborts to it through the observers below.
//
// Clients call these methods directly (the in-process stand-in for RPC);
// each call reports its request/response byte sizes and physical page
// misses in a ServerCallInfo so the client runtime can charge virtual
// network/disk/CPU latency through RpcMeter.

#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/vtime.h"
#include "objectmodel/object.h"
#include "objectmodel/query.h"
#include "objectmodel/schema.h"
#include "server/callback_manager.h"
#include "storage/buffer_pool.h"
#include "storage/disk.h"
#include "storage/heap_store.h"
#include "storage/wal.h"
#include "txn/lock_manager.h"
#include "txn/txn_manager.h"

namespace idba {

struct DatabaseServerOptions {
  BufferPoolOptions buffer_pool;
  TxnManagerOptions txn;
};

/// Virtual cost ingredients of one server call.
struct ServerCallInfo {
  int64_t request_bytes = 0;
  int64_t response_bytes = 0;
  int page_misses = 0;
  /// Cache-consistency callbacks triggered by this call (each one is a
  /// server->client round trip in a real deployment).
  int callbacks = 0;
};

/// Observers of committed updates / update intentions. The DLM subscribes
/// to drive the paper's notification protocols.
using CommitObserver = std::function<void(ClientId writer, const CommitResult&)>;
using IntentObserver = std::function<void(ClientId writer, TxnId txn, Oid oid)>;
using AbortObserver = std::function<void(ClientId writer, TxnId txn)>;

/// Thread-safe database server over in-memory (metered) disks or files.
class DatabaseServer {
 public:
  /// Creates a server over fresh MemDisks.
  explicit DatabaseServer(DatabaseServerOptions opts = {});

  /// Creates a server over caller-owned disks (restart/recovery flows).
  DatabaseServer(Disk* data_disk, Disk* wal_disk, PageId data_page_count,
                 DatabaseServerOptions opts);
  ~DatabaseServer();

  // --- Schema (setup phase; not transactional) ------------------------
  SchemaCatalog& schema() { return schema_; }
  const SchemaCatalog& schema() const { return schema_; }

  // --- Client lifecycle ------------------------------------------------
  void ConnectClient(ClientId client, CacheCallbackHandler* cache_handler);
  void DisconnectClient(ClientId client);

  // --- Transactions ----------------------------------------------------
  TxnId Begin(ClientId client);
  Result<CommitResult> Commit(ClientId client, TxnId txn, ServerCallInfo* info);
  Status Abort(ClientId client, TxnId txn, ServerCallInfo* info);

  /// Reads one object under an S lock; registers the client as a copy
  /// holder (it will cache the reply).
  Result<DatabaseObject> Fetch(ClientId client, TxnId txn, Oid oid,
                               ServerCallInfo* info);

  /// Lock-only round trip: grants the transaction an S lock so a cached
  /// copy may be used inside an update transaction (no data travels).
  /// Lock caching is not implemented, so this costs a (small) message —
  /// see CachingClient::Read.
  Status LockForRead(ClientId client, TxnId txn, Oid oid, ServerCallInfo* info);

  /// Fetches the current committed image without transactional locking
  /// (degree-0 read used when (re)building displays; consistency is then
  /// maintained by display locks + notifications, per §3.3).
  /// `register_copy` = false for detection-based clients, whose cached
  /// copies the server deliberately does not track (§3.3: "detection-based
  /// protocols allow stale data to reside in a client's main memory").
  Result<DatabaseObject> FetchCurrent(ClientId client, Oid oid,
                                      ServerCallInfo* info,
                                      bool register_copy = true);

  /// Detection-mode commit: validates the client's optimistic read set
  /// (S locks + version checks) before committing; aborts the transaction
  /// and returns Aborted on any stale read.
  Result<CommitResult> CommitValidated(
      ClientId client, TxnId txn,
      const std::vector<std::pair<Oid, uint64_t>>& read_set,
      ServerCallInfo* info);

  Status Put(ClientId client, TxnId txn, DatabaseObject obj, ServerCallInfo* info);
  Status Insert(ClientId client, TxnId txn, DatabaseObject obj, ServerCallInfo* info);
  Status Erase(ClientId client, TxnId txn, Oid oid, ServerCallInfo* info);

  /// All objects of `cls` (optionally including subclasses), degree-0.
  Result<std::vector<DatabaseObject>> ScanClass(ClientId client, ClassId cls,
                                                bool include_subclasses,
                                                ServerCallInfo* info);

  /// Server-side predicate query (degree-0): only matching objects travel
  /// to the client and enter its cache.
  Result<std::vector<DatabaseObject>> ExecuteQuery(ClientId client,
                                                   const ObjectQuery& query,
                                                   ServerCallInfo* info);

  /// Client evicted its cached copy (usually piggybacked, hence free).
  void NoteEvicted(ClientId client, Oid oid);

  Oid AllocateOid() { return txn_mgr_->AllocateOid(); }

  // --- DLM integration --------------------------------------------------
  void AddCommitObserver(CommitObserver obs);
  void AddIntentObserver(IntentObserver obs);
  void AddAbortObserver(AbortObserver obs);

  // --- Introspection ----------------------------------------------------
  TxnManager& txn_manager() { return *txn_mgr_; }
  LockManager& lock_manager() { return txn_mgr_->lock_manager(); }
  CallbackManager& callback_manager() { return callbacks_; }
  BufferPool& buffer_pool() { return *pool_; }
  HeapStore& heap() { return *heap_; }
  Wal& wal() { return *wal_; }
  VirtualClock& cpu_clock() { return cpu_clock_; }

  /// Flushes everything to its disks (orderly shutdown).
  Status Checkpoint();

  /// What one online checkpoint did (for STATS and the checkpointer log).
  struct CheckpointStats {
    Lsn fence_lsn = 0;            ///< checkpoint-begin LSN (truncation bound)
    uint64_t pages_written = 0;   ///< dirty data pages swept to disk
    uint64_t wal_pages_written = 0;
    uint64_t bytes_truncated = 0;  ///< WAL bytes dropped
  };

  /// Online fuzzy checkpoint: transactions keep committing throughout.
  /// Fences via TxnManager::AppendCheckpointBegin (LSN B), waits for B to
  /// be durable, sweeps dirty pages to the data disk, appends+forces a
  /// checkpoint-end record, then truncates the WAL up to B — bounding
  /// recovery replay by WAL-since-last-checkpoint.
  Status FuzzyCheckpoint(CheckpointStats* stats = nullptr);

  uint64_t commits() const { return txn_mgr_->commits(); }
  uint64_t aborts() const { return txn_mgr_->aborts(); }

 private:
  void WireHooks();
  static int64_t RequestHeaderBytes() { return 32; }

  std::unique_ptr<Disk> owned_data_disk_;
  std::unique_ptr<Disk> owned_wal_disk_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<HeapStore> heap_;
  std::unique_ptr<Wal> wal_;
  std::unique_ptr<TxnManager> txn_mgr_;
  SchemaCatalog schema_;
  CallbackManager callbacks_;
  VirtualClock cpu_clock_;

  std::mutex mu_;
  std::unordered_map<TxnId, ClientId> txn_client_;
  std::unordered_map<TxnId, int> commit_callbacks_;
  std::vector<CommitObserver> commit_observers_;
  std::vector<IntentObserver> intent_observers_;
  std::vector<AbortObserver> abort_observers_;
  // ExecuteQuery's objects read and objects returned.
  Counter* rows_examined_ = GlobalMetrics().GetCounter("query.rows.examined");
  Counter* rows_returned_ = GlobalMetrics().GetCounter("query.rows.returned");
};

}  // namespace idba
