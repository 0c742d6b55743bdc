// Backend-neutral client interfaces.
//
// ClientApi is the surface an interactive application programs against: the
// transactional/query operations plus the client-local runtime pieces
// (cache, inbox, virtual clock) that the display layer (DLC, ActiveView)
// needs. CachingClient implements it, with the §3.3 cache protocol, over
// two backends that supply only the server calls:
//   - DatabaseClient        — direct in-process calls, metered virtual cost
//   - RemoteDatabaseClient  — the same operations over the TCP wire protocol
// Application code written against ClientApi runs unchanged over either.
//
// DisplayLockService is the corresponding abstraction of the Display Lock
// Manager's request surface: in-process the DLC talks straight to the
// DisplayLockManager; remotely, RemoteDatabaseClient forwards the requests
// as wire frames to the server-hosted DLM.

#pragma once

#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "client/object_cache.h"
#include "common/cost_model.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/vtime.h"
#include "net/inbox.h"
#include "objectmodel/object.h"
#include "objectmodel/query.h"
#include "objectmodel/schema.h"
#include "server/callback_manager.h"
#include "txn/txn_manager.h"

namespace idba {

/// Client cache consistency family (paper §3.3). Avoidance (the default,
/// and the paper's choice for displays) guarantees cached copies are valid
/// via server callbacks; detection allows stale copies and validates a
/// transaction's optimistic reads at commit, aborting on staleness.
enum class ConsistencyMode { kAvoidance, kDetection };

/// The application-facing database handle, independent of transport.
class ClientApi {
 public:
  virtual ~ClientApi() = default;

  virtual ClientId id() const = 0;
  virtual VirtualClock& clock() = 0;
  virtual Inbox& inbox() = 0;
  virtual ObjectCache& cache() = 0;
  virtual const SchemaCatalog& schema() const = 0;
  virtual const CostModel& cost_model() const = 0;
  virtual ConsistencyMode consistency() const = 0;

  // --- Schema administration (setup phase; DDL travels with the client
  // connection, like any client-server DBMS) ----------------------------
  virtual Result<ClassId> DefineClass(const std::string& name,
                                      ClassId base = 0) = 0;
  virtual Status AddAttribute(ClassId cls, const std::string& name,
                              ValueType type, Value default_value = Value()) = 0;

  // --- Transactions ----------------------------------------------------
  /// Starts a transaction. Fallible: over a remote backend the begin is an
  /// RPC that can time out or lose its connection.
  virtual Result<TxnId> BeginTxn() = 0;
  /// Convenience wrapper for call sites that treat begin as infallible
  /// (in-process it is). Returns 0 — never a valid TxnId — on transport
  /// failure; prefer BeginTxn() anywhere the error must propagate.
  TxnId Begin() {
    Result<TxnId> txn = BeginTxn();
    return txn.ok() ? txn.value() : 0;
  }
  virtual Result<DatabaseObject> Read(TxnId txn, Oid oid) = 0;
  virtual Result<DatabaseObject> ReadCurrent(Oid oid) = 0;
  virtual Status Write(TxnId txn, DatabaseObject obj) = 0;
  virtual Status Insert(TxnId txn, DatabaseObject obj) = 0;
  virtual Status EraseObject(TxnId txn, Oid oid) = 0;
  virtual Result<CommitResult> Commit(TxnId txn) = 0;
  virtual Status Abort(TxnId txn) = 0;

  // --- Bulk reads -------------------------------------------------------
  virtual Result<std::vector<DatabaseObject>> ScanClass(
      ClassId cls, bool include_subclasses = false) = 0;
  virtual Result<std::vector<DatabaseObject>> RunQuery(
      const ObjectQuery& query) = 0;

  /// Reserves a fresh object id. Fallible for the same reason as
  /// BeginTxn().
  virtual Result<Oid> NewOid() = 0;
  /// Convenience wrapper; returns the null Oid on transport failure.
  Oid AllocateOid() {
    Result<Oid> oid = NewOid();
    return oid.ok() ? oid.value() : Oid();
  }

  /// Latest committed version of `oid` (introspection used by staleness
  /// accounting; not metered, not transactional).
  virtual Result<uint64_t> LatestVersion(Oid oid) = 0;

  virtual uint64_t rpcs_issued() const = 0;
  /// Validation aborts suffered (detection mode only).
  virtual uint64_t validation_aborts() const = 0;
  /// Retry-after hint (ms) from the most recent Status::Overloaded
  /// rejection this client received; 0 when none. Retry loops
  /// (RunTransaction) use it as a backoff floor. In-process backends never
  /// shed, so the default stays 0.
  virtual int64_t retry_after_hint_ms() const { return 0; }
};

/// The client half of the paper's cache consistency (§3.3), written once
/// for both backends. It owns the client DB cache, the inbox, the virtual
/// clock, the RPC and validation-abort counters and the detection read
/// sets. A backend supplies the seven private server calls, each exactly
/// one counted RPC; these members outlive its destructor, which first
/// stops everything (server registration, reader thread) that touches them.
class CachingClient : public ClientApi {
 public:
  VirtualClock& clock() override { return clock_; }
  Inbox& inbox() override { return inbox_; }
  ObjectCache& cache() override { return cache_; }
  ConsistencyMode consistency() const override { return consistency_; }
  uint64_t rpcs_issued() const override { return rpcs_.Get(); }
  uint64_t validation_aborts() const override { return validation_aborts_.Get(); }

  /// Transactional read. Avoidance: a hit takes the S lock with a
  /// lock-only round trip, a miss fetches under it. Detection: a hit is
  /// free, a miss fetches untracked, and both are validated at commit.
  Result<DatabaseObject> Read(TxnId txn, Oid oid) final;
  /// Degree-0 read of the latest committed image (display building): free
  /// on a hit; a fetched copy is registered for callbacks in avoidance.
  Result<DatabaseObject> ReadCurrent(Oid oid) final;
  Result<CommitResult> Commit(TxnId txn) final;
  Status Abort(TxnId txn) final;
  /// Degree-0 scan and server-side predicate query; results enter the cache.
  Result<std::vector<DatabaseObject>> ScanClass(
      ClassId cls, bool include_subclasses = false) final;
  Result<std::vector<DatabaseObject>> RunQuery(const ObjectQuery& query) final;

 protected:
  using ReadSet = std::vector<std::pair<Oid, uint64_t>>;

  CachingClient(ConsistencyMode consistency, ObjectCacheOptions cache,
                InboxOptions inbox = {});
  /// Forgets every open transaction's read set (a reconnect ends them).
  void ForgetReadSets();

  ObjectCache cache_;
  Inbox inbox_;
  VirtualClock clock_;
  Counter rpcs_;

 private:
  virtual Status LockForReadCall(TxnId txn, Oid oid) = 0;
  virtual Result<DatabaseObject> FetchCall(TxnId txn, Oid oid) = 0;
  virtual Result<DatabaseObject> FetchCurrentCall(Oid oid,
                                                  bool register_copy) = 0;
  /// `read_set` is null in avoidance; in detection the server validates it.
  virtual Result<CommitResult> CommitCall(TxnId txn,
                                          const ReadSet* read_set) = 0;
  virtual Status AbortCall(TxnId txn) = 0;
  virtual Result<std::vector<DatabaseObject>> ScanCall(
      ClassId cls, bool include_subclasses) = 0;
  virtual Result<std::vector<DatabaseObject>> QueryCall(
      const ObjectQuery& query) = 0;

  bool detection() const { return consistency_ == ConsistencyMode::kDetection; }
  void RecordRead(TxnId txn, const DatabaseObject& obj);

  const ConsistencyMode consistency_;
  Counter validation_aborts_;
  std::mutex read_sets_mu_;
  std::unordered_map<TxnId, ReadSet> read_sets_;
};

/// The DLM request surface as seen from a client (paper §4.1: lock/unlock
/// messages; batches are the one-message-per-view optimization).
class DisplayLockService {
 public:
  virtual ~DisplayLockService() = default;
  virtual Status Lock(ClientId holder, Oid oid, VTime sent_at) = 0;
  virtual Status Unlock(ClientId holder, Oid oid, VTime sent_at) = 0;
  virtual Status LockBatch(ClientId holder, const std::vector<Oid>& oids,
                           VTime sent_at) = 0;
  virtual Status UnlockBatch(ClientId holder, const std::vector<Oid>& oids,
                             VTime sent_at) = 0;
};

}  // namespace idba
