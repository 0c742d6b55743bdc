// Client runtime: the application-facing handle to the database.
//
// Owns the client database cache (second level of the paper's memory
// hierarchy), a virtual clock for the GUI/user thread, and an inbox for
// asynchronous notifications (the Display Lock Client in src/core pumps
// it). Every server interaction charges calibrated virtual latency through
// the shared RpcMeter; cache hits cost nothing — the avoidance-based
// protocol guarantees cached copies are valid.

#pragma once

#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "client/client_api.h"
#include "client/object_cache.h"
#include "net/inbox.h"
#include "net/notification_bus.h"
#include "net/rpc_meter.h"
#include "server/database_server.h"

namespace idba {

struct DatabaseClientOptions {
  ObjectCacheOptions cache;
  /// Report cache evictions to the server (keeps the callback registry
  /// tight; piggybacked on other traffic in real systems, so free here).
  bool report_evictions = true;
  ConsistencyMode consistency = ConsistencyMode::kAvoidance;
  /// Bounds for the notification inbox (0 = unbounded, the default).
  /// Bounding adds the coalesce/shed/overflow degradation ladder of
  /// net/inbox.h; the DLC pump answers an overflow with a full resync.
  InboxOptions inbox;
};

/// One per application process. Thread-compatible: the application drives
/// it from its user thread; the notification pump may concurrently touch
/// the cache (which is internally synchronized).
class DatabaseClient : public ClientApi {
 public:
  DatabaseClient(DatabaseServer* server, ClientId id, RpcMeter* meter,
                 NotificationBus* bus, DatabaseClientOptions opts = {});
  ~DatabaseClient() override;

  DatabaseClient(const DatabaseClient&) = delete;
  DatabaseClient& operator=(const DatabaseClient&) = delete;

  ClientId id() const override { return id_; }
  VirtualClock& clock() override { return clock_; }
  Inbox& inbox() override { return inbox_; }
  ObjectCache& cache() override { return cache_; }
  DatabaseServer& server() { return *server_; }
  const SchemaCatalog& schema() const override { return server_->schema(); }
  const CostModel& cost_model() const override { return meter_->cost_model(); }

  // --- Schema administration (direct catalog access; setup phase) ------
  Result<ClassId> DefineClass(const std::string& name,
                              ClassId base = 0) override {
    return server_->schema().DefineClass(name, base);
  }
  Status AddAttribute(ClassId cls, const std::string& name, ValueType type,
                      Value default_value = Value()) override {
    return server_->schema().AddAttribute(cls, name, type,
                                          std::move(default_value));
  }

  // --- Transactions ----------------------------------------------------
  Result<TxnId> BeginTxn() override;

  /// Transactional read (S lock at the server on a miss; free on a hit).
  Result<DatabaseObject> Read(TxnId txn, Oid oid) override;

  /// Degree-0 read of the latest committed image (display building).
  Result<DatabaseObject> ReadCurrent(Oid oid) override;

  Status Write(TxnId txn, DatabaseObject obj) override;
  Status Insert(TxnId txn, DatabaseObject obj) override;
  Status EraseObject(TxnId txn, Oid oid) override;

  Result<CommitResult> Commit(TxnId txn) override;
  Status Abort(TxnId txn) override;

  /// Degree-0 scan used to populate displays.
  Result<std::vector<DatabaseObject>> ScanClass(
      ClassId cls, bool include_subclasses = false) override;

  /// Degree-0 server-side predicate query; matches enter the cache.
  Result<std::vector<DatabaseObject>> RunQuery(const ObjectQuery& query) override;

  Result<Oid> NewOid() override { return server_->AllocateOid(); }

  Result<uint64_t> LatestVersion(Oid oid) override {
    return server_->heap().ReadVersion(oid);
  }

  uint64_t rpcs_issued() const override { return rpcs_.Get(); }
  ConsistencyMode consistency() const override { return opts_.consistency; }
  /// Validation aborts suffered (detection mode only).
  uint64_t validation_aborts() const override { return validation_aborts_.Get(); }

 private:
  void PreObserve();
  void Charge(const ServerCallInfo& info);
  void RecordRead(TxnId txn, const DatabaseObject& obj);

  DatabaseServer* server_;
  ClientId id_;
  RpcMeter* meter_;
  NotificationBus* bus_;
  DatabaseClientOptions opts_;
  ObjectCache cache_;
  Inbox inbox_;
  VirtualClock clock_;
  Counter rpcs_;
  Counter validation_aborts_;
  // Detection mode: optimistic read sets per open transaction.
  std::mutex read_sets_mu_;
  std::unordered_map<TxnId, std::vector<std::pair<Oid, uint64_t>>> read_sets_;
};

}  // namespace idba
