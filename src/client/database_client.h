// In-process backend of the client runtime: the application-facing handle
// to a DatabaseServer in the same process.
//
// CachingClient owns the client database cache (second level of the
// paper's memory hierarchy), the virtual clock of the GUI/user thread, the
// notification inbox (the Display Lock Client in src/core pumps it) and the
// cache-consistency protocol. This class supplies its server calls as
// direct DatabaseServer calls, each charged calibrated virtual latency
// through the shared RpcMeter (Metered); cache hits cost nothing.

#pragma once

#include "client/client_api.h"
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
class DatabaseClient : public CachingClient {
 public:
  DatabaseClient(DatabaseServer* server, ClientId id, RpcMeter* meter,
                 NotificationBus* bus, DatabaseClientOptions opts = {});
  ~DatabaseClient() override;

  DatabaseClient(const DatabaseClient&) = delete;
  DatabaseClient& operator=(const DatabaseClient&) = delete;

  ClientId id() const override { return id_; }
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
  Status Write(TxnId txn, DatabaseObject obj) override;
  Status Insert(TxnId txn, DatabaseObject obj) override;
  Status EraseObject(TxnId txn, Oid oid) override;

  Result<Oid> NewOid() override { return server_->AllocateOid(); }

  Result<uint64_t> LatestVersion(Oid oid) override {
    return server_->heap().ReadVersion(oid);
  }

 private:
  /// Runs `call(&info)` as one metered RPC: the request's arrival enters
  /// the server clock before the call, the round trip is charged after.
  template <typename Call>
  auto Metered(Call call);

  Status LockForReadCall(TxnId txn, Oid oid) override;
  Result<DatabaseObject> FetchCall(TxnId txn, Oid oid) override;
  Result<DatabaseObject> FetchCurrentCall(Oid oid, bool register_copy) override;
  Result<CommitResult> CommitCall(TxnId txn, const ReadSet* read_set) override;
  Status AbortCall(TxnId txn) override;
  Result<std::vector<DatabaseObject>> ScanCall(
      ClassId cls, bool include_subclasses) override;
  Result<std::vector<DatabaseObject>> QueryCall(
      const ObjectQuery& query) override;

  DatabaseServer* server_;
  ClientId id_;
  RpcMeter* meter_;
  NotificationBus* bus_;
};

}  // namespace idba
