#include "client/database_client.h"

namespace idba {

DatabaseClient::DatabaseClient(DatabaseServer* server, ClientId id, RpcMeter* meter,
                               NotificationBus* bus, DatabaseClientOptions opts)
    : server_(server), id_(id), meter_(meter), bus_(bus), opts_(opts),
      cache_(opts.cache), inbox_(opts.inbox) {
  if (opts_.report_evictions) {
    cache_.set_eviction_callback(
        [this](Oid oid) { server_->NoteEvicted(id_, oid); });
  }
  server_->ConnectClient(id_, &cache_);
  if (bus_ != nullptr) bus_->Register(static_cast<EndpointId>(id_), &inbox_);
}

DatabaseClient::~DatabaseClient() {
  if (bus_ != nullptr) bus_->Unregister(static_cast<EndpointId>(id_));
  server_->DisconnectClient(id_);
  inbox_.Close();
}

void DatabaseClient::PreObserve() {
  // Push the request's arrival into the server clock before the call runs,
  // so server-side events (commit hooks reading the commit time) observe a
  // causally correct clock.
  meter_->ObserveRequest(clock_.Now(), &server_->cpu_clock());
}

void DatabaseClient::Charge(const ServerCallInfo& info) {
  rpcs_.Add();
  VTime done = meter_->ChargeRoundTrip(clock_.Now(), &server_->cpu_clock(),
                                       info.request_bytes, info.response_bytes,
                                       info.page_misses, info.callbacks);
  clock_.Observe(done);
}

Result<TxnId> DatabaseClient::BeginTxn() {
  // Begin is piggybacked on the first request in real systems; free here.
  // In-process it cannot fail.
  return server_->Begin(id_);
}

void DatabaseClient::RecordRead(TxnId txn, const DatabaseObject& obj) {
  std::lock_guard<std::mutex> lock(read_sets_mu_);
  read_sets_[txn].emplace_back(obj.oid(), obj.version());
}

Result<DatabaseObject> DatabaseClient::Read(TxnId txn, Oid oid) {
  if (auto cached = cache_.Get(oid)) {
    if (opts_.consistency == ConsistencyMode::kDetection) {
      // Detection: optimistic — remember the version we acted on so the
      // commit can validate it.
      RecordRead(txn, *cached);
      return *cached;
    }
    // Avoidance: the copy is valid, but an update transaction acting on it
    // must hold the S lock so no writer can slip a commit between this
    // read and our own commit. (Real callback-locking caches the lock too;
    // without lock caching the grant costs a small lock-only round trip.
    // Display reads use ReadCurrent and stay communication-free.)
    ServerCallInfo lock_info;
    PreObserve();
    Status st = server_->LockForRead(id_, txn, oid, &lock_info);
    Charge(lock_info);
    IDBA_RETURN_NOT_OK(st);
    // Re-check: the copy may have been invalidated while we waited for the
    // lock; with S now held, a present copy is guaranteed current.
    if (auto still = cache_.Get(oid)) return *still;
    // Fall through to fetch (S lock already held, fetch re-grants cheaply).
  }
  ServerCallInfo info;
  PreObserve();
  Result<DatabaseObject> obj = Status::OK();
  if (opts_.consistency == ConsistencyMode::kDetection) {
    // Optimistic read: no S lock held, copy not tracked by the server.
    obj = server_->FetchCurrent(id_, oid, &info, /*register_copy=*/false);
    if (obj.ok()) RecordRead(txn, obj.value());
  } else {
    obj = server_->Fetch(id_, txn, oid, &info);
  }
  Charge(info);
  if (obj.ok()) cache_.Put(obj.value());
  return obj;
}

Result<DatabaseObject> DatabaseClient::ReadCurrent(Oid oid) {
  if (auto cached = cache_.Get(oid)) return *cached;
  ServerCallInfo info;
  PreObserve();
  auto obj = server_->FetchCurrent(
      id_, oid, &info,
      /*register_copy=*/opts_.consistency == ConsistencyMode::kAvoidance);
  Charge(info);
  if (obj.ok()) cache_.Put(obj.value());
  return obj;
}

Status DatabaseClient::Write(TxnId txn, DatabaseObject obj) {
  ServerCallInfo info;
  PreObserve();
  Status st = server_->Put(id_, txn, std::move(obj), &info);
  Charge(info);
  return st;
}

Status DatabaseClient::Insert(TxnId txn, DatabaseObject obj) {
  ServerCallInfo info;
  PreObserve();
  Status st = server_->Insert(id_, txn, std::move(obj), &info);
  Charge(info);
  return st;
}

Status DatabaseClient::EraseObject(TxnId txn, Oid oid) {
  ServerCallInfo info;
  PreObserve();
  Status st = server_->Erase(id_, txn, oid, &info);
  Charge(info);
  return st;
}

Result<CommitResult> DatabaseClient::Commit(TxnId txn) {
  ServerCallInfo info;
  PreObserve();
  Result<CommitResult> result = Status::OK();
  if (opts_.consistency == ConsistencyMode::kDetection) {
    std::vector<std::pair<Oid, uint64_t>> read_set;
    {
      std::lock_guard<std::mutex> lock(read_sets_mu_);
      auto it = read_sets_.find(txn);
      if (it != read_sets_.end()) {
        read_set = std::move(it->second);
        read_sets_.erase(it);
      }
    }
    result = server_->CommitValidated(id_, txn, read_set, &info);
    if (!result.ok() && result.status().IsAborted()) {
      validation_aborts_.Add();
      // Our optimistic copies proved stale; drop them so the retry
      // re-fetches current images.
      for (const auto& [oid, version] : read_set) cache_.Drop(oid);
    }
  } else {
    result = server_->Commit(id_, txn, &info);
  }
  Charge(info);
  if (result.ok()) {
    // The writer's own cache is refreshed from the commit reply
    // (write-all includes the writer's copy).
    for (const DatabaseObject& obj : result.value().updated) {
      if (cache_.Contains(obj.oid())) cache_.Put(obj);
    }
    for (Oid oid : result.value().erased) cache_.Drop(oid);
  }
  return result;
}

Status DatabaseClient::Abort(TxnId txn) {
  {
    std::lock_guard<std::mutex> lock(read_sets_mu_);
    read_sets_.erase(txn);
  }
  ServerCallInfo info;
  PreObserve();
  Status st = server_->Abort(id_, txn, &info);
  Charge(info);
  return st;
}

Result<std::vector<DatabaseObject>> DatabaseClient::RunQuery(
    const ObjectQuery& query) {
  ServerCallInfo info;
  PreObserve();
  auto objs = server_->ExecuteQuery(id_, query, &info);
  Charge(info);
  if (objs.ok()) cache_.PutAll(objs.value());
  return objs;
}

Result<std::vector<DatabaseObject>> DatabaseClient::ScanClass(
    ClassId cls, bool include_subclasses) {
  ServerCallInfo info;
  PreObserve();
  auto objs = server_->ScanClass(id_, cls, include_subclasses, &info);
  Charge(info);
  if (objs.ok()) cache_.PutAll(objs.value());
  return objs;
}

}  // namespace idba
