#include "client/database_client.h"

namespace idba {

DatabaseClient::DatabaseClient(DatabaseServer* server, ClientId id, RpcMeter* meter,
                               NotificationBus* bus, DatabaseClientOptions opts)
    : CachingClient(opts.consistency, opts.cache, opts.inbox),
      server_(server), id_(id), meter_(meter), bus_(bus) {
  if (opts.report_evictions) {
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

template <typename Call>
auto DatabaseClient::Metered(Call call) {
  // Push the request's arrival into the server clock before the call runs,
  // so server-side events (commit hooks reading the commit time) observe a
  // causally correct clock.
  meter_->ObserveRequest(clock_.Now(), &server_->cpu_clock());
  ServerCallInfo info;
  auto result = call(&info);
  rpcs_.Add();
  clock_.Observe(meter_->ChargeRoundTrip(
      clock_.Now(), &server_->cpu_clock(), info.request_bytes,
      info.response_bytes, info.page_misses, info.callbacks));
  return result;
}

Result<TxnId> DatabaseClient::BeginTxn() {
  // Begin is piggybacked on the first request in real systems; free here.
  // In-process it cannot fail.
  return server_->Begin(id_);
}

Status DatabaseClient::Write(TxnId txn, DatabaseObject obj) {
  return Metered([&](ServerCallInfo* info) {
    return server_->Put(id_, txn, std::move(obj), info);
  });
}

Status DatabaseClient::Insert(TxnId txn, DatabaseObject obj) {
  return Metered([&](ServerCallInfo* info) {
    return server_->Insert(id_, txn, std::move(obj), info);
  });
}

Status DatabaseClient::EraseObject(TxnId txn, Oid oid) {
  return Metered([&](ServerCallInfo* info) {
    return server_->Erase(id_, txn, oid, info);
  });
}

Status DatabaseClient::LockForReadCall(TxnId txn, Oid oid) {
  return Metered([&](ServerCallInfo* info) {
    return server_->LockForRead(id_, txn, oid, info);
  });
}

Result<DatabaseObject> DatabaseClient::FetchCall(TxnId txn, Oid oid) {
  return Metered([&](ServerCallInfo* info) {
    return server_->Fetch(id_, txn, oid, info);
  });
}

Result<DatabaseObject> DatabaseClient::FetchCurrentCall(Oid oid,
                                                        bool register_copy) {
  return Metered([&](ServerCallInfo* info) {
    return server_->FetchCurrent(id_, oid, info, register_copy);
  });
}

Result<CommitResult> DatabaseClient::CommitCall(TxnId txn,
                                                const ReadSet* read_set) {
  return Metered([&](ServerCallInfo* info) {
    return read_set != nullptr
               ? server_->CommitValidated(id_, txn, *read_set, info)
               : server_->Commit(id_, txn, info);
  });
}

Status DatabaseClient::AbortCall(TxnId txn) {
  return Metered(
      [&](ServerCallInfo* info) { return server_->Abort(id_, txn, info); });
}

Result<std::vector<DatabaseObject>> DatabaseClient::ScanCall(
    ClassId cls, bool include_subclasses) {
  return Metered([&](ServerCallInfo* info) {
    return server_->ScanClass(id_, cls, include_subclasses, info);
  });
}

Result<std::vector<DatabaseObject>> DatabaseClient::QueryCall(
    const ObjectQuery& query) {
  return Metered([&](ServerCallInfo* info) {
    return server_->ExecuteQuery(id_, query, info);
  });
}

}  // namespace idba
