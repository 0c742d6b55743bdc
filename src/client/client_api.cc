#include "client/client_api.h"

namespace idba {

CachingClient::CachingClient(ConsistencyMode consistency,
                             ObjectCacheOptions cache, InboxOptions inbox)
    : cache_(cache), inbox_(std::move(inbox)), consistency_(consistency) {}

void CachingClient::RecordRead(TxnId txn, const DatabaseObject& obj) {
  std::lock_guard<std::mutex> lock(read_sets_mu_);
  read_sets_[txn].emplace_back(obj.oid(), obj.version());
}

void CachingClient::ForgetReadSets() {
  std::lock_guard<std::mutex> lock(read_sets_mu_);
  read_sets_.clear();
}

Result<DatabaseObject> CachingClient::Read(TxnId txn, Oid oid) {
  if (auto cached = cache_.Get(oid)) {
    if (detection()) {
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
    IDBA_RETURN_NOT_OK(LockForReadCall(txn, oid));
    // Re-check: the copy may have been invalidated while we waited for the
    // lock; with S now held, a present copy is guaranteed current.
    if (auto still = cache_.Get(oid)) return *still;
    // Fall through to fetch (S lock already held, fetch re-grants cheaply).
  }
  // Detection reads optimistically: no S lock, copy not tracked by the
  // server.
  Result<DatabaseObject> obj =
      detection() ? FetchCurrentCall(oid, /*register_copy=*/false)
                  : FetchCall(txn, oid);
  if (!obj.ok()) return obj;
  if (detection()) RecordRead(txn, obj.value());
  cache_.Put(obj.value());
  return obj;
}

Result<DatabaseObject> CachingClient::ReadCurrent(Oid oid) {
  if (auto cached = cache_.Get(oid)) return *cached;
  Result<DatabaseObject> obj =
      FetchCurrentCall(oid, /*register_copy=*/!detection());
  if (obj.ok()) cache_.Put(obj.value());
  return obj;
}

Result<CommitResult> CachingClient::Commit(TxnId txn) {
  ReadSet read_set;
  if (detection()) {
    std::lock_guard<std::mutex> lock(read_sets_mu_);
    if (auto node = read_sets_.extract(txn)) read_set = std::move(node.mapped());
  }
  Result<CommitResult> result =
      CommitCall(txn, detection() ? &read_set : nullptr);
  if (!result.ok()) {
    if (detection() && result.status().IsAborted()) {
      validation_aborts_.Add();
      // Our optimistic copies proved stale; drop them so the retry
      // re-fetches current images.
      for (const auto& [oid, version] : read_set) cache_.Drop(oid);
    }
    return result;
  }
  // The writer's own cache is refreshed from the commit reply (write-all
  // includes the writer's copy).
  for (const DatabaseObject& obj : result.value().updated) {
    if (cache_.Contains(obj.oid())) cache_.Put(obj);
  }
  for (Oid oid : result.value().erased) cache_.Drop(oid);
  return result;
}

Status CachingClient::Abort(TxnId txn) {
  {
    std::lock_guard<std::mutex> lock(read_sets_mu_);
    read_sets_.erase(txn);
  }
  return AbortCall(txn);
}

Result<std::vector<DatabaseObject>> CachingClient::ScanClass(
    ClassId cls, bool include_subclasses) {
  auto objs = ScanCall(cls, include_subclasses);
  if (objs.ok()) cache_.PutAll(objs.value());
  return objs;
}

Result<std::vector<DatabaseObject>> CachingClient::RunQuery(
    const ObjectQuery& query) {
  auto objs = QueryCall(query);
  if (objs.ok()) cache_.PutAll(objs.value());
  return objs;
}

}  // namespace idba
