#include "server/database_server.h"

#include "obs/trace.h"

namespace idba {

DatabaseServer::DatabaseServer(DatabaseServerOptions opts)
    : owned_data_disk_(std::make_unique<MemDisk>()),
      owned_wal_disk_(std::make_unique<MemDisk>()) {
  pool_ = std::make_unique<BufferPool>(owned_data_disk_.get(), opts.buffer_pool);
  heap_ = std::move(HeapStore::Open(pool_.get(), 0).value());
  wal_ = std::make_unique<Wal>(owned_wal_disk_.get());
  txn_mgr_ = std::make_unique<TxnManager>(heap_.get(), wal_.get(), opts.txn);
  WireHooks();
}

DatabaseServer::DatabaseServer(Disk* data_disk, Disk* wal_disk,
                               PageId data_page_count, DatabaseServerOptions opts) {
  pool_ = std::make_unique<BufferPool>(data_disk, opts.buffer_pool);
  heap_ = std::move(HeapStore::Open(pool_.get(), data_page_count).value());
  wal_ = std::make_unique<Wal>(wal_disk);
  txn_mgr_ = std::make_unique<TxnManager>(heap_.get(), wal_.get(), opts.txn);
  WireHooks();
}

DatabaseServer::~DatabaseServer() = default;

void DatabaseServer::WireHooks() {
  txn_mgr_->set_commit_hook([this](const CommitResult& result) {
    ClientId writer = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = txn_client_.find(result.txn);
      if (it != txn_client_.end()) writer = it->second;
    }
    // ROWA: call back every remote cached copy before the commit returns.
    int cb = 0;
    for (const DatabaseObject& obj : result.updated) {
      cb += callbacks_.OnCommittedUpdate(writer, obj.oid(), obj.version());
    }
    for (Oid oid : result.erased) {
      cb += callbacks_.OnCommittedUpdate(writer, oid, /*new_version=*/~0ULL);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      commit_callbacks_[result.txn] = cb;
    }
    std::vector<CommitObserver> observers;
    {
      std::lock_guard<std::mutex> lock(mu_);
      observers = commit_observers_;
    }
    for (const auto& obs : observers) obs(writer, result);
  });
  txn_mgr_->set_abort_hook([this](TxnId txn) {
    ClientId writer = 0;
    std::vector<AbortObserver> observers;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = txn_client_.find(txn);
      if (it != txn_client_.end()) writer = it->second;
      observers = abort_observers_;
    }
    for (const auto& obs : observers) obs(writer, txn);
  });
  txn_mgr_->set_xlock_hook([this](TxnId txn, Oid oid) {
    ClientId writer = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = txn_client_.find(txn);
      if (it != txn_client_.end()) writer = it->second;
    }
    std::vector<IntentObserver> observers;
    {
      std::lock_guard<std::mutex> lock(mu_);
      observers = intent_observers_;
    }
    for (const auto& obs : observers) obs(writer, txn, oid);
  });
}

void DatabaseServer::ConnectClient(ClientId client,
                                   CacheCallbackHandler* cache_handler) {
  callbacks_.RegisterClient(client, cache_handler);
}

void DatabaseServer::DisconnectClient(ClientId client) {
  callbacks_.UnregisterClient(client);
}

TxnId DatabaseServer::Begin(ClientId client) {
  TxnId txn = txn_mgr_->Begin();
  std::lock_guard<std::mutex> lock(mu_);
  txn_client_[txn] = client;
  return txn;
}

Result<CommitResult> DatabaseServer::Commit(ClientId client, TxnId txn,
                                            ServerCallInfo* info) {
  (void)client;
  // Covers WAL flush, heap apply, callback fan-out and commit observers
  // (the hooks run inside TxnManager::Commit on this thread).
  IDBA_TRACE_SPAN("server.commit");
  auto result = txn_mgr_->Commit(txn);
  int callbacks = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    txn_client_.erase(txn);
    auto it = commit_callbacks_.find(txn);
    if (it != commit_callbacks_.end()) {
      callbacks = it->second;
      commit_callbacks_.erase(it);
    }
  }
  if (info != nullptr) {
    info->request_bytes = RequestHeaderBytes();
    // The commit reply carries the new images back to the writer so its own
    // cache stays current (write-all includes the writer).
    int64_t resp = RequestHeaderBytes();
    if (result.ok()) {
      info->page_misses = result.value().page_misses;
      for (const DatabaseObject& obj : result.value().updated) {
        resp += static_cast<int64_t>(obj.WireBytes());
      }
    }
    info->response_bytes = resp;
    info->callbacks = callbacks;
  }
  return result;
}

Status DatabaseServer::Abort(ClientId client, TxnId txn, ServerCallInfo* info) {
  (void)client;
  if (info != nullptr) {
    info->request_bytes = RequestHeaderBytes();
    info->response_bytes = RequestHeaderBytes();
  }
  Status st = txn_mgr_->Abort(txn);
  std::lock_guard<std::mutex> lock(mu_);
  txn_client_.erase(txn);
  return st;
}

Result<DatabaseObject> DatabaseServer::Fetch(ClientId client, TxnId txn, Oid oid,
                                             ServerCallInfo* info) {
  IoStats io;
  auto obj = txn_mgr_->Get(txn, oid, &io);
  if (info != nullptr) {
    info->request_bytes = RequestHeaderBytes() + 8;
    info->response_bytes =
        RequestHeaderBytes() +
        (obj.ok() ? static_cast<int64_t>(obj.value().WireBytes()) : 0);
    info->page_misses = io.page_misses;
  }
  if (obj.ok()) callbacks_.NoteCached(client, oid);
  return obj;
}

Status DatabaseServer::LockForRead(ClientId client, TxnId txn, Oid oid,
                                   ServerCallInfo* info) {
  (void)client;
  if (info != nullptr) {
    info->request_bytes = RequestHeaderBytes() + 8;
    info->response_bytes = RequestHeaderBytes();
  }
  return txn_mgr_->LockRead(txn, oid);
}

Result<DatabaseObject> DatabaseServer::FetchCurrent(ClientId client, Oid oid,
                                                    ServerCallInfo* info,
                                                    bool register_copy) {
  IoStats io;
  auto obj = heap_->Read(oid, &io);
  if (info != nullptr) {
    info->request_bytes = RequestHeaderBytes() + 8;
    info->response_bytes =
        RequestHeaderBytes() +
        (obj.ok() ? static_cast<int64_t>(obj.value().WireBytes()) : 0);
    info->page_misses = io.page_misses;
  }
  if (obj.ok() && register_copy) callbacks_.NoteCached(client, oid);
  return obj;
}

Result<CommitResult> DatabaseServer::CommitValidated(
    ClientId client, TxnId txn,
    const std::vector<std::pair<Oid, uint64_t>>& read_set,
    ServerCallInfo* info) {
  IoStats io;
  Status validation = txn_mgr_->ValidateReads(txn, read_set, &io);
  if (!validation.ok()) {
    (void)Abort(client, txn, nullptr);
    if (info != nullptr) {
      info->request_bytes =
          RequestHeaderBytes() + 16 * static_cast<int64_t>(read_set.size());
      info->response_bytes = RequestHeaderBytes();
      info->page_misses = io.page_misses;
    }
    return validation;
  }
  ServerCallInfo commit_info;
  auto result = Commit(client, txn, &commit_info);
  if (info != nullptr) {
    *info = commit_info;
    info->request_bytes += 16 * static_cast<int64_t>(read_set.size());
    info->page_misses += io.page_misses;
  }
  return result;
}

Status DatabaseServer::Put(ClientId client, TxnId txn, DatabaseObject obj,
                           ServerCallInfo* info) {
  (void)client;
  if (info != nullptr) {
    info->request_bytes =
        RequestHeaderBytes() + static_cast<int64_t>(obj.WireBytes());
    info->response_bytes = RequestHeaderBytes();
  }
  return txn_mgr_->Put(txn, std::move(obj));
}

Status DatabaseServer::Insert(ClientId client, TxnId txn, DatabaseObject obj,
                              ServerCallInfo* info) {
  (void)client;
  if (info != nullptr) {
    info->request_bytes =
        RequestHeaderBytes() + static_cast<int64_t>(obj.WireBytes());
    info->response_bytes = RequestHeaderBytes();
  }
  return txn_mgr_->Insert(txn, std::move(obj));
}

Status DatabaseServer::Erase(ClientId client, TxnId txn, Oid oid,
                             ServerCallInfo* info) {
  (void)client;
  if (info != nullptr) {
    info->request_bytes = RequestHeaderBytes() + 8;
    info->response_bytes = RequestHeaderBytes();
  }
  return txn_mgr_->Erase(txn, oid);
}

Result<std::vector<DatabaseObject>> DatabaseServer::ScanClass(
    ClientId client, ClassId cls, bool include_subclasses, ServerCallInfo* info) {
  std::vector<ClassId> classes;
  if (include_subclasses) {
    for (ClassId c = 1; c <= schema_.class_count(); ++c) {
      if (schema_.IsA(c, cls)) classes.push_back(c);
    }
  } else {
    classes.push_back(cls);
  }
  std::vector<DatabaseObject> out;
  IoStats io;
  int64_t bytes = 0;
  for (ClassId c : classes) {
    IDBA_ASSIGN_OR_RETURN(std::vector<Oid> oids, heap_->ScanClass(c));
    for (Oid oid : oids) {
      auto obj = heap_->Read(oid, &io);
      // Erased by a commit since the snapshot: the object left the class.
      if (obj.status().IsNotFound()) continue;
      IDBA_RETURN_NOT_OK(obj.status());
      bytes += static_cast<int64_t>(obj.value().WireBytes());
      callbacks_.NoteCached(client, oid);
      out.push_back(std::move(obj).value());
    }
  }
  if (info != nullptr) {
    info->request_bytes = RequestHeaderBytes() + 8;
    info->response_bytes = RequestHeaderBytes() + bytes;
    info->page_misses = io.page_misses;
  }
  return out;
}

Result<std::vector<DatabaseObject>> DatabaseServer::ExecuteQuery(
    ClientId client, const ObjectQuery& query, ServerCallInfo* info) {
  std::vector<ClassId> classes;
  if (query.include_subclasses) {
    for (ClassId c = 1; c <= schema_.class_count(); ++c) {
      if (schema_.IsA(c, query.cls)) classes.push_back(c);
    }
  } else {
    classes.push_back(query.cls);
  }
  // The first `attr == <oid>` conjunct, if any, picks each class's
  // candidates from the heap's reference index instead of its extent. A
  // slot that does not hold a kOid value never equals an OID value, so the
  // candidates are exactly the objects the extent scan would match on that
  // conjunct; Matches still judges every candidate on the whole query.
  const AttrPredicate* by_ref = nullptr;
  for (const AttrPredicate& p : query.conjuncts) {
    if (p.op == CompareOp::kEq && p.value.type() == ValueType::kOid) {
      by_ref = &p;
      break;
    }
  }
  std::vector<DatabaseObject> out;
  IoStats io;
  int64_t bytes = 0;
  uint64_t examined = 0;
  for (ClassId c : classes) {
    std::vector<Oid> oids;
    if (by_ref == nullptr) {
      IDBA_ASSIGN_OR_RETURN(oids, heap_->ScanClass(c));
    } else if (auto slot = schema_.ResolveAttribute(c, by_ref->attr)) {
      oids = heap_->Referrers(c, static_cast<uint32_t>(*slot), by_ref->value.AsOid());
    }
    for (Oid oid : oids) {
      auto obj = heap_->Read(oid, &io);
      // Erased by a commit since the snapshot: the object left the class.
      if (obj.status().IsNotFound()) continue;
      IDBA_RETURN_NOT_OK(obj.status());
      ++examined;
      if (!query.Matches(schema_, obj.value())) continue;
      bytes += static_cast<int64_t>(obj.value().WireBytes());
      callbacks_.NoteCached(client, oid);
      out.push_back(std::move(obj).value());
    }
  }
  rows_examined_->Add(examined);
  rows_returned_->Add(out.size());
  if (info != nullptr) {
    info->request_bytes =
        RequestHeaderBytes() + static_cast<int64_t>(query.WireBytes());
    info->response_bytes = RequestHeaderBytes() + bytes;
    info->page_misses = io.page_misses;
  }
  return out;
}

void DatabaseServer::NoteEvicted(ClientId client, Oid oid) {
  callbacks_.NoteDropped(client, oid);
}

void DatabaseServer::AddCommitObserver(CommitObserver obs) {
  std::lock_guard<std::mutex> lock(mu_);
  commit_observers_.push_back(std::move(obs));
}

void DatabaseServer::AddIntentObserver(IntentObserver obs) {
  std::lock_guard<std::mutex> lock(mu_);
  intent_observers_.push_back(std::move(obs));
}

void DatabaseServer::AddAbortObserver(AbortObserver obs) {
  std::lock_guard<std::mutex> lock(mu_);
  abort_observers_.push_back(std::move(obs));
}

Status DatabaseServer::Checkpoint() {
  // Force the log, then every data page, then truncate the log: a crash at
  // any intermediate point recovers correctly (redo is idempotent), and
  // after the truncation the log no longer grows without bound.
  IDBA_RETURN_NOT_OK(wal_->Flush());
  IDBA_RETURN_NOT_OK(pool_->FlushAll());
  return wal_->Reset();
}

Status DatabaseServer::FuzzyCheckpoint(CheckpointStats* stats) {
  // 1. Fence: B separates fully-applied commits (LSN <= B, whose effects
  //    the sweep below will capture) from commits whose records survive
  //    the truncation. Appends only — commits stall for microseconds.
  IDBA_ASSIGN_OR_RETURN(Lsn fence, txn_mgr_->AppendCheckpointBegin());
  if (stats != nullptr) stats->fence_lsn = fence;

  // 2. The fence record (and with it every commit <= B) must be durable
  //    before any page carrying those commits' effects is written — the
  //    WAL rule, and it also keeps the truncation below the durable
  //    horizon.
  IDBA_RETURN_NOT_OK(wal_->WaitDurable(fence));

  // 3. Sweep dirty pages while transactions keep running. Pages dirtied
  //    after the snapshot belong to post-fence commits: their records
  //    survive the truncation, so losing or keeping those page writes is
  //    equally correct (redo is version-idempotent).
  uint64_t pages = 0;
  IDBA_RETURN_NOT_OK(pool_->FlushDirtyForCheckpoint(&pages));
  if (stats != nullptr) stats->pages_written = pages;

  // 4. Durable end marker carrying the begin LSN: recovery can tell a
  //    completed checkpoint from an interrupted one (informational — the
  //    truncation horizon in the WAL header is what recovery trusts).
  WalRecord end;
  end.type = WalRecordType::kCheckpointEnd;
  end.txn = fence;
  IDBA_ASSIGN_OR_RETURN(Lsn end_lsn, wal_->Append(std::move(end)));
  IDBA_RETURN_NOT_OK(wal_->WaitDurable(end_lsn));

  // 5. Drop everything at or below the fence.
  Wal::TruncateStats tstats;
  IDBA_RETURN_NOT_OK(wal_->TruncateUpTo(fence, &tstats));
  if (stats != nullptr) {
    stats->wal_pages_written = tstats.pages_written;
    stats->bytes_truncated = tstats.bytes_truncated;
  }
  return Status::OK();
}

}  // namespace idba
