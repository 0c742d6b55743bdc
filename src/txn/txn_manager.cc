#include "txn/txn_manager.h"

#include "obs/trace.h"

namespace idba {

TxnManager::TxnManager(HeapStore* heap, Wal* wal, TxnManagerOptions opts)
    : heap_(heap), wal_(wal) {
  // Never hand out an OID that already exists (e.g. after restart/recovery).
  uint64_t max_oid = 0;
  for (Oid oid : heap_->AllOids()) max_oid = std::max(max_oid, oid.value);
  next_oid_.store(max_oid + 1);
  wal_->set_group_commit_window_us(opts.group_commit_window_us);
}

TxnId TxnManager::Begin() {
  std::lock_guard<std::mutex> lock(mu_);
  TxnId id = next_txn_++;
  txns_[id] = std::make_unique<Txn>();
  return id;
}

Oid TxnManager::AllocateOid() { return Oid(next_oid_.fetch_add(1)); }

void TxnManager::ReseedOidCounter() {
  uint64_t max_oid = 0;
  for (Oid oid : heap_->AllOids()) max_oid = std::max(max_oid, oid.value);
  uint64_t floor = max_oid + 1;
  uint64_t cur = next_oid_.load();
  while (cur < floor && !next_oid_.compare_exchange_weak(cur, floor)) {
  }
}

Result<Lsn> TxnManager::AppendCheckpointBegin() {
  std::unique_lock<std::shared_mutex> fence(commit_fence_);
  WalRecord rec;
  rec.type = WalRecordType::kCheckpoint;
  return wal_->Append(std::move(rec));
}

Result<TxnManager::Txn*> TxnManager::FindActive(TxnId txn) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = txns_.find(txn);
  if (it == txns_.end()) return Status::NotFound("txn " + std::to_string(txn));
  if (it->second->state != TxnState::kActive) {
    return Status::InvalidArgument("txn " + std::to_string(txn) + " not active");
  }
  return it->second.get();
}

Result<DatabaseObject> TxnManager::Get(TxnId txn, Oid oid, IoStats* io) {
  IDBA_ASSIGN_OR_RETURN(Txn * t, FindActive(txn));
  // Read-your-writes from the intention list.
  auto wit = t->last_write.find(oid);
  if (wit != t->last_write.end()) {
    const PendingWrite& w = t->writes[wit->second];
    if (w.kind == WriteKind::kErase) return Status::NotFound(oid.ToString());
    return w.obj;
  }
  IDBA_RETURN_NOT_OK(locks_.Lock(txn, oid, LockMode::kS));
  return heap_->Read(oid, io);
}

Status TxnManager::LockRead(TxnId txn, Oid oid) {
  IDBA_ASSIGN_OR_RETURN(Txn * t, FindActive(txn));
  (void)t;
  return locks_.Lock(txn, oid, LockMode::kS);
}

Status TxnManager::ValidateReads(
    TxnId txn, const std::vector<std::pair<Oid, uint64_t>>& reads, IoStats* io) {
  IDBA_ASSIGN_OR_RETURN(Txn * t, FindActive(txn));
  (void)t;
  for (const auto& [oid, version] : reads) {
    IDBA_RETURN_NOT_OK(locks_.Lock(txn, oid, LockMode::kS));
    auto current = heap_->ReadVersion(oid, io);
    if (!current.ok()) {
      return Status::Aborted("validation: " + oid.ToString() + " vanished");
    }
    if (current.value() != version) {
      return Status::Aborted("validation: stale read of " + oid.ToString() +
                             " (read v" + std::to_string(version) + ", now v" +
                             std::to_string(current.value()) + ")");
    }
  }
  return Status::OK();
}

Status TxnManager::Put(TxnId txn, DatabaseObject obj) {
  IDBA_ASSIGN_OR_RETURN(Txn * t, FindActive(txn));
  Oid oid = obj.oid();
  if (oid.IsNull()) return Status::InvalidArgument("Put with null OID");
  IDBA_RETURN_NOT_OK(locks_.Lock(txn, oid, LockMode::kX));
  if (xlock_hook_) xlock_hook_(txn, oid);
  auto wit = t->last_write.find(oid);
  WriteKind kind = WriteKind::kUpdate;
  if (wit != t->last_write.end() &&
      t->writes[wit->second].kind == WriteKind::kInsert) {
    kind = WriteKind::kInsert;  // updating an object this txn inserted
  }
  t->last_write[oid] = t->writes.size();
  t->writes.push_back(PendingWrite{kind, std::move(obj), oid});
  return Status::OK();
}

Status TxnManager::Insert(TxnId txn, DatabaseObject obj) {
  IDBA_ASSIGN_OR_RETURN(Txn * t, FindActive(txn));
  Oid oid = obj.oid();
  if (oid.IsNull()) return Status::InvalidArgument("Insert with null OID");
  if (heap_->Contains(oid)) return Status::AlreadyExists(oid.ToString());
  IDBA_RETURN_NOT_OK(locks_.Lock(txn, oid, LockMode::kX));
  if (xlock_hook_) xlock_hook_(txn, oid);
  t->last_write[oid] = t->writes.size();
  t->writes.push_back(PendingWrite{WriteKind::kInsert, std::move(obj), oid});
  return Status::OK();
}

Status TxnManager::Erase(TxnId txn, Oid oid) {
  IDBA_ASSIGN_OR_RETURN(Txn * t, FindActive(txn));
  IDBA_RETURN_NOT_OK(locks_.Lock(txn, oid, LockMode::kX));
  if (xlock_hook_) xlock_hook_(txn, oid);
  t->last_write[oid] = t->writes.size();
  t->writes.push_back(PendingWrite{WriteKind::kErase, DatabaseObject{}, oid});
  return Status::OK();
}

Status TxnManager::FailCommit(TxnId txn, Txn* t, Status cause) {
  // Best-effort abort record: if it reaches disk it durably cancels any
  // commit record from the failed batch that might otherwise survive
  // (recovery processes commit/abort in LSN order, last wins). The log may
  // be the broken component, so ignore the append's own outcome.
  WalRecord rec;
  rec.type = WalRecordType::kAbort;
  rec.txn = txn;
  (void)wal_->Append(std::move(rec));
  if (abort_hook_) abort_hook_(txn);
  locks_.ReleaseAll(txn);
  {
    std::lock_guard<std::mutex> lock(mu_);
    t->state = TxnState::kAborted;
  }
  aborts_.Add();
  return cause;
}

Result<CommitResult> TxnManager::Commit(TxnId txn) {
  IDBA_ASSIGN_OR_RETURN(Txn * t, FindActive(txn));
  CommitResult result;
  result.txn = txn;
  IoStats io;

  // 1. Determine final images (last write per OID wins) and bump versions.
  std::vector<PendingWrite> finals;
  for (const auto& [oid, idx] : t->last_write) {
    PendingWrite w = t->writes[idx];
    if (w.kind != WriteKind::kErase) {
      uint64_t old_version = 0;
      if (w.kind == WriteKind::kUpdate) {
        auto cur = heap_->ReadVersion(oid, &io);
        if (!cur.ok()) {
          return FailCommit(txn, t, cur.status());  // update of a vanished object
        }
        old_version = cur.value();
      }
      w.obj.set_version(old_version + 1);
    }
    finals.push_back(std::move(w));
  }

  // Commit fence: held shared from the first WAL append until the heap
  // apply completes, so a checkpoint-begin record (appended under the
  // exclusive side) never lands between a commit record and its heap
  // effects. WaitDurable under a shared fence cannot deadlock: the flush
  // leader is itself a committer holding shared, and the checkpointer
  // never holds the fence while waiting on the WAL.
  std::shared_lock<std::shared_mutex> fence(commit_fence_);

  // 2a. Append phase (lock-light): buffer redo images + the commit record
  //     into the WAL. No I/O happens here.
  for (const PendingWrite& w : finals) {
    WalRecord rec;
    rec.txn = txn;
    rec.oid = w.oid;
    switch (w.kind) {
      case WriteKind::kInsert:
        rec.type = WalRecordType::kInsert;
        rec.after = w.obj;
        break;
      case WriteKind::kUpdate:
        rec.type = WalRecordType::kUpdate;
        rec.after = w.obj;
        break;
      case WriteKind::kErase:
        rec.type = WalRecordType::kErase;
        break;
    }
    auto lsn = wal_->Append(std::move(rec));
    if (!lsn.ok()) return FailCommit(txn, t, lsn.status());
  }
  WalRecord commit_rec;
  commit_rec.type = WalRecordType::kCommit;
  commit_rec.txn = txn;
  auto commit_lsn = wal_->Append(std::move(commit_rec));
  if (!commit_lsn.ok()) return FailCommit(txn, t, commit_lsn.status());

  // 2b. Durability barrier: block until the commit LSN is covered by a
  //     sync. Concurrent committers coalesce into one batched fsync inside
  //     the Wal (group commit); on failure the transaction never became
  //     durable, so abort it cleanly — releasing the X locks, which the
  //     pre-group-commit code leaked, hanging every later reader.
  {
    IDBA_TRACE_SPAN("storage.wal_flush");
    Status st = wal_->WaitDurable(commit_lsn.value());
    if (!st.ok()) return FailCommit(txn, t, st);
  }

  // 3. Apply to the heap (we still hold X locks, so this is race-free).
  //    Failures here are past the durability point: the transaction IS
  //    committed on disk (recovery will redo it), so release locks and
  //    report the storage error without marking it aborted.
  for (const PendingWrite& w : finals) {
    Status apply = Status::OK();
    switch (w.kind) {
      case WriteKind::kInsert:
        apply = heap_->Insert(w.obj, &io);
        if (apply.ok()) result.updated.push_back(w.obj);
        break;
      case WriteKind::kUpdate:
        apply = heap_->Update(w.obj, &io);
        if (apply.ok()) result.updated.push_back(w.obj);
        break;
      case WriteKind::kErase: {
        apply = heap_->Erase(w.oid, &io);
        if (apply.IsNotFound()) apply = Status::OK();
        if (apply.ok()) result.erased.push_back(w.oid);
        break;
      }
    }
    if (!apply.ok()) {
      locks_.ReleaseAll(txn);
      {
        std::lock_guard<std::mutex> lock(mu_);
        t->state = TxnState::kCommitted;  // durably committed; heap diverged
      }
      commits_.Add();
      return apply;
    }
  }
  result.page_misses = io.page_misses;
  fence.unlock();  // WAL + heap agree; the checkpointer may fence here

  // 4. Fire hooks while locks are still held (strictness: nobody can read
  //    a newer uncommitted state between the hook and the release).
  if (commit_hook_) commit_hook_(result);

  // 5. Release locks, mark committed.
  locks_.ReleaseAll(txn);
  {
    std::lock_guard<std::mutex> lock(mu_);
    t->state = TxnState::kCommitted;
  }
  commits_.Add();
  return result;
}

Status TxnManager::Abort(TxnId txn) {
  IDBA_ASSIGN_OR_RETURN(Txn * t, FindActive(txn));
  WalRecord rec;
  rec.type = WalRecordType::kAbort;
  rec.txn = txn;
  IDBA_RETURN_NOT_OK(wal_->Append(std::move(rec)).status());
  if (abort_hook_) abort_hook_(txn);
  locks_.ReleaseAll(txn);
  {
    std::lock_guard<std::mutex> lock(mu_);
    t->state = TxnState::kAborted;
  }
  aborts_.Add();
  return Status::OK();
}

TxnState TxnManager::GetState(TxnId txn) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = txns_.find(txn);
  if (it == txns_.end()) return TxnState::kAborted;
  return it->second->state;
}

}  // namespace idba
