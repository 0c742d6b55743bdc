#include "txn/recovery.h"

#include <unordered_set>

namespace idba {

Result<RecoveryStats> RecoverFromWal(Disk* wal_disk, HeapStore* heap) {
  RecoveryStats stats;
  IDBA_ASSIGN_OR_RETURN(std::vector<WalRecord> records,
                        Wal::ReadAllFromDisk(wal_disk));
  stats.records_scanned = records.size();

  // Pass 1: winners, in log order — an abort record appended after a commit
  // record cancels it. The commit path emits exactly that sequence when the
  // sync covering a commit record fails: the record may still have reached
  // disk, so the transaction appends a best-effort abort record and reports
  // failure to the client. Replaying such a txn would resurrect a commit
  // the client was told did not happen.
  std::unordered_set<TxnId> committed;
  for (const WalRecord& rec : records) {
    if (rec.type == WalRecordType::kCommit) {
      committed.insert(rec.txn);
    } else if (rec.type == WalRecordType::kAbort) {
      committed.erase(rec.txn);
    }
  }
  stats.committed_txns = committed.size();

  // Pass 2: redo committed writes in log order.
  for (const WalRecord& rec : records) {
    if (!committed.count(rec.txn)) continue;
    switch (rec.type) {
      case WalRecordType::kInsert:
      case WalRecordType::kUpdate: {
        auto current = heap->ReadVersion(rec.oid);
        if (current.ok()) {
          if (current.value() >= rec.after.version()) {
            ++stats.skipped_stale;
            break;
          }
          IDBA_RETURN_NOT_OK(heap->Update(rec.after));
        } else if (current.status().IsNotFound()) {
          IDBA_RETURN_NOT_OK(heap->Insert(rec.after));
        } else {
          return current.status();
        }
        ++stats.redone_writes;
        break;
      }
      case WalRecordType::kErase: {
        Status st = heap->Erase(rec.oid);
        if (!st.ok() && !st.IsNotFound()) return st;
        ++stats.redone_writes;
        break;
      }
      default:
        break;
    }
  }
  return stats;
}

}  // namespace idba
