// Display Lock Manager (paper §4.1).
//
// The paper implemented display locking as an *agent* beside the
// commercial server ("the desired functionality had to be implemented on
// top of the existing server, at the application level"): the DLM keeps
// its own OID -> {clients} table, receives lock/unlock messages and update
// reports, and propagates notifications. This class reproduces that agent,
// with an optional *integrated* deployment (opts.integrated) in which the
// DLM runs inside the server and commit hooks reach it without the two
// extra agent hops — the configuration §4.1 describes as the
// straightforward extension when the server can be modified. Both
// deployments keep display locks in this one table; the lock manager's
// mode D only defines their compatibility (txn/lock_manager.h).
//
// Display lock requests are not acknowledged (paper: "Display lock
// requests are not acknowledged back to the clients since they are
// expected to be satisfied") — they cost one one-way message.

#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

#include "client/client_api.h"
#include "common/metrics.h"
#include "core/notification.h"
#include "net/notification_bus.h"
#include "server/database_server.h"

namespace idba {

struct DlmOptions {
  NotifyProtocol protocol = NotifyProtocol::kPostCommit;
  /// Ship new object images inside the notification (paper §4.3's "more
  /// eager approach [that] could eliminate two of the three messages").
  bool eager_shipping = false;
  /// Integrated deployment: commit/intent events reach the DLM without
  /// the two agent hops (see EventArrival).
  bool integrated = false;
};

/// Thread-safe display lock manager. One per deployment.
class DisplayLockManager : public DisplayLockService {
 public:
  DisplayLockManager(DatabaseServer* server, NotificationBus* bus,
                     DlmOptions opts = {});

  /// Registers a display lock for `holder` on `oid`. `sent_at` is the
  /// holder's virtual clock when the (unacknowledged) request left.
  Status Lock(ClientId holder, Oid oid, VTime sent_at) override;
  Status Unlock(ClientId holder, Oid oid, VTime sent_at) override;

  /// Registers display locks on many objects with ONE request message —
  /// the natural optimization when a view materializes (a display opening
  /// over N objects would otherwise send N messages).
  Status LockBatch(ClientId holder, const std::vector<Oid>& oids,
                   VTime sent_at) override;
  Status UnlockBatch(ClientId holder, const std::vector<Oid>& oids,
                     VTime sent_at) override;

  /// Idempotent bulk re-registration: a client reconnecting to a restarted
  /// server replays the display locks it already holds, rebuilding the
  /// OID -> {clients} table the crash wiped out. Recovery traffic, not
  /// workload — no virtual-clock cost is observed and re-registering an
  /// already-held lock is a no-op.
  Status Reregister(ClientId holder, const std::vector<Oid>& oids);

  /// Releases everything a client holds (disconnect).
  void ReleaseClient(ClientId holder);

  const DlmOptions& options() const { return opts_; }
  VirtualClock& clock() { return clock_; }

  /// One row of the display-lock table, for introspection (STATS RPC,
  /// idba_stat).
  struct LockEntry {
    Oid oid;
    std::vector<ClientId> holders;
  };
  /// Point-in-time copy of the lock table, sorted by oid.
  std::vector<LockEntry> TableSnapshot() const;

  /// D-lock count per client (each is a pinned view subscription), sorted
  /// by client id. For the CACHES RPC's display-level section.
  std::map<ClientId, size_t> HolderCounts() const;

  size_t locked_object_count() const;
  size_t holder_count(Oid oid) const;
  uint64_t lock_requests() const { return lock_requests_.Get(); }
  uint64_t unlock_requests() const { return unlock_requests_.Get(); }
  uint64_t reregister_requests() const { return reregister_requests_.Get(); }
  uint64_t update_notifications() const { return update_notifies_.Get(); }
  uint64_t intent_notifications() const { return intent_notifies_.Get(); }
  uint64_t update_reports() const { return update_reports_.Get(); }

 private:
  void OnCommit(ClientId writer, const CommitResult& result);
  void OnIntent(ClientId writer, TxnId txn, Oid oid);
  void OnAbort(ClientId writer, TxnId txn);
  /// Virtual time at which an event that happened at server time `t`
  /// reaches the DLM (two agent hops in agent mode: server reply to the
  /// writer, writer's report to the DLM).
  VTime EventArrival(VTime server_time, int64_t report_bytes);

  DatabaseServer* server_;
  NotificationBus* bus_;
  DlmOptions opts_;
  VirtualClock clock_;

  mutable std::mutex mu_;
  std::unordered_map<Oid, std::unordered_set<ClientId>> holders_;
  std::unordered_map<ClientId, std::unordered_set<Oid>> by_client_;
  // Early-notify bookkeeping: intents announced per transaction, so a later
  // abort can be resolved to the same audience.
  std::unordered_map<TxnId, std::vector<Oid>> pending_intents_;

  Counter lock_requests_, unlock_requests_, reregister_requests_,
      update_notifies_, intent_notifies_, update_reports_;
  /// Virtual-time lag from a committing writer to each subscriber's
  /// notification arrival (display.staleness_vtime in GlobalMetrics);
  /// cached at construction — registry lookups stay off the commit path.
  Histogram* staleness_ = nullptr;
};

}  // namespace idba
