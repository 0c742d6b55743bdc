#include "core/dlm.h"

#include <algorithm>

#include "obs/audit.h"
#include "obs/trace.h"

namespace idba {

DisplayLockManager::DisplayLockManager(DatabaseServer* server,
                                       NotificationBus* bus, DlmOptions opts)
    : server_(server), bus_(bus), opts_(opts),
      staleness_(GlobalMetrics().GetHistogram("display.staleness_vtime")) {
  server_->AddCommitObserver([this](ClientId writer, const CommitResult& result) {
    OnCommit(writer, result);
  });
  if (opts_.protocol == NotifyProtocol::kEarlyNotify) {
    server_->AddIntentObserver([this](ClientId writer, TxnId txn, Oid oid) {
      OnIntent(writer, txn, oid);
    });
    server_->AddAbortObserver([this](ClientId writer, TxnId txn) {
      OnAbort(writer, txn);
    });
  }
}

Status DisplayLockManager::Lock(ClientId holder, Oid oid, VTime sent_at) {
  // One unacknowledged message: the DLM observes its arrival.
  clock_.Observe(sent_at + bus_->cost_model().MessageCost(40));
  lock_requests_.Add();
  std::lock_guard<std::mutex> lock(mu_);
  holders_[oid].insert(holder);
  by_client_[holder].insert(oid);
  return Status::OK();
}

Status DisplayLockManager::Unlock(ClientId holder, Oid oid, VTime sent_at) {
  clock_.Observe(sent_at + bus_->cost_model().MessageCost(40));
  unlock_requests_.Add();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = holders_.find(oid);
  if (it != holders_.end()) {
    it->second.erase(holder);
    if (it->second.empty()) holders_.erase(it);
  }
  auto cit = by_client_.find(holder);
  if (cit != by_client_.end()) cit->second.erase(oid);
  return Status::OK();
}

Status DisplayLockManager::LockBatch(ClientId holder,
                                     const std::vector<Oid>& oids,
                                     VTime sent_at) {
  clock_.Observe(sent_at +
                 bus_->cost_model().MessageCost(16 + 8 * static_cast<int64_t>(
                                                         oids.size())));
  lock_requests_.Add();  // one message, many oids
  std::lock_guard<std::mutex> lock(mu_);
  for (Oid oid : oids) {
    holders_[oid].insert(holder);
    by_client_[holder].insert(oid);
  }
  return Status::OK();
}

Status DisplayLockManager::UnlockBatch(ClientId holder,
                                       const std::vector<Oid>& oids,
                                       VTime sent_at) {
  clock_.Observe(sent_at +
                 bus_->cost_model().MessageCost(16 + 8 * static_cast<int64_t>(
                                                         oids.size())));
  unlock_requests_.Add();
  std::lock_guard<std::mutex> lock(mu_);
  for (Oid oid : oids) {
    auto it = holders_.find(oid);
    if (it != holders_.end()) {
      it->second.erase(holder);
      if (it->second.empty()) holders_.erase(it);
    }
    auto cit = by_client_.find(holder);
    if (cit != by_client_.end()) cit->second.erase(oid);
  }
  return Status::OK();
}

Status DisplayLockManager::Reregister(ClientId holder,
                                      const std::vector<Oid>& oids) {
  reregister_requests_.Add();
  std::lock_guard<std::mutex> lock(mu_);
  for (Oid oid : oids) {
    holders_[oid].insert(holder);
    by_client_[holder].insert(oid);
  }
  return Status::OK();
}

void DisplayLockManager::ReleaseClient(ClientId holder) {
  std::lock_guard<std::mutex> lock(mu_);
  auto cit = by_client_.find(holder);
  if (cit == by_client_.end()) return;
  for (const Oid& oid : cit->second) {
    auto it = holders_.find(oid);
    if (it != holders_.end()) {
      it->second.erase(holder);
      if (it->second.empty()) holders_.erase(it);
    }
  }
  by_client_.erase(cit);
}

VTime DisplayLockManager::EventArrival(VTime server_time, int64_t report_bytes) {
  if (opts_.integrated) {
    // Commit/intent hooks run inside the server; only agent CPU applies.
    return server_time;
  }
  // Agent deployment (§4.1): the server's reply reaches the writer, which
  // then reports the event to the DLM — two extra hops on the causal path.
  const CostModel& cm = bus_->cost_model();
  update_reports_.Add();
  return server_time + cm.MessageCost(64) + cm.MessageCost(report_bytes);
}

namespace {

/// Collapses per-client notification messages with identical content onto
/// one shared instance. In the common fan-out case — many subscribers
/// displaying the same hot objects — every holder's message lists the same
/// updated/erased sets, so after this pass the whole fan-out shares ONE
/// immutable message: the transport serializes it once
/// (Message::SharedWireBody) and the same bytes reach every subscriber.
/// Content is keyed on the oid sequences; txn/vtime/committed and the
/// eager-shipped images are functions of the same commit, so equal oid
/// sequences imply equal messages. The `add` loop visits objects in commit
/// order for every client, making the sequences canonical.
void ShareIdenticalMessages(
    std::unordered_map<ClientId, std::shared_ptr<UpdateNotifyMessage>>*
        per_client) {
  if (per_client->size() < 2) return;
  std::unordered_map<std::string, std::shared_ptr<UpdateNotifyMessage>>
      by_content;
  for (auto& [client, msg] : *per_client) {
    std::string key;
    key.reserve(8 * (msg->updated.size() + msg->erased.size()) + 1);
    auto append = [&key](uint64_t v) {
      key.append(reinterpret_cast<const char*>(&v), sizeof(v));
    };
    for (Oid oid : msg->updated) append(oid.value);
    key.push_back('|');
    for (Oid oid : msg->erased) append(oid.value);
    auto [it, inserted] = by_content.emplace(std::move(key), msg);
    if (!inserted) msg = it->second;
  }
}

}  // namespace

void DisplayLockManager::OnCommit(ClientId writer, const CommitResult& result) {
  const VTime commit_time = server_->cpu_clock().Now();
  // Which display-lock holders are affected, and by which objects?
  std::unordered_map<ClientId, std::shared_ptr<UpdateNotifyMessage>> per_client;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto add = [&](Oid oid, bool erased, const DatabaseObject* image) {
      auto hit = holders_.find(oid);
      if (hit == holders_.end()) return;
      for (ClientId c : hit->second) {
        auto& msg = per_client[c];
        if (!msg) {
          msg = std::make_shared<UpdateNotifyMessage>();
          msg->txn = result.txn;
          msg->commit_vtime = commit_time;
          msg->committed = true;
        }
        if (erased) {
          msg->erased.push_back(oid);
        } else {
          msg->updated.push_back(oid);
          if (opts_.eager_shipping && image != nullptr) {
            msg->images.push_back(*image);
          }
        }
      }
    };
    for (const DatabaseObject& obj : result.updated) add(obj.oid(), false, &obj);
    for (Oid oid : result.erased) add(oid, true, nullptr);
    pending_intents_.erase(result.txn);
  }
  if (per_client.empty()) return;
  ShareIdenticalMessages(&per_client);

  int64_t report_bytes = 32 + 8 * static_cast<int64_t>(result.updated.size() +
                                                       result.erased.size());
  VTime arrival = EventArrival(commit_time, report_bytes);
  clock_.Observe(arrival);
  // Runs on the committing writer's worker thread, so this span joins the
  // writer's trace (and the bus stamps each envelope with it).
  obs::Span fanout = obs::Span::Start("dlm.notify_fanout");
  fanout.Note("subscribers=" + std::to_string(per_client.size()));
  for (auto& [client, msg] : per_client) {
    // The paper's key DLC property: ONE notification per client per commit,
    // regardless of how many of that client's displays are affected.
    clock_.Advance(bus_->cost_model().NotificationDispatchCpu());
    (void)writer;  // writers holding display locks are notified too; their
                   // DLC dedups against the local commit if desired
    obs::ConsistencyAuditor& auditor = obs::GlobalAuditor();
    if (auditor.enabled()) {
      // Sender-side monotonicity: per (subscriber, OID) the fan-out must
      // emit non-decreasing commit vtimes (commit hooks run under the
      // writer's X-locks, so same-OID sends are serialized by commit
      // order — a regression here means the fan-out itself reordered).
      std::vector<uint64_t> oids;
      oids.reserve(msg->updated.size() + msg->erased.size());
      for (Oid oid : msg->updated) oids.push_back(oid.value);
      for (Oid oid : msg->erased) oids.push_back(oid.value);
      auditor.OnNotifySent(client, oids.data(), oids.size(),
                           msg->commit_vtime, obs::CurrentContext().trace_id);
    }
    (void)bus_->Send(kDlmEndpoint, static_cast<EndpointId>(client), msg,
                     clock_.Now());
    update_notifies_.Add();
    // Staleness: virtual lag from the commit to this subscriber's display
    // cache learning about it (notification arrival at the subscriber).
    VTime notify_arrival =
        clock_.Now() +
        bus_->cost_model().MessageCost(static_cast<int64_t>(msg->WireBytes()));
    staleness_->Record(static_cast<double>(notify_arrival - commit_time));
  }
}

void DisplayLockManager::OnIntent(ClientId writer, TxnId txn, Oid oid) {
  const VTime intent_time = server_->cpu_clock().Now();
  std::vector<ClientId> targets;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto hit = holders_.find(oid);
    if (hit == holders_.end()) return;
    for (ClientId c : hit->second) {
      if (c != writer) targets.push_back(c);  // the writer knows
    }
    if (!targets.empty()) pending_intents_[txn].push_back(oid);
  }
  if (targets.empty()) return;
  VTime arrival = EventArrival(intent_time, 40);
  clock_.Observe(arrival);
  // Every target receives identical content; share one immutable message so
  // the transport serializes the intent notice once for the whole fan-out.
  auto msg = std::make_shared<IntentNotifyMessage>();
  msg->txn = txn;
  msg->intent_vtime = intent_time;
  msg->oids = {oid};
  for (ClientId c : targets) {
    clock_.Advance(bus_->cost_model().NotificationDispatchCpu());
    (void)bus_->Send(kDlmEndpoint, static_cast<EndpointId>(c), msg, clock_.Now());
    intent_notifies_.Add();
  }
}

void DisplayLockManager::OnAbort(ClientId writer, TxnId txn) {
  (void)writer;
  std::vector<Oid> oids;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = pending_intents_.find(txn);
    if (it == pending_intents_.end()) return;
    oids = std::move(it->second);
    pending_intents_.erase(it);
  }
  // Resolve the intents as aborted: holders unmark their display objects.
  const VTime abort_time = server_->cpu_clock().Now();
  std::unordered_map<ClientId, std::shared_ptr<UpdateNotifyMessage>> per_client;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (Oid oid : oids) {
      auto hit = holders_.find(oid);
      if (hit == holders_.end()) continue;
      for (ClientId c : hit->second) {
        auto& msg = per_client[c];
        if (!msg) {
          msg = std::make_shared<UpdateNotifyMessage>();
          msg->txn = txn;
          msg->commit_vtime = abort_time;
          msg->committed = false;
        }
        msg->updated.push_back(oid);
      }
    }
  }
  ShareIdenticalMessages(&per_client);
  VTime arrival = EventArrival(abort_time, 40);
  clock_.Observe(arrival);
  for (auto& [client, msg] : per_client) {
    clock_.Advance(bus_->cost_model().NotificationDispatchCpu());
    (void)bus_->Send(kDlmEndpoint, static_cast<EndpointId>(client), msg,
                     clock_.Now());
    update_notifies_.Add();
  }
}

std::vector<DisplayLockManager::LockEntry> DisplayLockManager::TableSnapshot()
    const {
  std::vector<LockEntry> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(holders_.size());
    for (const auto& [oid, clients] : holders_) {
      LockEntry e;
      e.oid = oid;
      e.holders.assign(clients.begin(), clients.end());
      std::sort(e.holders.begin(), e.holders.end());
      out.push_back(std::move(e));
    }
  }
  std::sort(out.begin(), out.end(), [](const LockEntry& a, const LockEntry& b) {
    return a.oid.value < b.oid.value;
  });
  return out;
}

std::map<ClientId, size_t> DisplayLockManager::HolderCounts() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<ClientId, size_t> out;
  for (const auto& [client, oids] : by_client_) out[client] = oids.size();
  return out;
}

size_t DisplayLockManager::locked_object_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return holders_.size();
}

size_t DisplayLockManager::holder_count(Oid oid) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = holders_.find(oid);
  return it == holders_.end() ? 0 : it->second.size();
}

}  // namespace idba
