// Out-of-process client: the full ClientApi surface over the TCP wire
// protocol, plus the DisplayLockService surface forwarded to the
// server-hosted DLM. Application code (InteractiveSession, DLC, NMS
// workload, examples) written against ClientApi runs unchanged over this
// or the in-process DatabaseClient.
//
// Threading: the application drives RPCs from its user thread(s); a
// dedicated reader thread owns the receiving half of the socket and
// demultiplexes
//   RESPONSE  -> wakes the Call() waiting on that correlation id
//   NOTIFY    -> decoded into an Envelope, delivered to inbox() (the DLC
//                notification pump consumes it exactly like in-process)
//   CALLBACK  -> invalidates the local ObjectCache, sends CALLBACK_ACK
// The reader never blocks on an RPC of its own, so a server commit that
// is waiting for this client's invalidation ack always gets it — even
// while this client's user thread is itself blocked inside Commit().
//
// Failure handling: every RPC is bounded by rpc_deadline_ms (late
// responses are dropped); connects are bounded by a fixed 5 s; an
// optional heartbeat thread PINGs the server every heartbeat_interval_ms
// and declares the connection dead when pings stop answering (half-open
// detection). When the connection dies, pending non-commit calls fail
// with IOError, but a commit in flight fails with Status::Unknown — its
// outcome is genuinely indeterminate (the server may have applied it
// before the connection broke), and callers like RunTransaction must
// decide whether re-applying is safe. Reconnect() re-dials with jittered
// exponential backoff, re-handshakes under the same client id, replaces
// the schema snapshot, and drops the object cache (the dead session's
// copy registrations are gone).
//
// Virtual time: each request carries the client clock; each response
// carries the virtual completion time the server's RpcMeter computed from
// the *measured* frame sizes, which the client clock Observes. Client-local
// virtual charges use the default CostModel, the only one idba_serve runs,
// so the client and server timelines agree. The cache protocol (§3.3) is
// CachingClient's; this class sends its server calls as wire frames.

#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "client/client_api.h"
#include "net/fault_injector.h"
#include "net/socket.h"
#include "net/wire.h"

namespace idba {

struct RemoteClientOptions {
  ObjectCacheOptions cache;
  ConsistencyMode consistency = ConsistencyMode::kAvoidance;
  /// Send NoteEvicted one-way frames when the cache drops entries.
  bool report_evictions = true;
  /// Upper bound on one RPC round trip (request out to response in). On
  /// expiry the call returns Status::TimedOut and the (late) response is
  /// dropped when it eventually arrives. 0 = wait forever.
  int64_t rpc_deadline_ms = 30000;
  /// When > 0, a heartbeat thread issues a PING every interval; a ping
  /// that misses the RPC deadline (or the interval, whichever is smaller)
  /// marks the connection dead, unblocking every pending call. 0 = off.
  int64_t heartbeat_interval_ms = 0;
};

class RemoteDatabaseClient : public CachingClient, public DisplayLockService {
 public:
  /// Connects, performs the Hello handshake (registering `id` with the
  /// server) and snapshots the schema catalog.
  static Result<std::unique_ptr<RemoteDatabaseClient>> Connect(
      const std::string& host, uint16_t port, ClientId id,
      RemoteClientOptions opts = {});

  ~RemoteDatabaseClient() override;

  RemoteDatabaseClient(const RemoteDatabaseClient&) = delete;
  RemoteDatabaseClient& operator=(const RemoteDatabaseClient&) = delete;

  /// Re-establishes a dead connection: re-dials (with exponential backoff
  /// across `max_attempts`: 50 ms doubling to a 2 s cap, each sleep
  /// jittered uniformly into [backoff/2, backoff], deterministically per
  /// client id, so a fleet dropped by one server restart does not re-dial
  /// in lockstep), re-handshakes under the same client id, replaces the
  /// schema snapshot with the server's current catalog, and drops the
  /// local object cache — the old session's copy registrations died with
  /// the old connection, so cached copies are no longer protected by
  /// callbacks.
  ///
  /// Caller contract: quiesce RPC-issuing threads first (calls issued
  /// while disconnected fail fast with IOError, but calls concurrent with
  /// the reconnect itself are undefined), and treat any commit that ended
  /// Status::Unknown as possibly-applied — re-run read-modify-write
  /// bodies, never blind re-sends.
  ///
  /// Session recovery: if this client holds display locks, they are
  /// replayed to the server's DLM (one idempotent DlmReregister) right
  /// after the handshake — a *restarted* server has an empty lock table
  /// and would otherwise silently stop notifying our views. A synthetic
  /// RESYNC is then delivered to inbox() so the DLC refetches every
  /// display: updates committed while we were disconnected produced no
  /// notifications for us.
  Status Reconnect(int max_attempts = 5);

  // --- ClientApi --------------------------------------------------------
  ClientId id() const override { return id_; }
  const SchemaCatalog& schema() const override { return schema_; }
  const CostModel& cost_model() const override { return cost_model_; }

  Result<ClassId> DefineClass(const std::string& name,
                              ClassId base = 0) override;
  Status AddAttribute(ClassId cls, const std::string& name, ValueType type,
                      Value default_value = Value()) override;

  Result<TxnId> BeginTxn() override;
  Status Write(TxnId txn, DatabaseObject obj) override;
  Status Insert(TxnId txn, DatabaseObject obj) override;
  Status EraseObject(TxnId txn, Oid oid) override;
  Result<Oid> NewOid() override;
  Result<uint64_t> LatestVersion(Oid oid) override;
  /// Retry-after hint from the most recent Overloaded rejection (0 when
  /// the server never shed one of our requests). Retry loops use it as a
  /// backoff floor.
  int64_t retry_after_hint_ms() const override {
    return retry_after_hint_ms_.load(std::memory_order_relaxed);
  }

  // --- DisplayLockService (forwarded to the server-hosted DLM) ----------
  Status Lock(ClientId holder, Oid oid, VTime sent_at) override;
  Status Unlock(ClientId holder, Oid oid, VTime sent_at) override;
  Status LockBatch(ClientId holder, const std::vector<Oid>& oids,
                   VTime sent_at) override;
  Status UnlockBatch(ClientId holder, const std::vector<Oid>& oids,
                     VTime sent_at) override;

  // --- Transport-level metrics ------------------------------------------
  bool connected() const { return connected_.load(); }
  uint64_t bytes_sent() const { return bytes_out_.Get(); }
  uint64_t bytes_received() const { return bytes_in_.Get(); }
  uint64_t notifications_received() const { return notify_frames_.Get(); }
  uint64_t callbacks_served() const { return callback_frames_.Get(); }
  uint64_t reconnects() const { return reconnects_.Get(); }
  uint64_t heartbeats_sent() const { return heartbeats_.Get(); }
  /// Calls the server rejected with Status::Overloaded (admission control).
  uint64_t overload_rejections() const { return overload_rejections_.Get(); }
  /// Server-forced RESYNC notifications received (our notify stream was
  /// shed; the local cache was dropped and displays told to refetch).
  uint64_t resyncs_received() const { return resyncs_received_.Get(); }
  /// Display locks this client currently believes it holds (the set
  /// Reconnect() replays to a restarted server).
  size_t held_display_locks() const;

  /// Attaches a fault injector to the transport socket (tests and the
  /// fault-tolerance experiment). Survives Reconnect().
  void set_fault_injector(std::shared_ptr<FaultInjector> faults);

 private:
  RemoteDatabaseClient(ClientId id, RemoteClientOptions opts);

  struct PendingCall {
    wire::Method method = wire::Method::kPing;
    std::vector<uint8_t> payload;
    Status transport = Status::OK();
    bool done = false;
    /// Response frame carried the traced bit (payload opens with the
    /// server's TraceInfo echo).
    bool traced = false;
  };

  /// One correlated round trip: REQUEST out, RESPONSE in, remote status
  /// decoded, completion vtime observed. On success `*reply` holds the
  /// response payload and `*body_at` the offset of the method body.
  /// Returns Status::TimedOut after rpc_deadline_ms without a response.
  Status Call(wire::Method method, const std::vector<uint8_t>& body,
              std::vector<uint8_t>* reply, size_t* body_at,
              bool count_rpc = true);
  /// One counted Call whose reply body `decode` turns into a T.
  template <typename T>
  Result<T> CallFor(wire::Method method, const std::vector<uint8_t>& body,
                    Status (*decode)(Decoder*, T*));
  /// Fire-and-forget frame (eviction notices).
  void SendOneWay(wire::Method method, const std::vector<uint8_t>& body);
  Status Hello();
  /// Replays held_display_locks_ to a freshly handshaken server and queues
  /// the synthetic RESYNC. Part of Reconnect().
  Status ReplayDisplayLocks();
  void ReaderLoop();
  void HeartbeatLoop();
  void FailAllPending(const Status& st);
  void InstallEvictionCallback();

  // CachingClient's server calls.
  Status LockForReadCall(TxnId txn, Oid oid) override;
  Result<DatabaseObject> FetchCall(TxnId txn, Oid oid) override;
  Result<DatabaseObject> FetchCurrentCall(Oid oid, bool register_copy) override;
  Result<CommitResult> CommitCall(TxnId txn, const ReadSet* read_set) override;
  Status AbortCall(TxnId txn) override;
  Result<std::vector<DatabaseObject>> ScanCall(
      ClassId cls, bool include_subclasses) override;
  Result<std::vector<DatabaseObject>> QueryCall(
      const ObjectQuery& query) override;

  ClientId id_;
  RemoteClientOptions opts_;
  CostModel cost_model_;
  std::string host_;
  uint16_t port_ = 0;
  Socket sock_;
  std::mutex write_mu_;
  std::thread reader_;
  std::thread heartbeat_;
  std::atomic<bool> connected_{false};
  std::atomic<bool> shutting_down_{false};
  /// Serializes Reconnect() against itself and the destructor.
  std::mutex lifecycle_mu_;
  std::shared_ptr<FaultInjector> faults_;

  std::mutex calls_mu_;
  std::condition_variable calls_cv_;
  uint64_t next_seq_ = 1;
  std::unordered_map<uint64_t, PendingCall*> pending_;

  /// Wakes the heartbeat thread early (shutdown).
  std::mutex hb_mu_;
  std::condition_variable hb_cv_;

  SchemaCatalog schema_;
  MirroredCounter bytes_in_, bytes_out_;
  Counter notify_frames_, callback_frames_;
  Counter reconnects_, heartbeats_;
  Counter overload_rejections_, resyncs_received_;
  std::atomic<int64_t> retry_after_hint_ms_{0};

  /// Display locks successfully granted to this client and not yet
  /// released — the server-side state Reconnect() must rebuild after a
  /// server restart.
  mutable std::mutex held_mu_;
  std::unordered_set<Oid> held_display_locks_;
};

}  // namespace idba
