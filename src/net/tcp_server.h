// TCP transport host: serves a DatabaseServer + DisplayLockManager behind a
// listening socket, speaking the framed protocol of net/wire.h.
//
// Threading model (event-driven; DESIGN.md §11):
//
//   acceptor ──► assigns each connection to one of N I/O event loops
//   I/O loops    epoll reactors (net/event_loop.h) owning every socket:
//                nonblocking reads decode frames incrementally (net/conn.h),
//                CALLBACK_ACK / RESYNC_ACK frames are routed inline, REQUEST
//                frames pass admission control and queue for the worker
//                pool, and all outbound traffic (responses, callbacks,
//                NOTIFY fan-out) drains through per-connection bounded
//                write queues flushed with vectored writev.
//   worker pool  M threads execute queued requests against the
//                DatabaseServer/DLM. A per-connection strand (one scheduled
//                slot, one request per dispatch) preserves the per-client
//                ordering the old thread-per-connection model had, while
//                thousands of connections share a handful of threads.
//
// The loop/worker split matters for correctness exactly like the old
// reader/worker split did: a commit executing on a worker blocks until
// every cached-copy holder acks its invalidation CALLBACK. Those acks
// arrive on *other* connections and are routed by their I/O loops, which
// never execute blocking server work — so concurrent committers cannot
// deadlock the transport even with every worker busy.
//
// NOTIFY fan-out serializes each notification body exactly once: the DLM
// shares one message instance across subscribers with identical content,
// Message::SharedWireBody memoizes the encoded body in a refcounted
// SharedBuf, and each connection's frame is a small per-connection head
// (trace context + envelope metadata) stitched to the shared body by
// writev. transport.fanout.{encodes,reuses} count the effect.
//
// Slow subscribers (DESIGN.md §9): each connection's NOTIFY stream is a
// bounded inbox (256 notifications) that first coalesces, then sheds its
// whole backlog for one forced RESYNC. Memory stays bounded, so a slow
// connection is never dropped for being slow.
//
// Virtual cost: each metered request charges the shared RpcMeter with the
// *measured* frame byte counts (header + payload, both directions) against
// the server's virtual CPU clock, and the response carries the virtual
// completion time back to the client — the experiments' 1996-era message
// economics keep working over the real wire, now fed by real sizes.

#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/dlm.h"
#include "net/conn.h"
#include "server/checkpointer.h"
#include "net/event_loop.h"
#include "net/rpc_meter.h"
#include "net/socket.h"
#include "net/wire.h"
#include "server/database_server.h"

namespace idba {

struct TransportServerOptions {
  /// TCP port; 0 binds an ephemeral port (see port() after Start).
  uint16_t port = 0;
  /// Numeric IPv4 address to bind; default loopback. "0.0.0.0" serves
  /// non-local clients (front with your own ingress/auth).
  std::string bind_host = "127.0.0.1";
  /// How long a commit waits for a client to ack a cache-invalidation
  /// callback before treating the client as dead and proceeding.
  int64_t callback_ack_timeout_ms = 5000;
  /// Drop a connection that sends no frame (not even a heartbeat PING)
  /// for this long — detects half-open clients. 0 = never. Only enable
  /// when clients run heartbeats faster than this, or idle-but-healthy
  /// clients get cut.
  int64_t idle_timeout_ms = 0;
  /// A request whose queue-wait + execution exceeds this logs one WARN line
  /// (method, duration, client, trace id; at most one line per 5 s, with a
  /// suppressed-count carried on the next one) and lands in the slow-RPC
  /// ring reported by STATS/idba_stat. 0 disables.
  int64_t slow_rpc_threshold_ms = 250;

  // --- Threading (DESIGN.md §11) ----------------------------------------
  /// I/O event loops (epoll reactors). Each owns a share of the accepted
  /// sockets. 0 = auto: half the cores, clamped to [1, 8].
  int io_threads = 0;
  /// Worker threads executing requests. 0 = auto: one per core, at least 4
  /// (workers block on callback acks, so a few spares keep commits moving
  /// on small machines).
  int worker_threads = 0;

  // --- Overload protection (DESIGN.md §9) -------------------------------
  /// Per-connection bound on requests queued for the worker pool; further
  /// REQUESTs are rejected with Status::Overloaded (+ retry-after hint)
  /// instead of queueing without limit. 0 = unbounded (the old behaviour).
  size_t max_request_queue = 256;
  /// Server-wide cap on requests admitted but not yet executed, across all
  /// connections. At the cap, only *work-starting* methods (Hello, Begin,
  /// out-of-txn reads, lock acquisition, DDL) are shed — Commit/Abort and
  /// in-transaction operations always run, so an admitted transaction can
  /// finish and release its locks even on a saturated server. 0 = unlimited.
  size_t max_inflight = 1024;
  /// Retry-after hint carried in Overloaded responses.
  int64_t overload_retry_after_ms = 50;
};

/// Hosts one deployment (server + DLM + bus + meter) behind a socket.
class TransportServer {
 public:
  TransportServer(DatabaseServer* server, DisplayLockManager* dlm,
                  NotificationBus* bus, RpcMeter* meter,
                  TransportServerOptions opts = {});
  ~TransportServer();

  TransportServer(const TransportServer&) = delete;
  TransportServer& operator=(const TransportServer&) = delete;

  /// Attaches the deployment's background checkpointer so STATS reports
  /// checkpoint progress (last fence LSN, age, pages swept). Optional;
  /// call before Start().
  void set_checkpointer(Checkpointer* cp) { checkpointer_ = cp; }

  /// The hosted components, read by the admin documents (net/admin.h).
  DatabaseServer* server() const { return server_; }
  DisplayLockManager* dlm() const { return dlm_; }
  Checkpointer* checkpointer() const { return checkpointer_; }

  /// Binds, listens and starts the I/O loops, worker pool, and acceptor.
  Status Start();
  /// Disconnects everything and joins all threads. Idempotent.
  void Stop();

  uint16_t port() const { return listener_.port(); }
  bool running() const { return running_.load(); }
  /// Resolved thread counts (after the 0 = auto defaults applied).
  int io_threads() const { return resolved_io_threads_; }
  int worker_threads() const { return resolved_worker_threads_; }

  // --- Transport-level metrics (real bytes, not virtual) ----------------
  uint64_t bytes_received() const { return bytes_in_.Get(); }
  uint64_t bytes_sent() const { return bytes_out_.Get(); }
  uint64_t requests_served() const { return requests_.Get(); }
  uint64_t notifications_forwarded() const { return notifies_.Get(); }
  uint64_t connections_accepted() const { return accepts_.Get(); }
  /// NOTIFY bodies actually serialized (once per distinct message)...
  uint64_t fanout_encodes() const { return fanout_encodes_.Get(); }
  /// ...vs NOTIFY frames that reused an already-encoded shared body. For a
  /// fan-out of one update to K identical subscribers: 1 encode, K-1
  /// reuses — the single-serialization invariant, asserted by tests.
  uint64_t fanout_reuses() const { return fanout_reuses_.Get(); }

  // --- Overload / degradation telemetry (also in STATS and idba_stat) ---
  /// REQUEST frames rejected with Status::Overloaded (admission control).
  uint64_t overload_rejections() const { return overload_rejections_.Get(); }
  /// ONEWAY frames dropped under admission control (no response to carry
  /// a status, so they are simply counted).
  uint64_t oneway_shed() const { return oneway_shed_.Get(); }
  /// Requests admitted but not yet finished executing, server-wide.
  size_t inflight() const { return inflight_.load(); }
  /// Notifications merged into an already-queued one (latest-version-wins).
  uint64_t notifications_coalesced() const { return notify_coalesced_.Get(); }
  /// Notifications dropped for slow subscribers (the backlog shed at an
  /// overflow, plus deliveries until the client's resync).
  uint64_t notifications_shed() const { return notify_shed_.Get(); }
  /// Notify-queue overflows (each one forces a resync).
  uint64_t notify_overflows() const { return notify_overflows_.Get(); }
  /// RESYNC notifications sent to clients whose backlog was shed.
  uint64_t forced_resyncs() const { return forced_resyncs_.Get(); }
  /// Invalidation CALLBACKs skipped because the client was already marked
  /// stale (a pending resync clears its whole cache anyway).
  uint64_t callbacks_elided() const { return callbacks_elided_.Get(); }
  /// Callback-ack waits that expired; each marks the client stale.
  uint64_t callback_ack_timeouts() const { return callback_timeouts_.Get(); }
  /// Callbacks not queued because the client's callback lane was full.
  uint64_t callback_overflows() const { return callback_overflows_.Get(); }

  // --- Introspection (STATS admin verb, idba_stat, --metrics-interval) ---
  /// One session (a connection past Hello) as STATS reports it.
  struct SessionStats {
    ClientId client = 0;
    size_t notify_pending = 0;
    uint64_t notify_coalesced = 0;
    uint64_t notify_shed = 0;
    uint64_t notify_overflows = 0;
    uint64_t forced_resyncs = 0;
    size_t callbacks_pending = 0;  ///< invalidations awaiting the client's ack
    bool stale = false;            ///< owes or awaits a forced resync
  };
  std::vector<SessionStats> Sessions() const;

  /// One slow request, retained in a bounded ring (most recent last).
  struct SlowRpc {
    std::string method;
    ClientId client = 0;
    int64_t duration_us = 0;  ///< queue wait + execution
    uint64_t trace_id = 0;    ///< 0 when the request was untraced
  };
  std::vector<SlowRpc> SlowRpcLog() const;

 private:
  struct Connection;
  static constexpr size_t kSlowRpcRing = 64;

  void AcceptLoop();
  /// Worker-pool thread: pops one connection strand, executes exactly one
  /// of its queued requests, reschedules the strand if more are queued.
  /// `index` names the thread for the health registry ("worker-<index>").
  void WorkerMain(int index);
  /// Enqueues the connection's strand for the worker pool (deduplicated:
  /// at most one queue entry / executing worker per connection at a time,
  /// which preserves per-client request ordering).
  void ScheduleWork(Connection* conn);
  /// Frame dispatch on the connection's I/O loop thread.
  void OnConnFrame(Connection* conn, const wire::FrameHeader& header,
                   std::vector<uint8_t> payload);
  /// Drains the connection's outbound lanes on its loop thread: pending
  /// invalidation callbacks, an owed forced RESYNC, then the notify inbox —
  /// the last gated on write-queue backpressure.
  void FlushNotifies(Connection* conn);
  /// Unregisters the connection from server/DLM/bus and unblocks waiters.
  /// Safe to call from any thread, more than once.
  void Teardown(Connection* conn);
  void ReapFinished();
  /// Periodic idle scan (loop-0 tick): kills connections whose last read
  /// is older than idle_timeout_ms.
  void ScanIdle();
  /// Rate-limited WARN for accept failures (same limiter policy as slow
  /// RPCs: at most one line per 5 s, suppressed count carried over).
  void NoteAcceptError(const Status& st);

  void HandleFrame(Connection* conn, const wire::FrameHeader& header,
                   const std::vector<uint8_t>& payload, int64_t enqueued_us);
  /// Builds the bounded notify-inbox options for one connection (bound,
  /// stale-marking overflow hook, flush wakeup, metric mirrors).
  InboxOptions NotifyInboxOptions(Connection* conn);
  /// Admission control: true when `header`'s request must be shed instead
  /// of queued (queue bound or in-flight cap hit, and the method is not
  /// ADMIN).
  bool ShouldShed(Connection* conn, const wire::FrameHeader& header,
                  const std::vector<uint8_t>& payload, VTime* client_now);
  /// Queues the Overloaded RESPONSE (status + retry-after hint) directly
  /// from the I/O loop, bypassing the saturated worker pool.
  void WriteOverloadedResponse(Connection* conn,
                               const wire::FrameHeader& header,
                               VTime client_now);
  Status ExecuteMethod(Connection* conn, wire::Method method, Decoder* dec,
                       VTime client_now, int64_t request_bytes,
                       ServerCallInfo* info, Encoder* body, bool* metered);
  void NoteSlowRpc(const char* method, ClientId client, int64_t duration_us,
                   uint64_t trace_id);

  DatabaseServer* server_;
  DisplayLockManager* dlm_;
  Checkpointer* checkpointer_ = nullptr;
  NotificationBus* bus_;
  RpcMeter* meter_;
  TransportServerOptions opts_;
  int resolved_io_threads_ = 0;
  int resolved_worker_threads_ = 0;

  Listener listener_;
  std::thread acceptor_;
  std::atomic<bool> running_{false};

  /// I/O reactors; connections are assigned round-robin at accept.
  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::atomic<size_t> next_loop_{0};

  /// Worker pool and its run queue of connection strands.
  std::vector<std::thread> workers_;
  std::mutex runq_mu_;
  std::condition_variable runq_cv_;
  std::deque<std::shared_ptr<Connection>> runq_;
  bool workers_stop_ = false;  ///< guarded by runq_mu_

  mutable std::mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_;
  std::unordered_set<ClientId> active_clients_;
  /// Serializes DDL (DefineClass/AddAttribute) across connections; the
  /// catalog itself is setup-phase and not internally synchronized.
  std::mutex ddl_mu_;

  MirroredCounter bytes_in_, bytes_out_, requests_, notifies_, accepts_;
  MirroredCounter fanout_encodes_, fanout_reuses_;
  MirroredCounter overload_rejections_, oneway_shed_;
  MirroredCounter notify_coalesced_, notify_shed_, notify_overflows_;
  MirroredCounter forced_resyncs_;
  MirroredCounter callbacks_elided_, callback_timeouts_, callback_overflows_;
  std::atomic<size_t> inflight_{0};
  /// Enqueue-to-run latency of worker dispatches (worker.dispatch_lag_us).
  Histogram* dispatch_lag_ = nullptr;

  /// One rate-limited WARN stream: at most one line per 5 s, and the next
  /// emitted line carries the count withheld in between.
  struct WarnLimiter {
    int64_t last_us = 0;
    uint64_t withheld = 0;
    /// True when a line may be logged now; `*suppressed` receives the
    /// count withheld since the previous one.
    bool Allow(uint64_t* suppressed);
  };

  mutable std::mutex slow_mu_;
  std::deque<SlowRpc> slow_rpcs_;  ///< bounded to kSlowRpcRing
  WarnLimiter slow_warns_, accept_warns_;  ///< guarded by slow_mu_

  // Declared last: unregisters before the state its callback reads.
  ScopedGauge inflight_gauge_;
  /// Per-loop connection-count gauges (net.loop.<i>.conns), registered in
  /// Start and released in Stop before the loops are destroyed.
  std::vector<ScopedGauge> loop_conn_gauges_;
};

}  // namespace idba
