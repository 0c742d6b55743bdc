#include "net/tcp_server.h"

#include <signal.h>

#include <algorithm>
#include <chrono>

#include "common/logging.h"
#include "core/notification.h"
#include "net/admin.h"
#include "obs/flight.h"
#include "obs/health.h"
#include "obs/rpc_stats.h"
#include "obs/trace.h"

namespace idba {

namespace {

/// WarnLimiter interval: at most one WARN line per stream per 5 s.
constexpr int64_t kWarnLogIntervalUs = 5'000'000;
/// Per-connection bound on queued outbound notifications. When full and
/// the backlog will not coalesce, it is shed and the client owes a resync.
constexpr size_t kMaxNotifyQueue = 256;
/// Bound on invalidation CALLBACKs queued to one client. A client that
/// cannot drain even its callbacks is marked stale (forced resync) and the
/// committing writers proceed without waiting.
constexpr size_t kMaxCallbackQueue = 64;
/// RpcStats slot of admin verb v is kAdminRpcSlotBase + v: past every wire
/// method number, so a verb never shares a slot with a method.
constexpr int kAdminRpcSlotBase = 32;
static_assert(static_cast<int>(wire::Method::kDlmReregister) <
                  kAdminRpcSlotBase,
              "admin verb slots must start past the last method number");

}  // namespace

// Message::SharedWireBody reports the notify kind as a raw byte (core/
// cannot depend on net/); pin the correspondence so the values can never
// drift apart silently.
static_assert(static_cast<uint8_t>(wire::NotifyKind::kUpdate) == 1 &&
                  static_cast<uint8_t>(wire::NotifyKind::kIntent) == 2 &&
                  static_cast<uint8_t>(wire::NotifyKind::kResync) == 3,
              "wire::NotifyKind must match the kinds reported by "
              "notification.cc EncodeWireBody");

// ---------------------------------------------------------------------------
// Connection
// ---------------------------------------------------------------------------

struct TransportServer::Connection
    : public CacheCallbackHandler,
      public Conn::Handler,
      public std::enable_shared_from_this<Connection> {
  explicit Connection(TransportServer* owner_in)
      : owner(owner_in), notify_inbox(owner_in->NotifyInboxOptions(this)) {}

  TransportServer* owner;
  /// I/O loop this connection is pinned to (round-robin at accept).
  EventLoop* loop = nullptr;
  /// Socket state machine (read decode + bounded write queue), owned here;
  /// its Handler callbacks land on `loop`'s thread.
  std::shared_ptr<Conn> conn;

  // Written once by a worker thread in the Hello handler, read by other
  // threads: client_id is published before hello_done (release), and
  // readers load hello_done first (acquire) — no mutex needed for this
  // one-shot handoff.
  std::atomic<ClientId> client_id{0};
  std::atomic<bool> hello_done{false};

  /// Registered on the bus under the client's endpoint id after Hello;
  /// FlushNotifies (on the loop thread) forwards its envelopes as NOTIFY
  /// frames. Bounded: the delivering writer never blocks on this client's
  /// socket, and a backlog beyond the bound is shed for a forced resync.
  Inbox notify_inbox;

  /// The client owes a full resync: its notify backlog overflowed, a
  /// callback ack timed out, or its callback lane overflowed. While set,
  /// invalidation callbacks are elided (the resync clears the whole client
  /// cache anyway); FlushNotifies clears it when it queues the RESYNC frame,
  /// handing off to `resync_awaiting_ack` until the client confirms.
  std::atomic<bool> stale{false};
  /// Seq of a RESYNC frame on the wire whose RESYNC_ACK has not arrived
  /// yet (0 = none). Callbacks stay elided while nonzero — a client that
  /// has not processed the resync is still inconsistent — and no second
  /// RESYNC is sent until the first is acknowledged; staleness events in
  /// the interim re-set `stale`, queueing exactly one follow-up resync.
  std::atomic<uint64_t> resync_awaiting_ack{0};
  /// RESYNC frames sent to this client (per-session stat row).
  std::atomic<uint64_t> forced_resyncs{0};
  /// Inbox shed count already reported in a RESYNC frame (loop thread).
  uint64_t shed_reported = 0;
  /// NOTIFY/CALLBACK-lane frame sequence (loop thread only).
  uint64_t notify_seq = 1;

  std::atomic<bool> closing{false};
  /// Teardown ran and the socket's close path completed; reapable.
  std::atomic<bool> finished{false};
  /// Strand flag: true while this connection is queued for (or executing
  /// on) the worker pool. At most one worker runs a connection at a time,
  /// preserving per-client request order on a shared pool.
  std::atomic<bool> scheduled{false};
  /// Deduplicates posted FlushNotifies tasks.
  std::atomic<bool> notify_flush_pending{false};

  /// One request waiting for the worker pool, stamped with its arrival time
  /// so the worker can attribute queue wait separately from execution.
  struct QueuedRequest {
    wire::FrameHeader header;
    std::vector<uint8_t> payload;
    int64_t enqueued_us = 0;
  };

  // Requests queued by the I/O loop for the worker pool.
  std::mutex q_mu;
  std::deque<QueuedRequest> requests;

  // Outstanding cache-invalidation callbacks awaiting CALLBACK_ACK frames.
  std::mutex cb_mu;
  std::condition_variable cb_cv;
  uint64_t next_callback_seq = 1;
  std::unordered_set<uint64_t> pending_acks;

  /// One invalidation CALLBACK queued for the loop thread to write. The
  /// trace ids are captured on the committing writer's thread (its context
  /// is thread-local) so the frame still joins the writer's trace even
  /// though another thread performs the write.
  struct PendingCallbackFrame {
    uint64_t seq = 0;
    uint64_t oid = 0;
    uint64_t version = 0;
    uint64_t trace_id = 0;
    uint64_t trace_span = 0;
  };
  // Callback lane, drained by FlushNotifies (guarded by cb_mu).
  std::deque<PendingCallbackFrame> callback_queue;

  /// Posts one FlushNotifies onto the loop (deduplicated). Callable from
  /// any thread — the deliver path, blocked writers, ack routing.
  void WakeNotify() {
    if (closing.load(std::memory_order_relaxed)) return;
    if (loop == nullptr) return;
    if (notify_flush_pending.exchange(true, std::memory_order_acq_rel)) {
      return;
    }
    auto self = shared_from_this();
    loop->Post([self] { self->owner->FlushNotifies(self.get()); });
  }

  /// Marks the client stale and wakes its flush so the RESYNC frame goes
  /// out promptly.
  void RequestResync() {
    stale.store(true);
    WakeNotify();
  }

  // Conn::Handler — all on the loop thread.
  void OnFrame(Conn*, const wire::FrameHeader& header,
               std::vector<uint8_t> payload) override {
    owner->OnConnFrame(this, header, std::move(payload));
  }
  void OnWriteDrained(Conn*) override { owner->FlushNotifies(this); }
  void OnClosed(Conn*) override {
    owner->Teardown(this);
    finished.store(true, std::memory_order_release);
  }

  // CacheCallbackHandler: invoked by the CallbackManager from the *writer's*
  // worker thread during its commit. Queues a CALLBACK frame for this
  // client's loop (the writer never touches this client's socket) and
  // blocks until the client's I/O loop routes back the ack — the
  // invalidate-before-commit guarantee. Acks are routed by loops, never
  // workers, so the wait cannot deadlock the pool even with every worker
  // blocked in a commit. Degradations that keep the writer responsive to
  // everyone else:
  //   - client already stale: skip entirely (the owed resync clears its
  //     whole cache, making this invalidation redundant);
  //   - callback lane full: don't queue or wait; schedule a resync;
  //   - ack timeout: proceed (as before), but now also schedule a resync —
  //     an un-acked client is silently inconsistent, and marking it stale
  //     means later commits skip the wait instead of re-paying the timeout.
  void InvalidateCached(Oid oid, uint64_t new_version) override {
    if (closing.load()) return;
    if (stale.load() || resync_awaiting_ack.load() != 0) {
      owner->callbacks_elided_.Add();
      // Marks the elision in the committing writer's trace.
      obs::Span elided = obs::Span::Start("server.callback_elided");
      elided.Note("client " +
                  std::to_string(client_id.load(std::memory_order_relaxed)) +
                  " owes resync");
      return;
    }
    // Capture the writer's trace context here, on its thread.
    obs::TraceContext ctx = obs::CurrentContext();
    uint64_t seq;
    {
      std::lock_guard<std::mutex> lock(cb_mu);
      if (callback_queue.size() >= kMaxCallbackQueue) {
        owner->callback_overflows_.Add();
        seq = 0;
      } else {
        seq = next_callback_seq++;
        pending_acks.insert(seq);
        callback_queue.push_back(
            {seq, oid.value, new_version, ctx.trace_id, ctx.span_id});
      }
    }
    if (seq == 0) {
      // Not even the callback lane drains: the client cannot be kept
      // consistent synchronously. Escalate to a resync, writer proceeds.
      RequestResync();
      return;
    }
    WakeNotify();  // wake the loop to write the frame
    std::unique_lock<std::mutex> lock(cb_mu);
    cb_cv.wait_for(
        lock, std::chrono::milliseconds(owner->opts_.callback_ack_timeout_ms),
        [&] { return pending_acks.count(seq) == 0 || closing.load(); });
    const bool timed_out = pending_acks.count(seq) != 0 && !closing.load();
    pending_acks.erase(seq);
    lock.unlock();
    if (timed_out) {
      owner->callback_timeouts_.Add();
      obs::Span timeout = obs::Span::Start("server.callback_timeout");
      timeout.Note("client " +
                   std::to_string(client_id.load(std::memory_order_relaxed)) +
                   " marked stale");
      RequestResync();
    }
  }
};

// ---------------------------------------------------------------------------
// TransportServer
// ---------------------------------------------------------------------------

TransportServer::TransportServer(DatabaseServer* server,
                                 DisplayLockManager* dlm, NotificationBus* bus,
                                 RpcMeter* meter, TransportServerOptions opts)
    : server_(server), dlm_(dlm), bus_(bus), meter_(meter), opts_(opts) {
  // Mirror every transport/overload counter into the registry so STATS,
  // METRICS and the Prometheus endpoint see canonical aggregate series;
  // the per-instance accessors used by tests stay exact.
  MetricsRegistry& reg = GlobalMetrics();
  bytes_in_.BindGlobal(reg.GetCounter("transport.bytes_in"));
  bytes_out_.BindGlobal(reg.GetCounter("transport.bytes_out"));
  requests_.BindGlobal(reg.GetCounter("transport.requests"));
  notifies_.BindGlobal(reg.GetCounter("transport.notifications"));
  accepts_.BindGlobal(reg.GetCounter("transport.accepts"));
  fanout_encodes_.BindGlobal(reg.GetCounter("transport.fanout.encodes"));
  fanout_reuses_.BindGlobal(reg.GetCounter("transport.fanout.reuses"));
  overload_rejections_.BindGlobal(reg.GetCounter("overload.rejections"));
  oneway_shed_.BindGlobal(reg.GetCounter("overload.oneway_shed"));
  notify_coalesced_.BindGlobal(reg.GetCounter("overload.notify_coalesced"));
  notify_shed_.BindGlobal(reg.GetCounter("overload.notify_shed"));
  notify_overflows_.BindGlobal(reg.GetCounter("overload.notify_overflows"));
  forced_resyncs_.BindGlobal(reg.GetCounter("overload.forced_resyncs"));
  callbacks_elided_.BindGlobal(reg.GetCounter("overload.callbacks_elided"));
  callback_timeouts_.BindGlobal(
      reg.GetCounter("overload.callback_ack_timeouts"));
  callback_overflows_.BindGlobal(
      reg.GetCounter("overload.callback_overflows"));
  inflight_gauge_ = ScopedGauge(&reg, "transport.inflight",
                                [this] { return double(inflight_.load()); });
  dispatch_lag_ = reg.GetHistogram("worker.dispatch_lag_us");
  // Pre-create the full canonical cache taxonomy. The server process has a
  // BufferPool but object/display caches live in clients; a scraper of a
  // pure server must still see every cache.* series (zero until an
  // in-process client binds and bumps them), so dashboards never 404.
  for (const char* name :
       {"cache.page.hits", "cache.page.misses", "cache.page.evictions",
        "cache.object.hits", "cache.object.misses",
        "cache.object.invalidations", "cache.object.evictions",
        "cache.display.hits", "cache.display.misses",
        "cache.display.rejections", "cache.display.evictions"}) {
    (void)reg.GetCounter(name);
  }
}

TransportServer::~TransportServer() { Stop(); }

Status TransportServer::Start() {
  // A peer closing mid-writev must surface as EPIPE on that socket, never
  // as a process-killing SIGPIPE on the loop thread that happened to be
  // writing (Conn's writev cannot pass MSG_NOSIGNAL).
  ::signal(SIGPIPE, SIG_IGN);
  IDBA_RETURN_NOT_OK(listener_.Listen(opts_.port, opts_.bind_host));
  int cores = static_cast<int>(std::thread::hardware_concurrency());
  if (cores <= 0) cores = 1;
  resolved_io_threads_ =
      opts_.io_threads > 0 ? opts_.io_threads
                           : std::min(std::max(cores / 2, 1), 8);
  resolved_worker_threads_ = opts_.worker_threads > 0 ? opts_.worker_threads
                                                      : std::max(cores, 4);
  loops_.clear();
  for (int i = 0; i < resolved_io_threads_; ++i) {
    EventLoop::Options lopts;
    lopts.role = "io-loop-" + std::to_string(i);
    lopts.metric_prefix = "net.loop." + std::to_string(i);
    if (i == 0 && opts_.idle_timeout_ms > 0) {
      // One loop carries the idle scan; Conn::Kill is thread-safe, so a
      // single ticker covers connections on every loop.
      lopts.tick_interval_ms = std::min<int64_t>(
          std::max<int64_t>(opts_.idle_timeout_ms / 2, 50), 1000);
      lopts.on_tick = [this] { ScanIdle(); };
    }
    auto loop = std::make_unique<EventLoop>(lopts);
    Status st = loop->Start();
    if (!st.ok()) {
      for (auto& started : loops_) started->Stop();
      loops_.clear();
      listener_.Close();
      return st;
    }
    loops_.push_back(std::move(loop));
  }
  loop_conn_gauges_.clear();
  for (int i = 0; i < resolved_io_threads_; ++i) {
    EventLoop* loop = loops_[i].get();
    loop_conn_gauges_.emplace_back(
        &GlobalMetrics(), "net.loop." + std::to_string(i) + ".conns",
        [this, loop] {
          std::lock_guard<std::mutex> lock(conns_mu_);
          size_t n = 0;
          for (const auto& conn : conns_) {
            if (conn->loop == loop) ++n;
          }
          return static_cast<double>(n);
        });
  }
  {
    std::lock_guard<std::mutex> lock(runq_mu_);
    workers_stop_ = false;
  }
  for (int i = 0; i < resolved_worker_threads_; ++i) {
    workers_.emplace_back([this, i] { WorkerMain(i); });
  }
  running_.store(true);
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void TransportServer::Stop() {
  running_.store(false);
  loop_conn_gauges_.clear();  // before conns_/loops_ go away
  listener_.Shutdown();
  if (acceptor_.joinable()) acceptor_.join();
  listener_.Close();
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
  }
  for (auto& conn : conns) Teardown(conn.get());
  for (auto& conn : conns) {
    if (conn->conn) conn->conn->Close();
  }
  // Stopping a loop drains its posted tasks, so every pending close path
  // (and its OnClosed -> Teardown) runs before the loop is destroyed.
  for (auto& loop : loops_) loop->Stop();
  {
    std::lock_guard<std::mutex> lock(runq_mu_);
    workers_stop_ = true;
  }
  runq_cv_.notify_all();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  {
    std::lock_guard<std::mutex> lock(runq_mu_);
    runq_.clear();
  }
  loops_.clear();
}

void TransportServer::AcceptLoop() {
  obs::RegisterThisThread("acceptor");
  while (running_.load()) {
    Result<Socket> sock = listener_.Accept();
    if (!sock.ok()) {
      if (!running_.load()) return;
      // Transient accept failure (e.g. fd pressure); log rate-limited and
      // back off briefly.
      NoteAcceptError(sock.status());
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    ReapFinished();
    auto conn = std::make_shared<Connection>(this);
    Connection* c = conn.get();
    c->loop = loops_[next_loop_.fetch_add(1) % loops_.size()].get();
    // Conn's default write watermark gates the NOTIFY lane: above it the
    // backlog stays in the bounded notify inbox, where the overload ladder
    // applies.
    Conn::Options copts;
    copts.bytes_in = &bytes_in_;
    copts.bytes_out = &bytes_out_;
    c->conn = std::make_shared<Conn>(c->loop, std::move(sock.value()), c,
                                     copts);
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.push_back(conn);
    }
    accepts_.Add();
    Status st = c->conn->Register();
    if (!st.ok()) {
      NoteAcceptError(st);
      Teardown(c);
      c->conn->Close();  // runs OnClosed on the loop -> finished
    }
  }
}

void TransportServer::ReapFinished() {
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (auto it = conns_.begin(); it != conns_.end();) {
    if ((*it)->finished.load(std::memory_order_acquire)) {
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void TransportServer::ScanIdle() {
  if (opts_.idle_timeout_ms <= 0) return;
  const int64_t cutoff = obs::NowUs() - opts_.idle_timeout_ms * 1000;
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (const auto& conn : conns_) {
    if (conn->conn && !conn->closing.load() &&
        conn->conn->last_read_us() < cutoff) {
      // A frame gap longer than the timeout reads as a half-open client;
      // the shutdown surfaces as EOF on its loop, which tears it down.
      conn->conn->Kill();
    }
  }
}

bool TransportServer::WarnLimiter::Allow(uint64_t* suppressed) {
  const int64_t now = obs::NowUs();
  if (now - last_us < kWarnLogIntervalUs) {
    ++withheld;
    return false;
  }
  last_us = now;
  *suppressed = withheld;
  withheld = 0;
  return true;
}

void TransportServer::NoteAcceptError(const Status& st) {
  uint64_t suppressed = 0;
  {
    std::lock_guard<std::mutex> lock(slow_mu_);
    if (!accept_warns_.Allow(&suppressed)) return;
  }
  IDBA_LOG_FIELDS(LogLevel::kWarn, "transport", "accept failed",
                  {{"error", st.ToString()},
                   {"suppressed_since_last", std::to_string(suppressed)}});
}

void TransportServer::Teardown(Connection* conn) {
  bool expected = false;
  if (!conn->closing.compare_exchange_strong(expected, true)) {
    if (conn->conn) conn->conn->Kill();
    return;
  }
  if (conn->hello_done.load(std::memory_order_acquire)) {
    const ClientId cid = conn->client_id.load(std::memory_order_relaxed);
    // Stop notification routing first, then drop the callback registration
    // and release everything the client held (including aborting its
    // in-flight transactions, so a reconnecting client can retry safely).
    bus_->Unregister(static_cast<EndpointId>(cid));
    server_->DisconnectClient(cid);
    dlm_->ReleaseClient(cid);
    std::lock_guard<std::mutex> lock(conns_mu_);
    active_clients_.erase(cid);
  }
  conn->notify_inbox.Close();
  {
    // Admitted-but-never-executed requests die with the connection; return
    // their slots to the server-wide in-flight budget. (A request already
    // popped by a worker is not in this queue; the worker returns its slot
    // itself.)
    std::lock_guard<std::mutex> lock(conn->q_mu);
    if (!conn->requests.empty()) {
      inflight_.fetch_sub(conn->requests.size());
      conn->requests.clear();
    }
  }
  conn->cb_cv.notify_all();
  if (conn->conn) conn->conn->Kill();
}

// ---------------------------------------------------------------------------
// I/O-loop frame dispatch and the worker pool
// ---------------------------------------------------------------------------

void TransportServer::OnConnFrame(Connection* conn,
                                  const wire::FrameHeader& header,
                                  std::vector<uint8_t> payload) {
  if (conn->closing.load()) return;
  if (header.type == wire::FrameType::kRequest ||
      header.type == wire::FrameType::kOneWay) {
    // Admission control runs here, on the I/O loop: a saturated worker
    // pool must not grow queues without bound, and the rejection response
    // must not sit behind the very backlog that caused it.
    VTime client_now = 0;
    if (ShouldShed(conn, header, payload, &client_now)) {
      const uint64_t cid = conn->client_id.load(std::memory_order_relaxed);
      if (header.type == wire::FrameType::kRequest) {
        overload_rejections_.Add();
        obs::FlightRecord(obs::FlightType::kOverload, cid, 1);
        WriteOverloadedResponse(conn, header, client_now);
      } else {
        oneway_shed_.Add();  // no response channel; just count
        obs::FlightRecord(obs::FlightType::kOverload, cid, 2);
      }
      return;
    }
    obs::FlightRecord(obs::FlightType::kFrameIn,
                      conn->client_id.load(std::memory_order_relaxed),
                      static_cast<uint64_t>(header.type));
    inflight_.fetch_add(1);
    {
      std::lock_guard<std::mutex> lock(conn->q_mu);
      conn->requests.push_back({header, std::move(payload), obs::NowUs()});
    }
    ScheduleWork(conn);
  } else if (header.type == wire::FrameType::kCallbackAck) {
    // Routed inline on the loop — never needs a worker, so a commit
    // blocked on this ack cannot deadlock a saturated pool.
    {
      std::lock_guard<std::mutex> lock(conn->cb_mu);
      conn->pending_acks.erase(header.seq);
    }
    conn->cb_cv.notify_all();
  } else if (header.type == wire::FrameType::kResyncAck) {
    // The client processed the RESYNC and cleared its cache: callbacks
    // go live again. Wake the flush in case a staleness event during the
    // ack round trip queued a follow-up resync.
    if (conn->resync_awaiting_ack.load() == header.seq) {
      conn->resync_awaiting_ack.store(0);
      conn->WakeNotify();
    }
  } else {
    // RESPONSE / NOTIFY / CALLBACK never flow client->server: protocol
    // violation, drop the connection.
    if (conn->conn) conn->conn->Kill();
  }
}

void TransportServer::ScheduleWork(Connection* conn) {
  bool expected = false;
  if (!conn->scheduled.compare_exchange_strong(expected, true,
                                               std::memory_order_acq_rel)) {
    return;  // already queued or executing; that pass reschedules
  }
  obs::FlightRecord(obs::FlightType::kStrandSchedule,
                    conn->client_id.load(std::memory_order_relaxed));
  {
    std::lock_guard<std::mutex> lock(runq_mu_);
    runq_.push_back(conn->shared_from_this());
  }
  runq_cv_.notify_one();
}

void TransportServer::WorkerMain(int index) {
  obs::RegisterThisThread("worker-" + std::to_string(index));
  for (;;) {
    std::shared_ptr<Connection> conn;
    {
      std::unique_lock<std::mutex> lock(runq_mu_);
      obs::SetThreadWorking(false);  // run-queue wait is idle, not stalled
      runq_cv_.wait(lock, [&] { return workers_stop_ || !runq_.empty(); });
      if (runq_.empty()) return;  // workers_stop_ and fully drained
      conn = std::move(runq_.front());
      runq_.pop_front();
    }
    obs::SetThreadWorking(true);
    obs::HealthEpochBump();
    // Execute exactly one request, then clear the strand flag and recheck:
    // per-client order is preserved (no second worker can run this
    // connection until the flag clears), and no connection can monopolize
    // a worker while others wait.
    Connection::QueuedRequest item;
    bool have = false;
    {
      std::lock_guard<std::mutex> lock(conn->q_mu);
      if (!conn->requests.empty()) {
        item = std::move(conn->requests.front());
        conn->requests.pop_front();
        have = true;
      }
    }
    if (have) {
      const int64_t lag_us =
          std::max<int64_t>(obs::NowUs() - item.enqueued_us, 0);
      dispatch_lag_->Record(static_cast<double>(lag_us));
      obs::FlightRecord(obs::FlightType::kStrandRun,
                        conn->client_id.load(std::memory_order_relaxed),
                        static_cast<uint64_t>(lag_us));
      if (!conn->closing.load()) {
        HandleFrame(conn.get(), item.header, item.payload, item.enqueued_us);
      }
      inflight_.fetch_sub(1);
    }
    conn->scheduled.store(false, std::memory_order_release);
    bool more = false;
    {
      std::lock_guard<std::mutex> lock(conn->q_mu);
      more = !conn->requests.empty();
    }
    if (more) ScheduleWork(conn.get());
  }
}

namespace {

/// True for methods that start new work the server has not yet agreed to:
/// session entry, transaction begin, reads outside any transaction, lock
/// acquisition, DDL. Only these are shed by the server-wide in-flight cap.
/// Everything else either completes or releases already-admitted work
/// (Commit/Abort finish a transaction admitted at Begin; Fetch/Put/etc.
/// run inside one; unlocks and eviction notices free resources) — shedding
/// those would pin locks and transaction state on an overloaded server,
/// the opposite of shedding load.
bool IsWorkStarting(uint8_t method_raw) {
  switch (static_cast<wire::Method>(method_raw)) {
    case wire::Method::kHello:
    case wire::Method::kBegin:
    case wire::Method::kFetchCurrent:
    case wire::Method::kScanClass:
    case wire::Method::kQuery:
    case wire::Method::kAllocateOid:
    case wire::Method::kGetVersion:
    case wire::Method::kDefineClass:
    case wire::Method::kAddAttribute:
    case wire::Method::kDlmLock:
    case wire::Method::kDlmLockBatch:
      return true;
    default:
      return false;
  }
}

}  // namespace

bool TransportServer::ShouldShed(Connection* conn,
                                 const wire::FrameHeader& header,
                                 const std::vector<uint8_t>& payload,
                                 VTime* client_now) {
  size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(conn->q_mu);
    depth = conn->requests.size();
  }
  const bool queue_full =
      opts_.max_request_queue > 0 && depth >= opts_.max_request_queue;
  const bool inflight_full =
      opts_.max_inflight > 0 && inflight_.load() >= opts_.max_inflight;
  if (!queue_full && !inflight_full) return false;
  // Peek at the method (skipping a traced frame's TraceInfo prefix): ADMIN
  // stays admitted — an operator must be able to see an overloaded server
  // — and the client's clock stamp rides back in the rejection so virtual
  // time stays monotonic at the caller.
  Decoder dec(payload.data(), payload.size());
  wire::TraceInfo trace;
  if (header.traced) {
    if (!wire::DecodeTraceInfo(&dec, &trace).ok()) return true;
  }
  uint8_t method_raw = 0;
  if (!dec.GetU8(&method_raw).ok()) return true;
  (void)dec.GetI64(client_now);
  if (method_raw == static_cast<uint8_t>(wire::Method::kAdmin)) return false;
  // The per-connection queue bound is a hard memory limit: a pipelining
  // client that outruns its worker is shed regardless of method. The
  // server-wide in-flight cap is load shedding: it turns away new work
  // only, never the completion of work already admitted.
  const bool shed = queue_full || IsWorkStarting(method_raw);
  if (shed && trace.trace_id != 0) {
    // The rejection joins the caller's trace so an operator sees *why* an
    // RPC came back Overloaded, not just that it did.
    obs::Span reject = obs::Span::StartChildOf(
        {trace.trace_id, trace.span_id}, "server.overload_reject");
    reject.Note(queue_full ? "request queue full" : "inflight cap");
  }
  return shed;
}

void TransportServer::WriteOverloadedResponse(Connection* conn,
                                              const wire::FrameHeader& header,
                                              VTime client_now) {
  // Untraced even for traced requests (the client keys its TraceInfo
  // decode off the *response* frame's traced bit): status | completion
  // vtime | retry-after hint (varint ms), the one piece of
  // Overloaded-specific body.
  std::vector<uint8_t> resp;
  Encoder enc(&resp);
  wire::EncodeStatus(
      Status::Overloaded("server overloaded; retry in ~" +
                         std::to_string(opts_.overload_retry_after_ms) +
                         " ms"),
      &enc);
  enc.PutI64(client_now);
  enc.PutVarint(static_cast<uint64_t>(
      std::max<int64_t>(opts_.overload_retry_after_ms, 0)));
  if (conn->conn) {
    (void)conn->conn->EnqueueWireFrame(wire::FrameType::kResponse, header.seq,
                                       resp);
  }
}

InboxOptions TransportServer::NotifyInboxOptions(Connection* conn) {
  InboxOptions in;
  in.max_pending = kMaxNotifyQueue;
  in.coalesced_metric = &notify_coalesced_;
  in.shed_metric = &notify_shed_;
  in.overflow_metric = &notify_overflows_;
  // The flush that forwards this inbox is a loop task, not a thread blocked
  // in WaitNext — every delivery posts one (deduplicated) flush.
  in.wakeup_hook = [conn] { conn->WakeNotify(); };
  // Runs on the *delivering* thread (a committing writer's worker, outside
  // the inbox lock), so it must never take connection-table locks or join
  // threads. Marking stale is one atomic store: invalidation callbacks stop
  // at once, before the flush gets to queue the RESYNC frame.
  in.overflow_hook = [conn] { conn->stale.store(true); };
  return in;
}

void TransportServer::FlushNotifies(Connection* conn) {
  // Clear the dedup flag first: a delivery racing this flush posts a new
  // task rather than being lost.
  conn->notify_flush_pending.store(false, std::memory_order_release);
  if (conn->closing.load()) return;
  Conn* c = conn->conn.get();
  if (c == nullptr || c->closed()) return;

  // Lane 1: invalidation callbacks queued by committing writers. Queued
  // here so a writer never blocks on this client's (possibly stalled)
  // socket; the writer is meanwhile waiting on cb_cv for the ack. Always
  // flushed (never gated on backpressure): the lane is small and bounded,
  // and a blocked writer must not wait behind a notify backlog.
  std::deque<Connection::PendingCallbackFrame> cbs;
  {
    std::lock_guard<std::mutex> lock(conn->cb_mu);
    cbs.swap(conn->callback_queue);
  }
  for (const Connection::PendingCallbackFrame& cb : cbs) {
    std::vector<uint8_t> payload;
    Encoder enc(&payload);
    const bool traced = cb.trace_id != 0;
    if (traced) {
      wire::TraceInfo trace;
      trace.trace_id = cb.trace_id;
      trace.span_id = cb.trace_span;
      wire::EncodeTraceInfo(trace, &enc);
    }
    enc.PutU64(cb.oid);
    enc.PutU64(cb.version);
    (void)c->EnqueueWireFrame(wire::FrameType::kCallback, cb.seq, payload,
                              traced);
  }

  // Lane 2: a forced resync owed to this client (notify overflow, callback
  // timeout, or callback-lane overflow).
  if (conn->notify_inbox.TakeOverflow()) {
    obs::FlightRecord(obs::FlightType::kOverload,
                      conn->client_id.load(std::memory_order_relaxed), 3);
    conn->stale.store(true);
  }
  if (conn->stale.load() && conn->resync_awaiting_ack.load() == 0) {
    ResyncNotifyMessage msg;
    msg.resync_vtime = server_->cpu_clock().Now();
    msg.dropped = conn->notify_inbox.shed() - conn->shed_reported;
    wire::NotifyFrame frame;
    frame.from = 0;  // the server itself, not a committing peer
    frame.to = conn->client_id.load(std::memory_order_relaxed);
    frame.sent_at = msg.resync_vtime;
    frame.arrives_at = msg.resync_vtime;
    frame.kind = wire::NotifyKind::kResync;
    frame.virtual_wire_bytes = msg.WireBytes();
    std::vector<uint8_t> payload;
    Encoder enc(&payload);
    wire::EncodeNotifyMeta(frame, &enc);
    msg.EncodeTo(&enc);
    const uint64_t resync_seq = conn->notify_seq++;
    // Mark the ack outstanding *before* the frame is queued: once it is on
    // the wire the ack can race in on this same loop thread's next batch.
    conn->resync_awaiting_ack.store(resync_seq);
    conn->stale.store(false);
    (void)c->EnqueueWireFrame(wire::FrameType::kNotify, resync_seq, payload);
    conn->shed_reported = conn->notify_inbox.shed();
    forced_resyncs_.Add();
    conn->forced_resyncs.fetch_add(1);
    obs::FlightRecord(obs::FlightType::kResync, frame.to, msg.dropped);
    // The loop thread has no ambient trace; record the escalation as its
    // own (sampled) root so forced resyncs show up in trace dumps.
    obs::Span escalate = obs::Span::StartRoot("server.forced_resync");
    escalate.Note("client " + std::to_string(frame.to) + ", dropped " +
                  std::to_string(msg.dropped));
    // The client owes a RESYNC_ACK; until it arrives the connection keeps
    // eliding invalidation callbacks (the client is still inconsistent)
    // and a stalled subscriber costs committing writers nothing.
  }

  // Lane 3: the notify inbox, gated on write-queue backpressure. While the
  // socket's outbound queue sits above the watermark the backlog stays in
  // the *bounded* inbox — where coalescing and the overload ladder apply —
  // instead of ballooning the write queue; OnWriteDrained resumes this
  // drain when the queue empties.
  while (!c->write_backlogged()) {
    std::optional<Envelope> env = conn->notify_inbox.Poll();
    if (!env) break;
    uint8_t kind_raw = 0;
    bool encoded_now = false;
    SharedBuf body = env->msg
                         ? env->msg->SharedWireBody(&kind_raw, &encoded_now)
                         : SharedBuf();
    if (!body) continue;  // message kind with no wire form; none flow today
    wire::NotifyFrame frame;
    frame.from = env->from;
    frame.to = env->to;
    frame.sent_at = env->sent_at;
    frame.arrives_at = env->arrives_at;
    frame.virtual_wire_bytes = env->wire_bytes;
    frame.kind = static_cast<wire::NotifyKind>(kind_raw);
    // The head is per-connection (trace bit and context differ per peer);
    // the body is the SharedBuf every subscriber of this message shares —
    // serialized once, stitched to each head by writev.
    std::vector<uint8_t> meta;
    Encoder enc(&meta);
    const bool traced = env->trace_id != 0;
    if (traced) {
      wire::TraceInfo trace;
      trace.trace_id = env->trace_id;
      trace.span_id = env->trace_span;
      wire::EncodeTraceInfo(trace, &enc);
    }
    wire::EncodeNotifyMeta(frame, &enc);
    if (encoded_now) {
      fanout_encodes_.Add();
    } else {
      fanout_reuses_.Add();
    }
    (void)c->EnqueueWireFrame(wire::FrameType::kNotify, conn->notify_seq++,
                              meta, body, traced);
    notifies_.Add();
  }
}

void TransportServer::HandleFrame(Connection* conn,
                                  const wire::FrameHeader& header,
                                  const std::vector<uint8_t>& payload,
                                  int64_t enqueued_us) {
  Decoder dec(payload.data(), payload.size());

  // Traced frame: the payload opens with the client's context.
  wire::TraceInfo req_trace;
  if (header.traced) {
    if (!wire::DecodeTraceInfo(&dec, &req_trace).ok()) {
      req_trace = wire::TraceInfo{};
    }
  }
  const obs::TraceContext rpc_ctx{req_trace.trace_id, req_trace.span_id};
  const int64_t dequeued_us = obs::NowUs();
  const uint32_t queue_us =
      static_cast<uint32_t>(std::max<int64_t>(dequeued_us - enqueued_us, 0));
  if (rpc_ctx.valid()) {
    // The queue wait already happened; record it as an explicit span.
    obs::SpanRecord wait;
    wait.trace_id = rpc_ctx.trace_id;
    wait.span_id = obs::NewSpanId();
    wait.parent_id = rpc_ctx.span_id;
    wait.start_us = enqueued_us;
    wait.dur_us = dequeued_us - enqueued_us;
    wait.tid = ThisThreadId();
    wait.name = "server.queue";
    obs::GlobalRecorder().Record(std::move(wait));
  }
  // Adopt the client's context for the execution, so every span opened
  // inside the server stack (locks, storage, commit, callback fan-out,
  // DLM notify) becomes part of the client's trace.
  obs::ScopedContext adopt(rpc_ctx);

  uint8_t method_raw = 0;
  VTime client_now = 0;
  Status st = dec.GetU8(&method_raw);
  if (st.ok()) st = dec.GetI64(&client_now);
  Status result;
  std::vector<uint8_t> body;
  Encoder body_enc(&body);
  ServerCallInfo info;
  bool metered = false;
  wire::Method method = static_cast<wire::Method>(method_raw);
  // Name and RpcStats slot the call is timed under. Admin calls are named
  // by verb (rpc.Metrics.*), in slots past every method number.
  const char* rpc_name = nullptr;
  int rpc_slot = method_raw;
  if (!st.ok()) {
    result = st;
  } else if (wire::MethodName(method) == "Unknown") {
    // Out of range, or one of the retired numbers.
    result = Status::Corruption("unknown method " + std::to_string(method_raw));
  } else {
    requests_.Add();
    rpc_name = wire::MethodName(method).data();
    if (method == wire::Method::kAdmin && dec.remaining() > 0) {
      const uint8_t verb = payload[dec.position()];
      if (const char* verb_name = admin::VerbName(verb)) {
        rpc_name = verb_name;
        rpc_slot = kAdminRpcSlotBase + verb;
      }
    }
    // Traced request: join the client's trace. Untraced request: start a
    // server-local root (subject to this process's sampling), so a server
    // run with --trace yields traces even from untraced clients.
    obs::Span exec = rpc_ctx.valid()
                         ? obs::Span::StartChildOf(rpc_ctx, "server.execute")
                         : obs::Span::StartRoot("server.execute");
    exec.Note(rpc_name);
    result = ExecuteMethod(conn, method, &dec, client_now,
                           static_cast<int64_t>(wire::kHeaderBytes +
                                                payload.size()),
                           &info, &body_enc, &metered);
  }
  const uint32_t exec_us = static_cast<uint32_t>(
      std::max<int64_t>(obs::NowUs() - dequeued_us, 0));

  if (rpc_name != nullptr) {
    // Server-side per-opcode decomposition (the client records its own
    // rpc.* series; a server scraped over --prom-port needs its own view).
    obs::RpcPartHistograms& rh =
        obs::GlobalRpcStats().HandleFor(rpc_slot, rpc_name);
    rh.queue_us->Record(static_cast<double>(queue_us));
    rh.execute_us->Record(static_cast<double>(exec_us));
    rh.total_us->Record(static_cast<double>(queue_us) + exec_us);
  }

  if (opts_.slow_rpc_threshold_ms > 0 && rpc_name != nullptr &&
      queue_us + exec_us >
          static_cast<uint64_t>(opts_.slow_rpc_threshold_ms) * 1000) {
    NoteSlowRpc(rpc_name, conn->client_id.load(std::memory_order_relaxed),
                static_cast<int64_t>(queue_us) + exec_us, req_trace.trace_id);
  }

  if (header.type == wire::FrameType::kOneWay) return;

  // The response payload is status | completion vtime | body. The virtual
  // completion time depends on the measured response size, so encode the
  // status first, size everything, then charge the meter.
  std::vector<uint8_t> head;
  Encoder head_enc(&head);
  wire::EncodeStatus(result, &head_enc);

  VTime completion = client_now;
  if (metered) {
    int64_t request_bytes =
        static_cast<int64_t>(wire::kHeaderBytes + payload.size());
    int64_t response_bytes = static_cast<int64_t>(
        wire::kHeaderBytes + head.size() + sizeof(int64_t) + body.size());
    completion =
        meter_->ChargeRoundTrip(client_now, &server_->cpu_clock(),
                                request_bytes, response_bytes,
                                info.page_misses, info.callbacks);
  }

  std::vector<uint8_t> resp;
  Encoder enc(&resp);
  if (header.traced) {
    // Echo the request's context and report the server-side time split so
    // the client can decompose its measured round-trip (and synthesize
    // queue/execute child spans) without reading this server's recorder.
    wire::TraceInfo resp_trace = req_trace;
    resp_trace.queue_us = queue_us;
    resp_trace.exec_us = exec_us;
    wire::EncodeTraceInfo(resp_trace, &enc);
  }
  resp.insert(resp.end(), head.begin(), head.end());
  enc.PutI64(completion);
  resp.insert(resp.end(), body.begin(), body.end());
  if (conn->conn) {
    obs::FlightRecord(
        obs::FlightType::kFrameOut,
        conn->client_id.load(std::memory_order_relaxed),
        static_cast<uint64_t>(wire::FrameType::kResponse));
    (void)conn->conn->EnqueueWireFrame(wire::FrameType::kResponse, header.seq,
                                       resp, header.traced);
  }
}

Status TransportServer::ExecuteMethod(Connection* conn, wire::Method method,
                                      Decoder* dec, VTime client_now,
                                      int64_t request_bytes,
                                      ServerCallInfo* info, Encoder* body,
                                      bool* metered) {
  using wire::Method;
  if (!conn->hello_done.load(std::memory_order_acquire) &&
      method != Method::kHello && method != Method::kPing &&
      method != Method::kAdmin) {
    return Status::InvalidArgument("Hello handshake required before " +
                                   std::string(wire::MethodName(method)));
  }
  const ClientId cid = conn->client_id.load(std::memory_order_relaxed);
  // Metered calls push the request's arrival into the server clock before
  // the call executes (mirrors DatabaseClient::Metered), so commit hooks
  // observe a causally correct virtual time.
  auto observe = [&] {
    *metered = true;
    meter_->ObserveRequest(client_now, &server_->cpu_clock(), request_bytes);
  };

  switch (method) {
    case Method::kHello: {
      uint64_t id = 0;
      uint8_t consistency = 0;
      uint8_t version = 0;  // a body without the version byte reads as 0
      IDBA_RETURN_NOT_OK(dec->GetU64(&id));
      IDBA_RETURN_NOT_OK(dec->GetU8(&consistency));
      if (dec->remaining() > 0) IDBA_RETURN_NOT_OK(dec->GetU8(&version));
      if (version != wire::kWireVersion) {
        return Status::InvalidArgument(
            "client speaks wire version " + std::to_string(version) +
            ", server speaks " + std::to_string(wire::kWireVersion));
      }
      if (conn->hello_done.load(std::memory_order_acquire)) {
        return Status::InvalidArgument("duplicate Hello");
      }
      if (id == 0) {
        return Status::InvalidArgument("client id must be nonzero");
      }
      if (consistency > static_cast<uint8_t>(ConsistencyMode::kDetection)) {
        return Status::InvalidArgument("unknown consistency mode");
      }
      {
        std::lock_guard<std::mutex> lock(conns_mu_);
        if (!active_clients_.insert(id).second) {
          return Status::AlreadyExists("client " + std::to_string(id) +
                                       " already connected");
        }
      }
      conn->client_id.store(id, std::memory_order_relaxed);
      conn->hello_done.store(true, std::memory_order_release);
      server_->ConnectClient(id, conn);
      bus_->Register(static_cast<EndpointId>(id), &conn->notify_inbox);
      std::lock_guard<std::mutex> lock(ddl_mu_);
      server_->schema().EncodeTo(body);
      return Status::OK();
    }
    case Method::kPing:
      return Status::OK();
    case Method::kAdmin: {
      std::string out;
      IDBA_RETURN_NOT_OK(admin::Execute(*this, dec, &out));
      body->PutString(out);
      return Status::OK();
    }
    case Method::kBegin: {
      body->PutU64(server_->Begin(cid));
      return Status::OK();
    }
    case Method::kCommit: {
      uint64_t txn = 0;
      IDBA_RETURN_NOT_OK(dec->GetU64(&txn));
      observe();
      Result<CommitResult> result = server_->Commit(cid, txn, info);
      IDBA_RETURN_NOT_OK(result.status());
      wire::EncodeCommitResult(result.value(), body);
      return Status::OK();
    }
    case Method::kCommitValidated: {
      uint64_t txn = 0;
      std::vector<std::pair<Oid, uint64_t>> read_set;
      IDBA_RETURN_NOT_OK(dec->GetU64(&txn));
      IDBA_RETURN_NOT_OK(wire::DecodeReadSet(dec, &read_set));
      observe();
      Result<CommitResult> result =
          server_->CommitValidated(cid, txn, read_set, info);
      IDBA_RETURN_NOT_OK(result.status());
      wire::EncodeCommitResult(result.value(), body);
      return Status::OK();
    }
    case Method::kAbort: {
      uint64_t txn = 0;
      IDBA_RETURN_NOT_OK(dec->GetU64(&txn));
      observe();
      return server_->Abort(cid, txn, info);
    }
    case Method::kFetch: {
      uint64_t txn = 0, oid = 0;
      IDBA_RETURN_NOT_OK(dec->GetU64(&txn));
      IDBA_RETURN_NOT_OK(dec->GetU64(&oid));
      observe();
      Result<DatabaseObject> obj = server_->Fetch(cid, txn, Oid(oid), info);
      IDBA_RETURN_NOT_OK(obj.status());
      obj.value().EncodeTo(body);
      return Status::OK();
    }
    case Method::kFetchCurrent: {
      uint64_t oid = 0;
      uint8_t register_copy = 0;
      IDBA_RETURN_NOT_OK(dec->GetU64(&oid));
      IDBA_RETURN_NOT_OK(dec->GetU8(&register_copy));
      observe();
      Result<DatabaseObject> obj =
          server_->FetchCurrent(cid, Oid(oid), info, register_copy != 0);
      IDBA_RETURN_NOT_OK(obj.status());
      obj.value().EncodeTo(body);
      return Status::OK();
    }
    case Method::kLockForRead: {
      uint64_t txn = 0, oid = 0;
      IDBA_RETURN_NOT_OK(dec->GetU64(&txn));
      IDBA_RETURN_NOT_OK(dec->GetU64(&oid));
      observe();
      return server_->LockForRead(cid, txn, Oid(oid), info);
    }
    case Method::kPut:
    case Method::kInsert: {
      uint64_t txn = 0;
      DatabaseObject obj;
      IDBA_RETURN_NOT_OK(dec->GetU64(&txn));
      IDBA_RETURN_NOT_OK(DatabaseObject::DecodeFrom(dec, &obj));
      observe();
      return method == Method::kPut
                 ? server_->Put(cid, txn, std::move(obj), info)
                 : server_->Insert(cid, txn, std::move(obj), info);
    }
    case Method::kErase: {
      uint64_t txn = 0, oid = 0;
      IDBA_RETURN_NOT_OK(dec->GetU64(&txn));
      IDBA_RETURN_NOT_OK(dec->GetU64(&oid));
      observe();
      return server_->Erase(cid, txn, Oid(oid), info);
    }
    case Method::kScanClass: {
      uint32_t cls = 0;
      uint8_t include_subclasses = 0;
      IDBA_RETURN_NOT_OK(dec->GetU32(&cls));
      IDBA_RETURN_NOT_OK(dec->GetU8(&include_subclasses));
      observe();
      Result<std::vector<DatabaseObject>> objs =
          server_->ScanClass(cid, cls, include_subclasses != 0, info);
      IDBA_RETURN_NOT_OK(objs.status());
      wire::EncodeObjectVector(objs.value(), body);
      return Status::OK();
    }
    case Method::kQuery: {
      ObjectQuery query;
      IDBA_RETURN_NOT_OK(ObjectQuery::DecodeFrom(dec, &query));
      observe();
      Result<std::vector<DatabaseObject>> objs =
          server_->ExecuteQuery(cid, query, info);
      IDBA_RETURN_NOT_OK(objs.status());
      wire::EncodeObjectVector(objs.value(), body);
      return Status::OK();
    }
    case Method::kAllocateOid: {
      body->PutU64(server_->AllocateOid().value);
      return Status::OK();
    }
    case Method::kGetVersion: {
      uint64_t oid = 0;
      IDBA_RETURN_NOT_OK(dec->GetU64(&oid));
      IDBA_ASSIGN_OR_RETURN(uint64_t version, server_->heap().ReadVersion(Oid(oid)));
      body->PutU64(version);
      return Status::OK();
    }
    case Method::kDefineClass: {
      std::string name;
      uint32_t base = 0;
      IDBA_RETURN_NOT_OK(dec->GetString(&name));
      IDBA_RETURN_NOT_OK(dec->GetU32(&base));
      std::lock_guard<std::mutex> lock(ddl_mu_);
      Result<ClassId> cls = server_->schema().DefineClass(name, base);
      IDBA_RETURN_NOT_OK(cls.status());
      body->PutU32(cls.value());
      return Status::OK();
    }
    case Method::kAddAttribute: {
      uint32_t cls = 0;
      std::string name;
      uint8_t type = 0;
      Value default_value;
      IDBA_RETURN_NOT_OK(dec->GetU32(&cls));
      IDBA_RETURN_NOT_OK(dec->GetString(&name));
      IDBA_RETURN_NOT_OK(dec->GetU8(&type));
      IDBA_RETURN_NOT_OK(Value::DecodeFrom(dec, &default_value));
      if (type > static_cast<uint8_t>(ValueType::kOidList)) {
        return Status::Corruption("unknown value type " + std::to_string(type));
      }
      std::lock_guard<std::mutex> lock(ddl_mu_);
      return server_->schema().AddAttribute(cls, name,
                                            static_cast<ValueType>(type),
                                            std::move(default_value));
    }
    case Method::kNoteEvicted: {
      uint64_t oid = 0;
      IDBA_RETURN_NOT_OK(dec->GetU64(&oid));
      server_->NoteEvicted(cid, Oid(oid));
      return Status::OK();
    }
    case Method::kDlmLock:
    case Method::kDlmUnlock: {
      // sent_at travels explicitly: the DLC stamps it from the client clock
      // when the (virtually unacknowledged) request leaves.
      VTime sent_at = 0;
      uint64_t holder = 0, oid = 0;
      IDBA_RETURN_NOT_OK(dec->GetI64(&sent_at));
      IDBA_RETURN_NOT_OK(dec->GetU64(&holder));
      IDBA_RETURN_NOT_OK(dec->GetU64(&oid));
      return method == Method::kDlmLock
                 ? dlm_->Lock(holder, Oid(oid), sent_at)
                 : dlm_->Unlock(holder, Oid(oid), sent_at);
    }
    case Method::kDlmLockBatch:
    case Method::kDlmUnlockBatch: {
      VTime sent_at = 0;
      uint64_t holder = 0;
      std::vector<Oid> oids;
      IDBA_RETURN_NOT_OK(dec->GetI64(&sent_at));
      IDBA_RETURN_NOT_OK(dec->GetU64(&holder));
      IDBA_RETURN_NOT_OK(wire::DecodeOidVector(dec, &oids));
      return method == Method::kDlmLockBatch
                 ? dlm_->LockBatch(holder, oids, sent_at)
                 : dlm_->UnlockBatch(holder, oids, sent_at);
    }
    case Method::kDlmReregister: {
      // Recovery traffic, not workload: a reconnecting client replaying the
      // display locks it already held before the server restarted. sent_at
      // travels for wire uniformity with the other DLM methods but is not
      // charged against the virtual clock.
      VTime sent_at = 0;
      uint64_t holder = 0;
      std::vector<Oid> oids;
      IDBA_RETURN_NOT_OK(dec->GetI64(&sent_at));
      IDBA_RETURN_NOT_OK(dec->GetU64(&holder));
      IDBA_RETURN_NOT_OK(wire::DecodeOidVector(dec, &oids));
      return dlm_->Reregister(holder, oids);
    }
  }
  return Status::Corruption("unhandled method");
}

void TransportServer::NoteSlowRpc(const char* method, ClientId client,
                                  int64_t duration_us, uint64_t trace_id) {
  SlowRpc slow;
  slow.method = method;
  slow.client = client;
  slow.duration_us = duration_us;
  slow.trace_id = trace_id;
  // The ring records every slow RPC; the WARN line is rate limited so a
  // storm of them (the very condition that makes RPCs slow) cannot drown
  // the log. Suppressed events are summed onto the next emitted line.
  uint64_t suppressed = 0;
  {
    std::lock_guard<std::mutex> lock(slow_mu_);
    slow_rpcs_.push_back(slow);
    while (slow_rpcs_.size() > kSlowRpcRing) slow_rpcs_.pop_front();
    if (!slow_warns_.Allow(&suppressed)) return;
  }
  char trace_hex[24];
  std::snprintf(trace_hex, sizeof(trace_hex), "%llx",
                static_cast<unsigned long long>(trace_id));
  IDBA_LOG_FIELDS(LogLevel::kWarn, "transport", "slow rpc",
                  {{"method", slow.method},
                   {"client", std::to_string(client)},
                   {"duration_us", std::to_string(duration_us)},
                   {"trace_id", trace_hex},
                   {"suppressed_since_last", std::to_string(suppressed)}});
}

std::vector<TransportServer::SlowRpc> TransportServer::SlowRpcLog() const {
  std::lock_guard<std::mutex> lock(slow_mu_);
  return {slow_rpcs_.begin(), slow_rpcs_.end()};
}

std::vector<TransportServer::SessionStats> TransportServer::Sessions() const {
  std::vector<SessionStats> sessions;
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (const auto& conn : conns_) {
    if (!conn->hello_done.load(std::memory_order_acquire)) continue;
    size_t callbacks_pending = 0;
    {
      std::lock_guard<std::mutex> cb_lock(conn->cb_mu);
      callbacks_pending = conn->pending_acks.size();
    }
    sessions.push_back(
        {conn->client_id.load(std::memory_order_relaxed),
         conn->notify_inbox.pending(), conn->notify_inbox.coalesced(),
         conn->notify_inbox.shed(), conn->notify_inbox.overflows(),
         conn->forced_resyncs.load(), callbacks_pending,
         conn->stale.load() || conn->resync_awaiting_ack.load() != 0});
  }
  return sessions;
}

}  // namespace idba
