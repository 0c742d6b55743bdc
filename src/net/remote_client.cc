#include "net/remote_client.h"

#include <algorithm>
#include <chrono>

#include "common/logging.h"
#include "common/rng.h"
#include "core/notification.h"
#include "obs/audit.h"
#include "obs/rpc_stats.h"
#include "obs/trace.h"

namespace idba {

namespace {

/// Bound on establishing the TCP connection (Connect and each Reconnect
/// attempt).
constexpr int64_t kConnectTimeoutMs = 5000;
/// Reconnect backoff: the first sleep, doubled per attempt up to the cap.
constexpr int64_t kReconnectBackoffMs = 50;
constexpr int64_t kReconnectBackoffCapMs = 2000;

/// Records a span that already happened (retrospective child of `parent`).
/// Returns its span id so further synthesized spans can nest under it.
uint64_t EmitSpan(uint64_t trace_id, uint64_t parent, const char* name,
                  int64_t start_us, int64_t dur_us) {
  obs::SpanRecord rec;
  rec.trace_id = trace_id;
  rec.span_id = obs::NewSpanId();
  rec.parent_id = parent;
  rec.start_us = start_us;
  rec.dur_us = dur_us;
  rec.tid = ThisThreadId();
  rec.name = name;
  const uint64_t id = rec.span_id;
  obs::GlobalRecorder().Record(std::move(rec));
  return id;
}

}  // namespace

RemoteDatabaseClient::RemoteDatabaseClient(ClientId id, RemoteClientOptions opts)
    : CachingClient(opts.consistency, opts.cache), id_(id), opts_(opts) {}

Result<std::unique_ptr<RemoteDatabaseClient>> RemoteDatabaseClient::Connect(
    const std::string& host, uint16_t port, ClientId id,
    RemoteClientOptions opts) {
  std::unique_ptr<RemoteDatabaseClient> client(
      new RemoteDatabaseClient(id, opts));
  client->host_ = host;
  client->port_ = port;
  IDBA_ASSIGN_OR_RETURN(client->sock_,
                        Socket::ConnectTo(host, port, kConnectTimeoutMs));
  client->connected_.store(true);
  RemoteDatabaseClient* raw = client.get();
  client->reader_ = std::thread([raw] { raw->ReaderLoop(); });
  IDBA_RETURN_NOT_OK(client->Hello());
  if (opts.report_evictions) client->InstallEvictionCallback();
  if (opts.heartbeat_interval_ms > 0) {
    client->heartbeat_ = std::thread([raw] { raw->HeartbeatLoop(); });
  }
  return client;
}

RemoteDatabaseClient::~RemoteDatabaseClient() {
  shutting_down_.store(true);
  {
    std::lock_guard<std::mutex> lock(hb_mu_);
  }
  hb_cv_.notify_all();
  cache_.set_eviction_callback(EvictionCallback());
  sock_.ShutdownBoth();
  if (reader_.joinable()) reader_.join();
  if (heartbeat_.joinable()) heartbeat_.join();
  inbox_.Close();
  sock_.Close();
}

void RemoteDatabaseClient::InstallEvictionCallback() {
  cache_.set_eviction_callback([this](Oid oid) {
    std::vector<uint8_t> body;
    Encoder enc(&body);
    enc.PutU64(oid.value);
    SendOneWay(wire::Method::kNoteEvicted, body);
  });
}

void RemoteDatabaseClient::set_fault_injector(
    std::shared_ptr<FaultInjector> faults) {
  std::lock_guard<std::mutex> lock(write_mu_);
  faults_ = faults;
  sock_.set_fault_injector(std::move(faults));
}

Status RemoteDatabaseClient::Reconnect(int max_attempts) {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (shutting_down_.load()) return Status::IOError("client shutting down");
  if (connected_.load()) {
    return Status::InvalidArgument(
        "Reconnect: connection is still up; it is for dead connections");
  }
  if (reader_.joinable()) reader_.join();
  // The dead session's copy registrations died with it, so cached copies
  // are no longer protected by callbacks: drop them all (silently — the
  // new session never registered them, so no NoteEvicted).
  cache_.set_eviction_callback(EvictionCallback());
  cache_.Clear();
  ForgetReadSets();
  int64_t backoff = kReconnectBackoffMs;
  // Deterministic per client and per reconnect episode, so tests replay
  // exactly while distinct clients still spread their re-dials.
  Rng jitter_rng(id_ * 0x9E3779B97F4A7C15ULL + reconnects_.Get() + 1);
  // An Overloaded rejection's retry-after hint floors the first sleep: the
  // server told us when it wants to hear from us again.
  const int64_t hint = retry_after_hint_ms_.load(std::memory_order_relaxed);
  if (hint > backoff) backoff = std::min(hint, kReconnectBackoffCapMs);
  Status last = Status::IOError("reconnect: no attempts made");
  for (int attempt = 0; attempt < std::max(max_attempts, 1); ++attempt) {
    if (attempt > 0) {
      // Equal-jitter: uniform in [backoff/2, backoff] keeps the expected
      // wait growing exponentially while decorrelating a thundering herd.
      std::this_thread::sleep_for(std::chrono::milliseconds(
          jitter_rng.NextInRange(backoff / 2, backoff)));
      backoff = std::min<int64_t>(backoff * 2, kReconnectBackoffCapMs);
    }
    Result<Socket> fresh =
        Socket::ConnectTo(host_, port_, kConnectTimeoutMs);
    if (!fresh.ok()) {
      last = fresh.status();
      IDBA_LOG_FIELDS(LogLevel::kWarn, "client", "reconnect attempt failed",
                      {{"client", std::to_string(id_)},
                       {"attempt", std::to_string(attempt + 1)},
                       {"error", last.ToString()}});
      continue;
    }
    {
      // Exclude stragglers mid-WriteFrame on the dead socket.
      std::lock_guard<std::mutex> lock(write_mu_);
      sock_ = std::move(fresh).value();
      if (faults_) sock_.set_fault_injector(faults_);
    }
    connected_.store(true);
    reader_ = std::thread([this] { ReaderLoop(); });
    last = Hello();
    if (last.ok()) last = ReplayDisplayLocks();
    if (last.ok()) {
      if (opts_.report_evictions) InstallEvictionCallback();
      reconnects_.Add();
      IDBA_LOG_FIELDS(LogLevel::kWarn, "client", "reconnected",
                      {{"client", std::to_string(id_)},
                       {"attempts", std::to_string(attempt + 1)}});
      return Status::OK();
    }
    // Handshake refused — commonly the server has not torn down the dead
    // session yet and still holds our client id. Drop this socket and
    // retry after backoff.
    connected_.store(false);
    sock_.ShutdownBoth();
    if (reader_.joinable()) reader_.join();
  }
  return last;
}

// ---------------------------------------------------------------------------
// Transport plumbing
// ---------------------------------------------------------------------------

Status RemoteDatabaseClient::Hello() {
  std::vector<uint8_t> body;
  Encoder enc(&body);
  enc.PutU64(id_);
  enc.PutU8(static_cast<uint8_t>(opts_.consistency));
  enc.PutU8(wire::kWireVersion);
  std::vector<uint8_t> reply;
  size_t at = 0;
  IDBA_RETURN_NOT_OK(
      Call(wire::Method::kHello, body, &reply, &at, /*count_rpc=*/false));
  Decoder dec(reply.data() + at, reply.size() - at);
  // Decode into a fresh catalog and swap: on Reconnect() the snapshot
  // *replaces* the old one (the server's catalog may have grown while we
  // were gone).
  SchemaCatalog snapshot;
  IDBA_RETURN_NOT_OK(SchemaCatalog::DecodeFrom(&dec, &snapshot));
  schema_ = std::move(snapshot);
  return Status::OK();
}

Status RemoteDatabaseClient::Call(wire::Method method,
                                  const std::vector<uint8_t>& body,
                                  std::vector<uint8_t>* reply, size_t* body_at,
                                  bool count_rpc) {
  if (!connected_.load()) return Status::IOError("not connected");

  // Root span for this API call (child span when already inside a trace,
  // e.g. a session-level span). MethodName returns string literals, so
  // .data() is NUL-terminated. Inactive when sampling is off — the span
  // machinery then costs one thread-local load.
  const char* method_name = wire::MethodName(method).data();
  obs::Span rpc = obs::CurrentContext().valid()
                      ? obs::Span::Start(method_name)
                      : obs::Span::StartRoot(method_name);
  const bool send_trace = rpc.active();

  // Latency decomposition is always recorded (a few steady_clock reads per
  // call), independent of trace sampling.
  obs::RpcPartHistograms& parts =
      obs::GlobalRpcStats().HandleFor(static_cast<int>(method), method_name);
  const int64_t t_start = obs::NowUs();

  std::vector<uint8_t> payload;
  payload.reserve(body.size() + 40);
  Encoder enc(&payload);
  if (send_trace) {
    wire::TraceInfo trace;
    trace.trace_id = rpc.context().trace_id;
    trace.span_id = rpc.context().span_id;
    wire::EncodeTraceInfo(trace, &enc);
  }
  enc.PutU8(static_cast<uint8_t>(method));
  enc.PutI64(clock_.Now());
  payload.insert(payload.end(), body.begin(), body.end());
  const int64_t t_serialized = obs::NowUs();

  PendingCall call;
  call.method = method;
  uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lock(calls_mu_);
    seq = next_seq_++;
    pending_[seq] = &call;
  }
  Status sent = sock_.WriteFrame(write_mu_, wire::FrameType::kRequest, seq,
                                 payload, &bytes_out_, send_trace);
  if (!sent.ok()) {
    std::lock_guard<std::mutex> lock(calls_mu_);
    // The reader may have failed the call (and erased it) concurrently;
    // only report the send error if the call is still ours.
    pending_.erase(seq);
    return sent;
  }
  // Pings answer within the heartbeat interval or the peer is considered
  // half-open; everything else gets the configured RPC deadline.
  int64_t deadline_ms = opts_.rpc_deadline_ms;
  if (method == wire::Method::kPing && opts_.heartbeat_interval_ms > 0) {
    deadline_ms = deadline_ms > 0
                      ? std::min(deadline_ms, opts_.heartbeat_interval_ms)
                      : opts_.heartbeat_interval_ms;
  }
  {
    std::unique_lock<std::mutex> lock(calls_mu_);
    if (deadline_ms > 0) {
      if (!calls_cv_.wait_for(lock, std::chrono::milliseconds(deadline_ms),
                              [&] { return call.done; })) {
        // Deadline missed: disown the correlation id so the late response
        // (if it ever arrives) is dropped by the reader.
        pending_.erase(seq);
        return Status::TimedOut(
            "rpc " + std::string(wire::MethodName(method)) + " missed its " +
            std::to_string(deadline_ms) + " ms deadline");
      }
    } else {
      calls_cv_.wait(lock, [&] { return call.done; });
    }
  }
  IDBA_RETURN_NOT_OK(call.transport);
  const int64_t t_response = obs::NowUs();

  Decoder dec(call.payload.data(), call.payload.size());
  // A traced response opens with the server's TraceInfo echo, carrying the
  // queue-wait/execute split of the server's time on this call.
  wire::TraceInfo resp_trace;
  bool have_server_split = false;
  if (call.traced) {
    have_server_split = wire::DecodeTraceInfo(&dec, &resp_trace).ok();
    if (!have_server_split) resp_trace = wire::TraceInfo{};
  }
  Status remote;
  IDBA_RETURN_NOT_OK(wire::DecodeStatus(&dec, &remote));
  VTime completion = 0;
  IDBA_RETURN_NOT_OK(dec.GetI64(&completion));
  clock_.Observe(completion);
  if (remote.IsOverloaded()) {
    // Admission-control rejection: the body is a retry-after hint (varint
    // ms). Stash it for retry loops (retry_after_hint_ms()).
    overload_rejections_.Add();
    uint64_t hint_ms = 0;
    Decoder hint_dec(call.payload.data() + dec.position(),
                     call.payload.size() - dec.position());
    if (hint_dec.GetVarint(&hint_ms).ok()) {
      retry_after_hint_ms_.store(static_cast<int64_t>(hint_ms),
                                 std::memory_order_relaxed);
    }
  }
  if (count_rpc) rpcs_.Add();
  *body_at = dec.position();
  *reply = std::move(call.payload);
  const int64_t t_decoded = obs::NowUs();

  // Decomposition histograms: serialize / network / queue / execute /
  // deserialize / total. Without a server split (an untraced call), network
  // absorbs the server-side time.
  const int64_t wire_us = t_response - t_serialized;
  int64_t network_us = wire_us;
  if (have_server_split) {
    network_us = std::max<int64_t>(
        wire_us - resp_trace.queue_us - resp_trace.exec_us, 0);
    parts.queue_us->Record(static_cast<double>(resp_trace.queue_us));
    parts.execute_us->Record(static_cast<double>(resp_trace.exec_us));
  }
  parts.serialize_us->Record(static_cast<double>(t_serialized - t_start));
  parts.network_us->Record(static_cast<double>(network_us));
  parts.deserialize_us->Record(static_cast<double>(t_decoded - t_response));
  parts.total_us->Record(static_cast<double>(t_decoded - t_start));

  if (rpc.active()) {
    // Child spans of the call, reconstructed now that the times are known.
    const uint64_t trace_id = rpc.context().trace_id;
    const uint64_t rpc_span = rpc.context().span_id;
    EmitSpan(trace_id, rpc_span, "client.serialize", t_start,
             t_serialized - t_start);
    const uint64_t net_span = EmitSpan(trace_id, rpc_span, "client.network",
                                       t_serialized, wire_us);
    if (have_server_split) {
      // Synthesized from the response's TraceInfo so a single client-side
      // trace shows the full decomposition; the server's own recorder holds
      // the authoritative server.queue/server.execute spans (TRACE_DUMP).
      // Centered in the network window — their wall offsets are unknown.
      const int64_t server_us = resp_trace.queue_us + resp_trace.exec_us;
      const int64_t queue_start =
          t_serialized + std::max<int64_t>((wire_us - server_us) / 2, 0);
      EmitSpan(trace_id, net_span, "server.queue", queue_start,
               resp_trace.queue_us);
      EmitSpan(trace_id, net_span, "server.execute",
               queue_start + resp_trace.queue_us, resp_trace.exec_us);
    }
    EmitSpan(trace_id, rpc_span, "client.deserialize", t_response,
             t_decoded - t_response);
  }
  return remote;
}

template <typename T>
Result<T> RemoteDatabaseClient::CallFor(wire::Method method,
                                        const std::vector<uint8_t>& body,
                                        Status (*decode)(Decoder*, T*)) {
  std::vector<uint8_t> reply;
  size_t at = 0;
  IDBA_RETURN_NOT_OK(Call(method, body, &reply, &at));
  Decoder dec(reply.data() + at, reply.size() - at);
  T out;
  IDBA_RETURN_NOT_OK(decode(&dec, &out));
  return out;
}

void RemoteDatabaseClient::SendOneWay(wire::Method method,
                                      const std::vector<uint8_t>& body) {
  if (!connected_.load() || shutting_down_.load()) return;
  std::vector<uint8_t> payload;
  payload.reserve(body.size() + 16);
  Encoder enc(&payload);
  enc.PutU8(static_cast<uint8_t>(method));
  enc.PutI64(clock_.Now());
  payload.insert(payload.end(), body.begin(), body.end());
  uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lock(calls_mu_);
    seq = next_seq_++;
  }
  (void)sock_.WriteFrame(write_mu_, wire::FrameType::kOneWay, seq, payload,
                         &bytes_out_);
}

void RemoteDatabaseClient::FailAllPending(const Status& st) {
  const bool shutdown = shutting_down_.load();
  std::lock_guard<std::mutex> lock(calls_mu_);
  for (auto& [seq, call] : pending_) {
    if (!shutdown && (call->method == wire::Method::kCommit ||
                      call->method == wire::Method::kCommitValidated)) {
      // The commit request may have reached the server and applied before
      // the connection broke — its outcome is genuinely indeterminate.
      // Surface that explicitly so retry layers re-run read-modify-write
      // bodies instead of assuming the commit failed.
      call->transport = Status::Unknown(
          "connection lost with commit in flight; outcome unknown");
    } else {
      call->transport = st.ok() ? Status::IOError("connection closed") : st;
    }
    call->done = true;
  }
  pending_.clear();
  calls_cv_.notify_all();
}

void RemoteDatabaseClient::HeartbeatLoop() {
  const auto interval =
      std::chrono::milliseconds(opts_.heartbeat_interval_ms);
  std::unique_lock<std::mutex> lock(hb_mu_);
  while (!shutting_down_.load()) {
    hb_cv_.wait_for(lock, interval, [&] { return shutting_down_.load(); });
    if (shutting_down_.load()) return;
    if (!connected_.load()) continue;  // Reconnect() is the user's call
    lock.unlock();
    heartbeats_.Add();
    std::vector<uint8_t> reply;
    size_t at = 0;
    Status st =
        Call(wire::Method::kPing, {}, &reply, &at, /*count_rpc=*/false);
    if (st.IsTimedOut()) {
      // Half-open connection: the peer stopped answering but TCP has not
      // noticed. Kill the socket so every blocked caller fails fast and
      // connected() reads false.
      IDBA_LOG_FIELDS(LogLevel::kWarn, "client",
                      "heartbeat missed; marking connection dead",
                      {{"client", std::to_string(id_)}});
      connected_.store(false);
      sock_.ShutdownBoth();
    }
    lock.lock();
  }
}

void RemoteDatabaseClient::ReaderLoop() {
  Status st;
  for (;;) {
    wire::FrameHeader header;
    std::vector<uint8_t> payload;
    st = sock_.ReadFrame(&header, &payload, &bytes_in_);
    if (!st.ok()) break;
    switch (header.type) {
      case wire::FrameType::kResponse: {
        std::lock_guard<std::mutex> lock(calls_mu_);
        auto it = pending_.find(header.seq);
        if (it != pending_.end()) {
          it->second->payload = std::move(payload);
          it->second->traced = header.traced;
          it->second->done = true;
          pending_.erase(it);
          calls_cv_.notify_all();
        }
        break;
      }
      case wire::FrameType::kNotify: {
        Decoder dec(payload.data(), payload.size());
        wire::TraceInfo trace;
        if (header.traced && !wire::DecodeTraceInfo(&dec, &trace).ok()) break;
        wire::NotifyFrame frame;
        if (!wire::DecodeNotifyMeta(&dec, &frame).ok()) break;
        Envelope env;
        env.from = frame.from;
        env.to = frame.to;
        env.sent_at = frame.sent_at;
        env.arrives_at = frame.arrives_at;
        env.wire_bytes = frame.virtual_wire_bytes;
        // Carry the committing writer's context so the DLC dispatch and
        // display refresh join the writer's trace.
        env.trace_id = trace.trace_id;
        env.trace_span = trace.span_id;
        if (frame.kind == wire::NotifyKind::kUpdate) {
          auto msg = std::make_shared<UpdateNotifyMessage>();
          if (!UpdateNotifyMessage::DecodeFrom(&dec, msg.get()).ok()) break;
          obs::ConsistencyAuditor& auditor = obs::GlobalAuditor();
          if (auditor.enabled() && msg->committed) {
            // Transport-level monotonicity: commit vtimes for one OID must
            // arrive in commit order even before any display pump runs
            // (obligations are only opened at DLC dispatch).
            std::vector<uint64_t> oids;
            oids.reserve(msg->updated.size() + msg->erased.size());
            for (Oid oid : msg->updated) oids.push_back(oid.value);
            for (Oid oid : msg->erased) oids.push_back(oid.value);
            auditor.OnNotifyReceived(id_, oids.data(), oids.size(),
                                     msg->commit_vtime, env.trace_id);
          }
          env.msg = std::move(msg);
        } else if (frame.kind == wire::NotifyKind::kResync) {
          // The server shed our notification stream: cached copies may
          // have missed invalidations (elided callbacks), so drop the
          // whole object cache *before* the DLC pump sees the resync —
          // its display refetches then go to the server.
          auto msg = std::make_shared<ResyncNotifyMessage>();
          if (!ResyncNotifyMessage::DecodeFrom(&dec, msg.get()).ok()) break;
          resyncs_received_.Add();
          cache_.Clear();
          // Confirm before the pump refetches anything: the ack goes out on
          // this (reader) thread, so any refetch RPC a pump or user thread
          // issues afterwards reaches the server behind it — copies those
          // refetches register are protected by live callbacks again.
          (void)sock_.WriteFrame(write_mu_, wire::FrameType::kResyncAck,
                                 header.seq, {}, &bytes_out_);
          env.msg = std::move(msg);
        } else {
          auto msg = std::make_shared<IntentNotifyMessage>();
          if (!IntentNotifyMessage::DecodeFrom(&dec, msg.get()).ok()) break;
          env.msg = std::move(msg);
        }
        notify_frames_.Add();
        inbox_.Deliver(std::move(env));
        break;
      }
      case wire::FrameType::kCallback: {
        // Synchronous cache invalidation: the server's committing client is
        // blocked until our ack. Handled here on the reader thread — which
        // never issues RPCs of its own — so the ack flows even while this
        // client's user thread is blocked inside its own Commit().
        Decoder dec(payload.data(), payload.size());
        wire::TraceInfo trace;
        if (header.traced && !wire::DecodeTraceInfo(&dec, &trace).ok()) {
          trace = wire::TraceInfo{};
        }
        uint64_t oid = 0, version = 0;
        if (dec.GetU64(&oid).ok() && dec.GetU64(&version).ok()) {
          obs::Span span = obs::Span::StartChildOf(
              {trace.trace_id, trace.span_id}, "client.invalidate");
          // An invalidation proves `version` committed: raise the
          // auditor's coherence floor (~0 marks an erase — no floor).
          if (version != ~0ULL) {
            obs::GlobalAuditor().OnVersionCommitted(id_, oid, version);
          }
          cache_.InvalidateCached(Oid(oid), version);
          callback_frames_.Add();
        }
        (void)sock_.WriteFrame(write_mu_, wire::FrameType::kCallbackAck,
                               header.seq, {}, &bytes_out_);
        break;
      }
      default:
        break;  // server never sends REQUEST/ONEWAY; ignore
    }
  }
  connected_.store(false);
  FailAllPending(shutting_down_.load() ? Status::IOError("client shut down")
                                       : st);
  // Keep the inbox open across a disconnect: a Reconnect()ed session keeps
  // using it, and the DLC pump tolerates an idle one. It closes for good
  // at destruction.
  if (shutting_down_.load()) inbox_.Close();
}

// ---------------------------------------------------------------------------
// ClientApi
// ---------------------------------------------------------------------------

Result<ClassId> RemoteDatabaseClient::DefineClass(const std::string& name,
                                                  ClassId base) {
  std::vector<uint8_t> body;
  Encoder enc(&body);
  enc.PutString(name);
  enc.PutU32(base);
  std::vector<uint8_t> reply;
  size_t at = 0;
  IDBA_RETURN_NOT_OK(Call(wire::Method::kDefineClass, body, &reply, &at,
                          /*count_rpc=*/false));
  Decoder dec(reply.data() + at, reply.size() - at);
  ClassId remote_id = 0;
  IDBA_RETURN_NOT_OK(dec.GetU32(&remote_id));
  // Replay into the local catalog so class ids (and object layouts) match
  // the server's exactly.
  IDBA_ASSIGN_OR_RETURN(ClassId local_id, schema_.DefineClass(name, base));
  if (local_id != remote_id) {
    return Status::Internal("schema divergence: server assigned class " +
                            std::to_string(remote_id) + ", local replay " +
                            std::to_string(local_id));
  }
  return remote_id;
}

Status RemoteDatabaseClient::AddAttribute(ClassId cls, const std::string& name,
                                          ValueType type,
                                          Value default_value) {
  std::vector<uint8_t> body;
  Encoder enc(&body);
  enc.PutU32(cls);
  enc.PutString(name);
  enc.PutU8(static_cast<uint8_t>(type));
  default_value.EncodeTo(&enc);
  std::vector<uint8_t> reply;
  size_t at = 0;
  IDBA_RETURN_NOT_OK(Call(wire::Method::kAddAttribute, body, &reply, &at,
                          /*count_rpc=*/false));
  return schema_.AddAttribute(cls, name, type, std::move(default_value));
}

Result<TxnId> RemoteDatabaseClient::BeginTxn() {
  std::vector<uint8_t> reply;
  size_t at = 0;
  IDBA_RETURN_NOT_OK(
      Call(wire::Method::kBegin, {}, &reply, &at, /*count_rpc=*/false));
  Decoder dec(reply.data() + at, reply.size() - at);
  uint64_t txn = 0;
  IDBA_RETURN_NOT_OK(dec.GetU64(&txn));
  if (txn == 0) return Status::Internal("server assigned txn id 0");
  return txn;
}

Status RemoteDatabaseClient::Write(TxnId txn, DatabaseObject obj) {
  std::vector<uint8_t> body;
  Encoder enc(&body);
  enc.PutU64(txn);
  obj.EncodeTo(&enc);
  std::vector<uint8_t> reply;
  size_t at = 0;
  return Call(wire::Method::kPut, body, &reply, &at);
}

Status RemoteDatabaseClient::Insert(TxnId txn, DatabaseObject obj) {
  std::vector<uint8_t> body;
  Encoder enc(&body);
  enc.PutU64(txn);
  obj.EncodeTo(&enc);
  std::vector<uint8_t> reply;
  size_t at = 0;
  return Call(wire::Method::kInsert, body, &reply, &at);
}

Status RemoteDatabaseClient::EraseObject(TxnId txn, Oid oid) {
  std::vector<uint8_t> body;
  Encoder enc(&body);
  enc.PutU64(txn);
  enc.PutU64(oid.value);
  std::vector<uint8_t> reply;
  size_t at = 0;
  return Call(wire::Method::kErase, body, &reply, &at);
}

Status RemoteDatabaseClient::LockForReadCall(TxnId txn, Oid oid) {
  std::vector<uint8_t> body;
  Encoder enc(&body);
  enc.PutU64(txn);
  enc.PutU64(oid.value);
  std::vector<uint8_t> reply;
  size_t at = 0;
  return Call(wire::Method::kLockForRead, body, &reply, &at);
}

Result<DatabaseObject> RemoteDatabaseClient::FetchCall(TxnId txn, Oid oid) {
  std::vector<uint8_t> body;
  Encoder enc(&body);
  enc.PutU64(txn);
  enc.PutU64(oid.value);
  return CallFor(wire::Method::kFetch, body, &DatabaseObject::DecodeFrom);
}

Result<DatabaseObject> RemoteDatabaseClient::FetchCurrentCall(
    Oid oid, bool register_copy) {
  std::vector<uint8_t> body;
  Encoder enc(&body);
  enc.PutU64(oid.value);
  enc.PutU8(register_copy ? 1 : 0);
  return CallFor(wire::Method::kFetchCurrent, body,
                 &DatabaseObject::DecodeFrom);
}

Result<CommitResult> RemoteDatabaseClient::CommitCall(TxnId txn,
                                                      const ReadSet* read_set) {
  std::vector<uint8_t> body;
  Encoder enc(&body);
  enc.PutU64(txn);
  if (read_set != nullptr) wire::EncodeReadSet(*read_set, &enc);
  return CallFor(read_set != nullptr ? wire::Method::kCommitValidated
                                     : wire::Method::kCommit,
                 body, &wire::DecodeCommitResult);
}

Status RemoteDatabaseClient::AbortCall(TxnId txn) {
  std::vector<uint8_t> body;
  Encoder enc(&body);
  enc.PutU64(txn);
  std::vector<uint8_t> reply;
  size_t at = 0;
  return Call(wire::Method::kAbort, body, &reply, &at);
}

Result<std::vector<DatabaseObject>> RemoteDatabaseClient::ScanCall(
    ClassId cls, bool include_subclasses) {
  std::vector<uint8_t> body;
  Encoder enc(&body);
  enc.PutU32(cls);
  enc.PutU8(include_subclasses ? 1 : 0);
  return CallFor(wire::Method::kScanClass, body, &wire::DecodeObjectVector);
}

Result<std::vector<DatabaseObject>> RemoteDatabaseClient::QueryCall(
    const ObjectQuery& query) {
  std::vector<uint8_t> body;
  Encoder enc(&body);
  query.EncodeTo(&enc);
  return CallFor(wire::Method::kQuery, body, &wire::DecodeObjectVector);
}

Result<Oid> RemoteDatabaseClient::NewOid() {
  std::vector<uint8_t> reply;
  size_t at = 0;
  IDBA_RETURN_NOT_OK(
      Call(wire::Method::kAllocateOid, {}, &reply, &at, /*count_rpc=*/false));
  Decoder dec(reply.data() + at, reply.size() - at);
  uint64_t oid = 0;
  IDBA_RETURN_NOT_OK(dec.GetU64(&oid));
  if (oid == 0) return Status::Internal("server allocated the null oid");
  return Oid(oid);
}

Result<uint64_t> RemoteDatabaseClient::LatestVersion(Oid oid) {
  std::vector<uint8_t> body;
  Encoder enc(&body);
  enc.PutU64(oid.value);
  std::vector<uint8_t> reply;
  size_t at = 0;
  IDBA_RETURN_NOT_OK(Call(wire::Method::kGetVersion, body, &reply, &at,
                          /*count_rpc=*/false));
  Decoder dec(reply.data() + at, reply.size() - at);
  uint64_t version = 0;
  IDBA_RETURN_NOT_OK(dec.GetU64(&version));
  return version;
}

// ---------------------------------------------------------------------------
// DisplayLockService
// ---------------------------------------------------------------------------

Status RemoteDatabaseClient::Lock(ClientId holder, Oid oid, VTime sent_at) {
  std::vector<uint8_t> body;
  Encoder enc(&body);
  enc.PutI64(sent_at);
  enc.PutU64(holder);
  enc.PutU64(oid.value);
  std::vector<uint8_t> reply;
  size_t at = 0;
  Status st =
      Call(wire::Method::kDlmLock, body, &reply, &at, /*count_rpc=*/false);
  if (st.ok()) {
    std::lock_guard<std::mutex> lock(held_mu_);
    held_display_locks_.insert(oid);
  }
  return st;
}

Status RemoteDatabaseClient::Unlock(ClientId holder, Oid oid, VTime sent_at) {
  std::vector<uint8_t> body;
  Encoder enc(&body);
  enc.PutI64(sent_at);
  enc.PutU64(holder);
  enc.PutU64(oid.value);
  // Dropped from the held set even if the RPC fails: the caller no longer
  // wants notifications for this object, so a failed unlock must not be
  // resurrected by a later Reconnect() replay.
  {
    std::lock_guard<std::mutex> lock(held_mu_);
    held_display_locks_.erase(oid);
  }
  std::vector<uint8_t> reply;
  size_t at = 0;
  return Call(wire::Method::kDlmUnlock, body, &reply, &at,
              /*count_rpc=*/false);
}

Status RemoteDatabaseClient::LockBatch(ClientId holder,
                                       const std::vector<Oid>& oids,
                                       VTime sent_at) {
  std::vector<uint8_t> body;
  Encoder enc(&body);
  enc.PutI64(sent_at);
  enc.PutU64(holder);
  wire::EncodeOidVector(oids, &enc);
  std::vector<uint8_t> reply;
  size_t at = 0;
  Status st = Call(wire::Method::kDlmLockBatch, body, &reply, &at,
                   /*count_rpc=*/false);
  if (st.ok()) {
    std::lock_guard<std::mutex> lock(held_mu_);
    held_display_locks_.insert(oids.begin(), oids.end());
  }
  return st;
}

Status RemoteDatabaseClient::UnlockBatch(ClientId holder,
                                         const std::vector<Oid>& oids,
                                         VTime sent_at) {
  std::vector<uint8_t> body;
  Encoder enc(&body);
  enc.PutI64(sent_at);
  enc.PutU64(holder);
  wire::EncodeOidVector(oids, &enc);
  {
    std::lock_guard<std::mutex> lock(held_mu_);
    for (Oid oid : oids) held_display_locks_.erase(oid);
  }
  std::vector<uint8_t> reply;
  size_t at = 0;
  return Call(wire::Method::kDlmUnlockBatch, body, &reply, &at,
              /*count_rpc=*/false);
}

size_t RemoteDatabaseClient::held_display_locks() const {
  std::lock_guard<std::mutex> lock(held_mu_);
  return held_display_locks_.size();
}

Status RemoteDatabaseClient::ReplayDisplayLocks() {
  // A reconnected session may face a *restarted* server whose virtual
  // clocks (and re-seeded object versions) start over below our old
  // watermarks. Forget everything audited about this subscriber BEFORE the
  // replayed registrations let new notifications flow — watermarks are
  // reset, not replayed, so post-restart vtimes are not false regressions.
  obs::GlobalAuditor().OnSessionReset(id_);
  std::vector<Oid> held;
  {
    std::lock_guard<std::mutex> lock(held_mu_);
    held.assign(held_display_locks_.begin(), held_display_locks_.end());
  }
  if (!held.empty()) {
    std::vector<uint8_t> body;
    Encoder enc(&body);
    enc.PutI64(clock_.Now());
    enc.PutU64(id_);
    wire::EncodeOidVector(held, &enc);
    std::vector<uint8_t> reply;
    size_t at = 0;
    IDBA_RETURN_NOT_OK(Call(wire::Method::kDlmReregister, body, &reply, &at,
                            /*count_rpc=*/false));
  }
  // Updates committed while we were disconnected produced no notifications
  // for us: force every display through the resync path (full refetch),
  // exactly as if the server had shed our stream.
  auto msg = std::make_shared<ResyncNotifyMessage>();
  msg->resync_vtime = clock_.Now();
  Envelope env;
  env.from = 0;
  env.to = id_;
  env.sent_at = msg->resync_vtime;
  env.arrives_at = msg->resync_vtime;
  env.wire_bytes = msg->WireBytes();
  env.msg = std::move(msg);
  inbox_.Deliver(std::move(env));
  return Status::OK();
}

}  // namespace idba
