#include "net/admin.h"

#include <cstdio>

#include "net/tcp_server.h"
#include "obs/audit.h"
#include "obs/flight.h"
#include "obs/profiler.h"
#include "obs/prom_export.h"
#include "obs/trace.h"

namespace idba {
namespace admin {

const char* VerbName(uint8_t verb) {
  switch (static_cast<Verb>(verb)) {
    case Verb::kStats: return "Stats";
    case Verb::kTraceDump: return "TraceDump";
    case Verb::kMetrics: return "Metrics";
    case Verb::kLocks: return "Locks";
    case Verb::kCaches: return "Caches";
    case Verb::kFlight: return "Flight";
    case Verb::kProfile: return "Profile";
    case Verb::kAudit: return "Audit";
  }
  return nullptr;
}

Status Execute(const TransportServer& transport, Decoder* dec,
               std::string* out) {
  uint8_t verb = 0;
  IDBA_RETURN_NOT_OK(dec->GetU8(&verb));
  switch (static_cast<Verb>(verb)) {
    case Verb::kStats:
      *out = StatsJson(transport);
      return Status::OK();
    case Verb::kTraceDump: {
      uint8_t format = 0, clear = 0;
      if (dec->remaining() > 0) IDBA_RETURN_NOT_OK(dec->GetU8(&format));
      if (dec->remaining() > 0) IDBA_RETURN_NOT_OK(dec->GetU8(&clear));
      obs::TraceRecorder& rec = obs::GlobalRecorder();
      *out = format == 1 ? rec.DumpJsonl() : rec.DumpChromeTrace();
      if (clear != 0) rec.Clear();
      return Status::OK();
    }
    case Verb::kMetrics: {
      uint8_t format = 0;
      if (dec->remaining() > 0) IDBA_RETURN_NOT_OK(dec->GetU8(&format));
      *out = format == 1 ? GlobalMetrics().DumpJson()
                         : obs::PromExport(GlobalMetrics());
      return Status::OK();
    }
    case Verb::kLocks: {
      uint8_t top_k = 0;
      if (dec->remaining() > 0) IDBA_RETURN_NOT_OK(dec->GetU8(&top_k));
      *out = LocksJson(transport, top_k == 0 ? 10 : top_k);
      return Status::OK();
    }
    case Verb::kCaches:
      *out = CachesJson(transport);
      return Status::OK();
    case Verb::kFlight:
      *out = obs::FlightDumpString();
      return Status::OK();
    case Verb::kProfile: {
      uint8_t action = 0;  // 0 status, 1 start, 2 stop, 3 folded stacks
      uint32_t hz = 0;
      if (dec->remaining() > 0) IDBA_RETURN_NOT_OK(dec->GetU8(&action));
      if (action == 1 && dec->remaining() > 0) {
        IDBA_RETURN_NOT_OK(dec->GetU32(&hz));
      }
      obs::Profiler& prof = obs::GlobalProfiler();
      if (action == 1 && !prof.Start(static_cast<int>(hz == 0 ? 99 : hz))) {
        return Status::InvalidArgument("profiler already running");
      }
      if (action == 2) prof.Stop();
      *out = action == 3 ? prof.DumpFolded() : prof.StatusLine();
      return Status::OK();
    }
    case Verb::kAudit:
      *out = obs::GlobalAuditor().ReportJson();
      return Status::OK();
  }
  return Status::InvalidArgument("unknown admin verb " + std::to_string(verb));
}

namespace {

void AppendSlowRpcJson(std::string& out,
                       const std::vector<TransportServer::SlowRpc>& slow) {
  out += "\"slow_rpcs\":[";
  bool first = true;
  for (const auto& s : slow) {
    if (!first) out += ',';
    first = false;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "{\"method\":\"%s\",\"client\":%llu,\"duration_us\":%lld,"
                  "\"trace_id\":\"%llx\"}",
                  s.method.c_str(), static_cast<unsigned long long>(s.client),
                  static_cast<long long>(s.duration_us),
                  static_cast<unsigned long long>(s.trace_id));
    out += buf;
  }
  out += ']';
}

/// `{"oid":N,"holders":[...]}` rows of the DLM display-lock table.
void AppendDlmTable(std::string& out, const DisplayLockManager& dlm) {
  bool first = true;
  for (const auto& entry : dlm.TableSnapshot()) {
    if (!first) out += ',';
    first = false;
    out += "{\"oid\":" + std::to_string(entry.oid.value) + ",\"holders\":[";
    for (size_t i = 0; i < entry.holders.size(); ++i) {
      if (i) out += ',';
      out += std::to_string(entry.holders[i]);
    }
    out += "]}";
  }
}

}  // namespace

std::string StatsJson(const TransportServer& t) {
  std::string out = "{\"transport\":{";
  out += "\"connections_accepted\":" + std::to_string(t.connections_accepted());
  out += ",\"requests_served\":" + std::to_string(t.requests_served());
  out += ",\"notifications_forwarded\":" +
         std::to_string(t.notifications_forwarded());
  out += ",\"bytes_in\":" + std::to_string(t.bytes_received());
  out += ",\"bytes_out\":" + std::to_string(t.bytes_sent());
  out += ",\"io_threads\":" + std::to_string(t.io_threads());
  out += ",\"worker_threads\":" + std::to_string(t.worker_threads());
  out += ",\"fanout_encodes\":" + std::to_string(t.fanout_encodes());
  out += ",\"fanout_reuses\":" + std::to_string(t.fanout_reuses());
  out += "},\"overload\":{";
  out += "\"inflight\":" + std::to_string(t.inflight());
  out += ",\"overload_rejections\":" + std::to_string(t.overload_rejections());
  out += ",\"oneway_shed\":" + std::to_string(t.oneway_shed());
  out += ",\"notifications_coalesced\":" +
         std::to_string(t.notifications_coalesced());
  out += ",\"notifications_shed\":" + std::to_string(t.notifications_shed());
  out += ",\"notify_overflows\":" + std::to_string(t.notify_overflows());
  out += ",\"forced_resyncs\":" + std::to_string(t.forced_resyncs());
  out += ",\"callbacks_elided\":" + std::to_string(t.callbacks_elided());
  out += ",\"callback_ack_timeouts\":" +
         std::to_string(t.callback_ack_timeouts());
  out += ",\"callback_overflows\":" + std::to_string(t.callback_overflows());
  out += "},\"sessions\":[";
  bool first = true;
  for (const TransportServer::SessionStats& s : t.Sessions()) {
    if (!first) out += ',';
    first = false;
    out += "{\"client\":" + std::to_string(s.client) +
           ",\"notify_pending\":" + std::to_string(s.notify_pending) +
           ",\"notify_coalesced\":" + std::to_string(s.notify_coalesced) +
           ",\"notify_shed\":" + std::to_string(s.notify_shed) +
           ",\"notify_overflows\":" + std::to_string(s.notify_overflows) +
           ",\"forced_resyncs\":" + std::to_string(s.forced_resyncs) +
           ",\"callbacks_pending\":" + std::to_string(s.callbacks_pending) +
           ",\"stale\":" + (s.stale ? std::string("true") : "false") + "}";
  }
  out += "],\"dlm\":{";
  if (const DisplayLockManager* dlm = t.dlm(); dlm != nullptr) {
    out += "\"locked_objects\":" + std::to_string(dlm->locked_object_count());
    out += ",\"lock_requests\":" + std::to_string(dlm->lock_requests());
    out += ",\"unlock_requests\":" + std::to_string(dlm->unlock_requests());
    out += ",\"update_notifications\":" +
           std::to_string(dlm->update_notifications());
    out += ",\"intent_notifications\":" +
           std::to_string(dlm->intent_notifications());
    out += ",\"table\":[";
    AppendDlmTable(out, *dlm);
    out += ']';
  }
  out += "},\"wal\":{";
  Wal& wal = t.server()->wal();
  out += "\"durable_lsn\":" + std::to_string(wal.durable_lsn());
  out += ",\"next_lsn\":" + std::to_string(wal.next_lsn());
  out += ",\"appended_bytes\":" + std::to_string(wal.appended_bytes());
  out += ",\"fsyncs\":" + std::to_string(wal.fsyncs());
  out += ",\"recovered_records\":" + std::to_string(wal.recovered_records());
  out += ",\"group_commit_window_us\":" +
         std::to_string(wal.group_commit_window_us());
  out += ",\"truncate_below_lsn\":" + std::to_string(wal.truncate_below_lsn());
  out += ",\"bytes_since_checkpoint\":" +
         std::to_string(wal.bytes_since_truncate());
  out += ",\"checksum_failures\":" +
         std::to_string(GlobalMetrics()
                            .GetCounter("storage.page.checksum_failures_total")
                            ->Get());
  if (const Checkpointer* cp = t.checkpointer(); cp != nullptr) {
    Checkpointer::Stats cs = cp->stats();
    out += ",\"checkpoints\":" + std::to_string(cs.checkpoints);
    out += ",\"checkpoint_failures\":" + std::to_string(cs.failures);
    out += ",\"last_checkpoint_lsn\":" + std::to_string(cs.last_fence_lsn);
    out += ",\"last_checkpoint_age_us\":" +
           std::to_string(cs.last_checkpoint_us > 0
                              ? obs::NowUs() - cs.last_checkpoint_us
                              : -1);
    out += ",\"last_checkpoint_pages\":" +
           std::to_string(cs.last_pages_written);
    out += ",\"last_checkpoint_bytes_truncated\":" +
           std::to_string(cs.last_bytes_truncated);
  }
  out += "},";
  AppendSlowRpcJson(out, t.SlowRpcLog());
  out += ",\"trace\":{\"retained_spans\":" +
         std::to_string(obs::GlobalRecorder().Snapshot().size()) +
         ",\"dropped_spans\":" + std::to_string(obs::GlobalRecorder().dropped()) +
         "},";
  out += "\"metrics\":" + GlobalMetrics().DumpJson();
  out += '}';
  return out;
}

std::string LocksJson(const TransportServer& t, size_t top_k) {
  const LockManager& lm = t.server()->lock_manager();
  const LockManager::TableDump dump = lm.DumpTable(top_k);
  std::string out = "{\"lock_table\":[";
  bool first = true;
  for (const auto& e : dump.entries) {
    if (!first) out += ',';
    first = false;
    out += "{\"oid\":" + std::to_string(e.oid.value) + ",\"granted\":[";
    for (size_t i = 0; i < e.granted.size(); ++i) {
      if (i) out += ',';
      out += "{\"owner\":" + std::to_string(e.granted[i].owner) +
             ",\"mode\":\"" + std::string(LockModeName(e.granted[i].mode)) +
             "\"}";
    }
    out += "],\"waiting\":[";
    for (size_t i = 0; i < e.waiting.size(); ++i) {
      if (i) out += ',';
      out += "{\"owner\":" + std::to_string(e.waiting[i].owner) +
             ",\"mode\":\"" + std::string(LockModeName(e.waiting[i].mode)) +
             "\",\"upgrade\":" + (e.waiting[i].is_upgrade ? "true" : "false") +
             ",\"waited_us\":" + std::to_string(e.waiting[i].waited_us) + "}";
    }
    out += "]}";
  }
  out += "],\"wait_edges\":[";
  first = true;
  for (const auto& edge : dump.wait_edges) {
    if (!first) out += ',';
    first = false;
    out += "{\"waiter\":" + std::to_string(edge.waiter) +
           ",\"holder\":" + std::to_string(edge.holder) +
           ",\"oid\":" + std::to_string(edge.oid.value) + "}";
  }
  out += "],\"top_contended\":[";
  first = true;
  for (const auto& hot : dump.top_contended) {
    if (!first) out += ',';
    first = false;
    out += "{\"oid\":" + std::to_string(hot.oid.value) +
           ",\"cumulative_wait_us\":" + std::to_string(hot.cumulative_wait_us) +
           ",\"waits\":" + std::to_string(hot.waits) + "}";
  }
  out += "],\"counters\":{";
  out += "\"grants\":" + std::to_string(lm.grants());
  out += ",\"waits\":" + std::to_string(lm.waits());
  out += ",\"deadlocks\":" + std::to_string(lm.deadlocks());
  out += ",\"timeouts\":" + std::to_string(lm.timeouts());
  out += "},\"display_locks\":[";
  if (t.dlm() != nullptr) AppendDlmTable(out, *t.dlm());
  out += "]}";
  return out;
}

std::string CachesJson(const TransportServer& t) {
  char buf[64];
  DatabaseServer& server = *t.server();
  const DisplayLockManager* dlm = t.dlm();
  // Page level: the server's own buffer pool.
  const BufferPool& pool = server.buffer_pool();
  const BufferPool::PoolStats ps = pool.Stats();
  std::string out = "{\"page\":{";
  out += "\"frame_count\":" + std::to_string(ps.frame_count);
  out += ",\"resident\":" + std::to_string(ps.resident);
  out += ",\"dirty\":" + std::to_string(ps.dirty);
  out += ",\"pinned\":" + std::to_string(ps.pinned);
  std::snprintf(buf, sizeof(buf), ",\"dirty_ratio\":%.4f",
                ps.resident > 0 ? double(ps.dirty) / double(ps.resident) : 0.0);
  out += buf;
  out += ",\"hits\":" + std::to_string(pool.hits());
  out += ",\"misses\":" + std::to_string(pool.misses());
  out += ",\"evictions\":" + std::to_string(pool.evictions());
  const uint64_t page_total = pool.hits() + pool.misses();
  std::snprintf(buf, sizeof(buf), ",\"hit_rate\":%.4f",
                page_total > 0 ? double(pool.hits()) / double(page_total) : 0.0);
  out += buf;
  // Object level: the server cannot see inside remote caches, but its
  // callback registry is the authoritative map of who holds what.
  out += "},\"object\":{\"copies_by_client\":{";
  bool first = true;
  for (const auto& [client, count] :
       server.callback_manager().CopyCountsByClient()) {
    if (!first) out += ',';
    first = false;
    out += '"' + std::to_string(client) + "\":" + std::to_string(count);
  }
  out += "},\"callbacks_issued\":" +
         std::to_string(server.callback_manager().callbacks_issued());
  // Display level: per-client pinned-view subscriptions via D locks.
  out += "},\"display\":{\"subscriptions_by_client\":{";
  first = true;
  if (dlm != nullptr) {
    for (const auto& [client, count] : dlm->HolderCounts()) {
      if (!first) out += ',';
      first = false;
      out += '"' + std::to_string(client) + "\":" + std::to_string(count);
    }
  }
  out += "},\"locked_objects\":" +
         std::to_string(dlm != nullptr ? dlm->locked_object_count() : 0);
  // Registry aggregates: every cache.* series (counters and gauges), which
  // also covers in-process clients' object/display caches.
  out += "},\"registry\":{";
  first = true;
  for (const auto& [name, value] : GlobalMetrics().CounterSnapshot()) {
    if (name.rfind("cache.", 0) != 0) continue;
    if (!first) out += ',';
    first = false;
    out += '"' + name + "\":" + std::to_string(value);
  }
  for (const auto& [name, value] : GlobalMetrics().GaugeSnapshot()) {
    if (name.rfind("cache.", 0) != 0) continue;
    if (!first) out += ',';
    first = false;
    std::snprintf(buf, sizeof(buf), "%.3f", value);
    out += '"' + name + "\":" + buf;
  }
  out += "}}";
  return out;
}

}  // namespace admin
}  // namespace idba
