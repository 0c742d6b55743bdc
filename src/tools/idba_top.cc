// idba_top: refreshing terminal dashboard for a running idba_serve.
//
//   ./idba_top --connect 127.0.0.1:7450                # refresh every 2 s
//   ./idba_top --connect 127.0.0.1:7450 --interval 5
//   ./idba_top --connect 127.0.0.1:7450 --count 10     # exit after 10 frames
//   ./idba_top --connect 127.0.0.1:7450 --once         # one frame, no ANSI
//
// Each frame scrapes the ADMIN METRICS verb (Prometheus text — the same
// bytes a scraper sees over --prom-port) and renders per-interval deltas:
// RPC rates with per-opcode p50/p99, transport throughput, per-I/O-loop
// reactor health (wakeups/s, task-dispatch lag p99, connection count),
// cache hit rates, lock-manager activity and overload-shedding counters. The first
// frame after connect shows since-boot totals; every later frame shows the
// interval window. --once prints the totals frame and exits (used by the
// smoke test and handy for cron snapshots).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "tools/admin_call.h"
#include "tools/prom_text.h"

namespace {

using idba::Encoder;
using idba::Socket;
using idba::Status;
using idba::tools::AdminCall;
using idba::tools::ExtractHistogram;
using idba::tools::ParsePromText;
using idba::tools::PromHistogram;
using idba::tools::PromSamples;
using idba::tools::QuantileOfDelta;
using idba::tools::SampleOr0;

struct RpcRow {
  std::string opcode;
  double calls = 0;
  double p50 = 0;
  double p99 = 0;
};

double DeltaOf(const PromSamples& cur, const PromSamples& prev,
               const std::string& key) {
  const double d = SampleOr0(cur, key) - SampleOr0(prev, key);
  return d > 0 ? d : 0;
}

/// Renders one frame. `prev` is empty on the first frame, which turns every
/// delta into a since-boot total (interval_s is then the sentinel 0 and
/// rates are suppressed).
void RenderFrame(const std::string& target, const PromSamples& cur,
                 const PromSamples& prev, double interval_s, int frame) {
  const bool windowed = interval_s > 0;
  std::printf("idba_top — %s    %s    frame %d\n", target.c_str(),
              windowed
                  ? ("window " + std::to_string(static_cast<long>(interval_s)) +
                     "s")
                        .c_str()
                  : "since boot",
              frame);

  // --- RPC: one row per opcode with recorded server-side latency ---------
  std::vector<RpcRow> rows;
  const std::string prefix = "idba_rpc_";
  const std::string suffix = "_total_us_count";
  for (const auto& [key, value] : cur) {
    if (key.compare(0, prefix.size(), prefix) != 0) continue;
    if (key.size() <= prefix.size() + suffix.size()) continue;
    if (key.compare(key.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    const std::string base = key.substr(0, key.size() - 6);  // strip _count
    RpcRow row;
    row.opcode = key.substr(prefix.size(),
                            key.size() - prefix.size() - suffix.size());
    const PromHistogram ch = ExtractHistogram(cur, base);
    const PromHistogram ph =
        prev.empty() ? PromHistogram{} : ExtractHistogram(prev, base);
    row.calls = static_cast<double>(ch.count) -
                static_cast<double>(ph.found ? ph.count : 0);
    if (row.calls <= 0) continue;
    row.p50 = QuantileOfDelta(ch, ph, 0.50);
    row.p99 = QuantileOfDelta(ch, ph, 0.99);
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(),
            [](const RpcRow& a, const RpcRow& b) { return a.calls > b.calls; });
  std::printf("\nRPC %-20s %10s %10s %10s %10s\n", "opcode",
              windowed ? "req/s" : "calls", "p50 us", "p99 us", "count");
  if (rows.empty()) std::printf("    (no RPCs%s)\n", windowed ? " this window" : "");
  for (const RpcRow& r : rows) {
    std::printf("    %-20s %10.1f %10.0f %10.0f %10.0f\n", r.opcode.c_str(),
                windowed ? r.calls / interval_s : r.calls, r.p50, r.p99,
                r.calls);
  }

  // --- transport ---------------------------------------------------------
  const double div = windowed ? interval_s : 1;
  std::printf("\nTRANSPORT  req%s %.1f   notify%s %.1f   in KB%s %.1f   "
              "out KB%s %.1f   inflight %.0f\n",
              windowed ? "/s" : "", DeltaOf(cur, prev, "idba_transport_requests_total") / div,
              windowed ? "/s" : "", DeltaOf(cur, prev, "idba_transport_notifications_total") / div,
              windowed ? "/s" : "", DeltaOf(cur, prev, "idba_transport_bytes_in_total") / div / 1024.0,
              windowed ? "/s" : "", DeltaOf(cur, prev, "idba_transport_bytes_out_total") / div / 1024.0,
              SampleOr0(cur, "idba_transport_inflight"));

  // --- I/O loops ---------------------------------------------------------
  // One row per reactor loop, keyed off the per-loop series the EventLoop
  // registers when given a metric prefix (net.loop.<i>.*). Loop indices are
  // dense from 0, so stop at the first missing wakeups counter.
  {
    bool header = false;
    for (int loop = 0;; ++loop) {
      const std::string base = "idba_net_loop_" + std::to_string(loop);
      const std::string wakeups_key = base + "_wakeups_total";
      if (cur.find(wakeups_key) == cur.end()) break;
      if (!header) {
        std::printf("\nLOOPS %-6s %12s %12s %12s %8s\n", "loop",
                    windowed ? "wakeups/s" : "wakeups", "lag p50 us",
                    "lag p99 us", "conns");
        header = true;
      }
      const PromHistogram ch = ExtractHistogram(cur, base + "_lag_us");
      const PromHistogram ph = prev.empty()
                                   ? PromHistogram{}
                                   : ExtractHistogram(prev, base + "_lag_us");
      std::printf("    io-%-4d %12.1f %12.0f %12.0f %8.0f\n", loop,
                  DeltaOf(cur, prev, wakeups_key) / div,
                  QuantileOfDelta(ch, ph, 0.50), QuantileOfDelta(ch, ph, 0.99),
                  SampleOr0(cur, base + "_conns"));
    }
    if (header) {
      const PromHistogram ch = ExtractHistogram(cur, "idba_net_loop_lag_us");
      const PromHistogram ph =
          prev.empty() ? PromHistogram{}
                       : ExtractHistogram(prev, "idba_net_loop_lag_us");
      std::printf("    all task lag p50 %.0f us   p99 %.0f us   "
                  "health stalls %.0f\n",
                  QuantileOfDelta(ch, ph, 0.50), QuantileOfDelta(ch, ph, 0.99),
                  SampleOr0(cur, "idba_health_stalls_total"));
    }
  }

  // --- caches ------------------------------------------------------------
  std::printf("\nCACHE %-10s %10s %10s %8s   gauges\n", "tier",
              windowed ? "hit/s" : "hits", windowed ? "miss/s" : "misses",
              "hit%");
  const struct {
    const char* tier;
    const char* hits;
    const char* misses;
    std::string gauges;
  } tiers[] = {
      {"page", "idba_cache_page_hits_total", "idba_cache_page_misses_total",
       "resident " +
           std::to_string(static_cast<long>(
               SampleOr0(cur, "idba_cache_page_resident_frames"))) +
           "  dirty " +
           std::to_string(static_cast<long>(
               SampleOr0(cur, "idba_cache_page_dirty_frames"))) +
           "  pinned " +
           std::to_string(static_cast<long>(
               SampleOr0(cur, "idba_cache_page_pinned_frames")))},
      {"object", "idba_cache_object_hits_total",
       "idba_cache_object_misses_total",
       "entries " +
           std::to_string(static_cast<long>(
               SampleOr0(cur, "idba_cache_object_entries"))) +
           "  bytes " +
           std::to_string(static_cast<long>(
               SampleOr0(cur, "idba_cache_object_bytes_used")))},
      {"display", "idba_cache_display_hits_total",
       "idba_cache_display_misses_total",
       "objects " +
           std::to_string(static_cast<long>(
               SampleOr0(cur, "idba_cache_display_objects"))) +
           "  bytes " +
           std::to_string(static_cast<long>(
               SampleOr0(cur, "idba_cache_display_bytes_used")))},
  };
  for (const auto& t : tiers) {
    const double hits = DeltaOf(cur, prev, t.hits);
    const double misses = DeltaOf(cur, prev, t.misses);
    const double total = hits + misses;
    std::printf("    %-10s %10.1f %10.1f %7.1f%%   %s\n", t.tier, hits / div,
                misses / div, total > 0 ? 100.0 * hits / total : 0.0,
                t.gauges.c_str());
  }

  // --- locks -------------------------------------------------------------
  {
    const PromHistogram ch = ExtractHistogram(cur, "idba_txn_lock_wait_us");
    const PromHistogram ph = prev.empty()
                                 ? PromHistogram{}
                                 : ExtractHistogram(prev, "idba_txn_lock_wait_us");
    std::printf("\nLOCKS      grants%s %.1f   waits%s %.1f   wait p50 %.0f us   "
                "p99 %.0f us   deadlocks %.0f   timeouts %.0f\n",
                windowed ? "/s" : "",
                DeltaOf(cur, prev, "idba_txn_lock_grants_total") / div,
                windowed ? "/s" : "",
                DeltaOf(cur, prev, "idba_txn_lock_waits_total") / div,
                QuantileOfDelta(ch, ph, 0.50), QuantileOfDelta(ch, ph, 0.99),
                SampleOr0(cur, "idba_txn_lock_deadlocks_total"),
                SampleOr0(cur, "idba_txn_lock_timeouts_total"));
  }

  // --- overload ladder ---------------------------------------------------
  std::printf("\nOVERLOAD   rejected %.0f   oneway shed %.0f   coalesced %.0f"
              "   notify shed %.0f   overflows %.0f   forced resyncs %.0f\n",
              DeltaOf(cur, prev, "idba_overload_rejections_total"),
              DeltaOf(cur, prev, "idba_overload_oneway_shed_total"),
              DeltaOf(cur, prev, "idba_overload_notify_coalesced_total"),
              DeltaOf(cur, prev, "idba_overload_notify_shed_total"),
              DeltaOf(cur, prev, "idba_overload_notify_overflows_total"),
              DeltaOf(cur, prev, "idba_overload_forced_resyncs_total"));

  // --- consistency auditor ----------------------------------------------
  {
    const PromHistogram ch = ExtractHistogram(cur, "idba_display_staleness_slo_us");
    const PromHistogram ph =
        prev.empty() ? PromHistogram{}
                     : ExtractHistogram(prev, "idba_display_staleness_slo_us");
    std::printf("\nAUDIT      checks%s %.1f   violations %.0f (mono %.0f "
                "vis %.0f coh %.0f)   slo misses %.0f   settled%s %.1f   "
                "staleness p50 %.0f vus   p99 %.0f vus\n",
                windowed ? "/s" : "",
                DeltaOf(cur, prev, "idba_consistency_checks_total") / div,
                SampleOr0(cur, "idba_consistency_violations_total"),
                SampleOr0(cur, "idba_consistency_monotonicity_violations_total"),
                SampleOr0(cur, "idba_consistency_visibility_violations_total"),
                SampleOr0(cur, "idba_consistency_coherence_violations_total"),
                SampleOr0(cur, "idba_consistency_slo_violations_total"),
                windowed ? "/s" : "",
                DeltaOf(cur, prev, "idba_consistency_obligations_settled_total") /
                    div,
                QuantileOfDelta(ch, ph, 0.50), QuantileOfDelta(ch, ph, 0.99));
  }
  std::fflush(stdout);
}

int Fail(const Status& st, const char* what) {
  std::fprintf(stderr, "idba_top: %s: %s\n", what, st.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string connect;
  long interval_s = 2;
  long count = 0;  // 0 = until interrupted
  bool once = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--connect") == 0 && i + 1 < argc) {
      connect = argv[++i];
    } else if (std::strcmp(argv[i], "--interval") == 0 && i + 1 < argc) {
      interval_s = std::atol(argv[++i]);
      if (interval_s <= 0) interval_s = 1;
    } else if (std::strcmp(argv[i], "--count") == 0 && i + 1 < argc) {
      count = std::atol(argv[++i]);
    } else if (std::strcmp(argv[i], "--once") == 0) {
      once = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s --connect HOST:PORT [--interval SECS] "
                   "[--count N] [--once]\n",
                   argv[0]);
      return 2;
    }
  }
  std::string host;
  uint16_t port = 0;
  if (!idba::tools::SplitHostPort(connect, &host, &port)) {
    std::fprintf(stderr, "idba_top: --connect HOST:PORT is required\n");
    return 2;
  }

  auto sock = Socket::ConnectTo(host, port, /*connect_timeout_ms=*/5000);
  if (!sock.ok()) return Fail(sock.status(), "connect");
  Status st = sock.value().SetRecvTimeout(5000);
  if (!st.ok()) return Fail(st, "recv timeout");

  PromSamples prev;
  uint64_t seq = 1;
  for (long frame = 0; count == 0 || frame < count || (once && frame < 1);
       ++frame) {
    std::vector<uint8_t> body;
    Encoder enc(&body);
    enc.PutU8(0);  // METRICS format 0: Prometheus text
    std::string text;
    st = AdminCall(sock.value(), idba::admin::Verb::kMetrics, body, &text,
                   seq++);
    if (!st.ok()) return Fail(st, "METRICS");
    PromSamples cur = ParsePromText(text);
    if (!once) std::printf("\x1b[H\x1b[2J");  // home + clear
    RenderFrame(connect, cur, prev,
                frame == 0 ? 0 : static_cast<double>(interval_s), frame);
    if (once || (count != 0 && frame + 1 >= count)) break;
    prev = std::move(cur);
    std::this_thread::sleep_for(std::chrono::seconds(interval_s));
  }
  return 0;
}
