// idba_stat: live introspection CLI for a running idba_serve.
//
// Speaks the raw wire protocol without a Hello handshake: every report is
// one verb of the ADMIN method (STATS, METRICS, LOCKS, CACHES, TRACE_DUMP,
// FLIGHT, PROFILE, AUDIT), callable on a fresh connection, so it never
// perturbs session state — it can be pointed at a production server
// mid-run.
//
//   ./idba_stat --connect 127.0.0.1:7450            # STATS, indented
//   ./idba_stat --connect 127.0.0.1:7450 --json     # raw MetricsRegistry
//                                    # DumpJson (counters/gauges/histograms)
//   ./idba_stat --connect 127.0.0.1:7450 --stats-json
//                                    # the STATS document, compact
//   ./idba_stat --connect 127.0.0.1:7450 --locks    # lock-table dump (JSON)
//   ./idba_stat --connect 127.0.0.1:7450 --caches   # cache-hierarchy dump
//   ./idba_stat --connect 127.0.0.1:7450 --prom     # Prometheus exposition
//   ./idba_stat --connect 127.0.0.1:7450 --watch 2  # repeat every 2 s,
//                                    # printing per-interval deltas/rates
//   ./idba_stat --connect 127.0.0.1:7450 --trace trace.json
//                                    # dump the server's span ring as a
//                                    # Chrome trace (load in about://tracing)
//   ./idba_stat --connect 127.0.0.1:7450 --trace-jsonl spans.jsonl --clear
//   ./idba_stat --connect 127.0.0.1:7450 --profile 2
//                                    # sample the server for 2 s at
//                                    # --profile-hz (default 99) and print
//                                    # folded stacks (flamegraph.pl input)
//   ./idba_stat --connect 127.0.0.1:7450 --flight flight.dump
//                                    # fetch the flight recorder's
//                                    # per-thread recent-event rings
//   ./idba_stat --connect 127.0.0.1:7450 --audit
//                                    # fetch the consistency auditor's
//                                    # report (mode, SLO, violation ring)
//
// The default report is the STATS document indented one field per line:
// transport and overload counters, connected sessions, the display-lock
// table, WAL and checkpoint progress, the slow-RPC ring (with trace ids),
// trace-recorder occupancy, and every registered counter/histogram (rpc.*
// latency decompositions, display.staleness_vtime, storage/txn counters).
//
// --watch computes deltas from the Prometheus exposition (the same bytes a
// scraper sees): counters print as rates, gauges as current values, and
// histograms as per-window p50/p99.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "tools/admin_call.h"
#include "tools/json_indent.h"
#include "tools/prom_text.h"

namespace {

using idba::Encoder;
using idba::Socket;
using idba::Status;
using idba::admin::Verb;
using idba::tools::AdminCall;
using idba::tools::ExtractHistogram;
using idba::tools::ParsePromText;
using idba::tools::PromHistogram;
using idba::tools::PromSamples;
using idba::tools::QuantileOfDelta;

int Fail(const Status& st, const char* what) {
  std::fprintf(stderr, "idba_stat: %s: %s\n", what, st.ToString().c_str());
  return 1;
}

/// One --watch report: counters as rates over the interval, gauges as
/// levels, histograms as per-window p50/p99. Series idle this interval are
/// suppressed so the output tracks what the server is actually doing.
void PrintWatchReport(const PromSamples& cur, const PromSamples& prev,
                      double interval_s) {
  std::printf("--- %.0fs window ---\n", interval_s);
  bool any = false;
  for (const auto& [key, value] : cur) {
    // Counters: exporter suffixes them _total. Histogram _bucket/_count/_sum
    // series are folded into the histogram report below.
    if (key.size() > 6 && key.compare(key.size() - 6, 6, "_total") == 0 &&
        key.find("_bucket{") == std::string::npos) {
      auto it = prev.find(key);
      const double before = it == prev.end() ? 0 : it->second;
      const double delta = value - before;
      if (delta <= 0) continue;
      std::printf("%-56s %12.0f  (%.1f/s)\n", key.c_str(), delta,
                  delta / interval_s);
      any = true;
    }
  }
  // Histograms: find each base via its _count series.
  for (const auto& [key, value] : cur) {
    if (key.size() <= 6 || key.compare(key.size() - 6, 6, "_count") != 0 ||
        key.find('{') != std::string::npos) {
      continue;
    }
    const std::string base = key.substr(0, key.size() - 6);
    const PromHistogram ch = ExtractHistogram(cur, base);
    const PromHistogram ph = ExtractHistogram(prev, base);
    if (ch.count <= ph.count) continue;  // idle this window
    const double p50 = QuantileOfDelta(ch, ph, 0.50);
    const double p99 = QuantileOfDelta(ch, ph, 0.99);
    std::printf("%-56s %12llu  p50=%.0f p99=%.0f\n", base.c_str(),
                static_cast<unsigned long long>(ch.count - ph.count), p50, p99);
    any = true;
  }
  // Gauges: no _total suffix, no histogram suffix, no labels.
  for (const auto& [key, value] : cur) {
    if (key.find('{') != std::string::npos) continue;
    if (key.size() > 6 && key.compare(key.size() - 6, 6, "_total") == 0) continue;
    if (key.size() > 6 && key.compare(key.size() - 6, 6, "_count") == 0) continue;
    if (key.size() > 4 && key.compare(key.size() - 4, 4, "_sum") == 0) continue;
    if (value == 0) continue;
    std::printf("%-56s %12.9g  (gauge)\n", key.c_str(), value);
    any = true;
  }
  if (!any) std::printf("(idle)\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::string connect;
  bool json = false;
  bool stats_json = false;
  bool locks = false;
  bool caches = false;
  bool prom = false;
  bool clear = false;
  long watch_s = 0;
  long watch_count = 0;  // 0 = until interrupted
  std::string trace_path;
  uint8_t trace_format = 0;  // 0 = chrome, 1 = jsonl
  long profile_s = 0;
  long profile_hz = 99;
  bool flight = false;
  std::string flight_path = "-";
  bool audit = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--connect") == 0 && i + 1 < argc) {
      connect = argv[++i];
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--stats-json") == 0) {
      stats_json = true;
    } else if (std::strcmp(argv[i], "--locks") == 0) {
      locks = true;
    } else if (std::strcmp(argv[i], "--caches") == 0) {
      caches = true;
    } else if (std::strcmp(argv[i], "--prom") == 0) {
      prom = true;
    } else if (std::strcmp(argv[i], "--watch") == 0 && i + 1 < argc) {
      watch_s = std::atol(argv[++i]);
      if (watch_s <= 0) {
        std::fprintf(stderr, "idba_stat: --watch needs a positive interval\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--watch-count") == 0 && i + 1 < argc) {
      watch_count = std::atol(argv[++i]);
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
      trace_format = 0;
    } else if (std::strcmp(argv[i], "--trace-jsonl") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
      trace_format = 1;
    } else if (std::strcmp(argv[i], "--clear") == 0) {
      clear = true;
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      // Optional duration argument, --trace-style: "--profile 2" or bare
      // "--profile" (default 2 s).
      profile_s = 2;
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        profile_s = std::atol(argv[++i]);
        if (profile_s <= 0) {
          std::fprintf(stderr,
                       "idba_stat: --profile needs a positive duration\n");
          return 2;
        }
      }
    } else if (std::strcmp(argv[i], "--profile-hz") == 0 && i + 1 < argc) {
      profile_hz = std::atol(argv[++i]);
      if (profile_hz <= 0 || profile_hz > 1000) {
        std::fprintf(stderr, "idba_stat: --profile-hz must be in [1,1000]\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--flight") == 0) {
      flight = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') flight_path = argv[++i];
    } else if (std::strcmp(argv[i], "--audit") == 0) {
      audit = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s --connect HOST:PORT [--json | --stats-json | "
                   "--locks | --caches | --prom] [--watch SECS "
                   "[--watch-count N]] [--trace FILE | --trace-jsonl FILE] "
                   "[--clear] [--profile [SECS] [--profile-hz HZ]] "
                   "[--flight [FILE]] [--audit]\n",
                   argv[0]);
      return 2;
    }
  }
  std::string host;
  uint16_t port = 0;
  if (!idba::tools::SplitHostPort(connect, &host, &port)) {
    std::fprintf(stderr, "idba_stat: --connect HOST:PORT is required\n");
    return 2;
  }

  auto sock = Socket::ConnectTo(host, port, /*connect_timeout_ms=*/5000);
  if (!sock.ok()) return Fail(sock.status(), "connect");
  Status st = sock.value().SetRecvTimeout(5000);
  if (!st.ok()) return Fail(st, "recv timeout");

  if (profile_s > 0) {
    // start -> sleep -> dump folded -> stop; the folded stacks go to stdout
    // so they pipe straight into flamegraph.pl.
    auto profile = [&](uint8_t action, std::string* out, uint64_t seq) {
      std::vector<uint8_t> body;
      Encoder enc(&body);
      enc.PutU8(action);
      if (action == 1) enc.PutU32(static_cast<uint32_t>(profile_hz));
      return AdminCall(sock.value(), Verb::kProfile, body, out, seq);
    };
    std::string status, folded;
    st = profile(1, &status, 1);  // start
    if (!st.ok()) return Fail(st, "PROFILE start");
    std::fprintf(stderr, "idba_stat: %s, sampling %lds...\n", status.c_str(),
                 profile_s);
    std::this_thread::sleep_for(std::chrono::seconds(profile_s));
    st = profile(3, &folded, 2);  // dump folded stacks
    if (!st.ok()) return Fail(st, "PROFILE dump");
    st = profile(2, &status, 3);  // stop
    if (!st.ok()) return Fail(st, "PROFILE stop");
    std::fprintf(stderr, "idba_stat: %s\n", status.c_str());
    std::fputs(folded.c_str(), stdout);
    return 0;
  }

  if (watch_s > 0 && !audit && !flight) {
    PromSamples prev;
    uint64_t seq = 1;
    for (long iter = 0; watch_count == 0 || iter <= watch_count; ++iter) {
      std::vector<uint8_t> body;
      Encoder enc(&body);
      enc.PutU8(0);  // METRICS format 0: Prometheus text
      std::string text;
      st = AdminCall(sock.value(), Verb::kMetrics, body, &text, seq++);
      if (!st.ok()) return Fail(st, "METRICS");
      PromSamples cur = ParsePromText(text);
      if (iter > 0) {
        PrintWatchReport(cur, prev, static_cast<double>(watch_s));
      }
      prev = std::move(cur);
      if (watch_count != 0 && iter == watch_count) break;
      std::this_thread::sleep_for(std::chrono::seconds(watch_s));
    }
    return 0;
  }

  // One document. Dumps (flight, trace) go to their path verbatim, "-"
  // being stdout; reports go to stdout and end with a newline.
  Verb verb = Verb::kStats;
  std::vector<uint8_t> body;
  Encoder enc(&body);
  const char* what = "STATS";
  std::string path;
  if (audit) {
    verb = Verb::kAudit;
    what = "AUDIT";
  } else if (flight) {
    verb = Verb::kFlight;
    what = "FLIGHT";
    path = flight_path;
  } else if (!trace_path.empty()) {
    verb = Verb::kTraceDump;
    enc.PutU8(trace_format);
    enc.PutU8(clear ? 1 : 0);
    what = "TRACE_DUMP";
    path = trace_path;
  } else if (json) {
    verb = Verb::kMetrics;
    enc.PutU8(1);  // registry DumpJson passthrough
    what = "METRICS";
  } else if (prom) {
    verb = Verb::kMetrics;
    enc.PutU8(0);  // Prometheus text exposition
    what = "METRICS";
  } else if (locks) {
    verb = Verb::kLocks;
    enc.PutU8(0);  // default top-K contended OIDs
    what = "LOCKS";
  } else if (caches) {
    verb = Verb::kCaches;
    what = "CACHES";
  }
  std::string out;
  st = AdminCall(sock.value(), verb, body, &out);
  if (!st.ok()) return Fail(st, what);
  if (path.empty()) {
    if (verb == Verb::kStats && !stats_json) out = idba::tools::IndentJson(out);
    if (out.empty() || out.back() != '\n') out += '\n';
    path = "-";
  }
  std::FILE* f = path == "-" ? stdout : std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "idba_stat: cannot open %s\n", path.c_str());
    return 1;
  }
  std::fputs(out.c_str(), f);
  if (f != stdout) {
    std::fclose(f);
    std::fprintf(stderr, "idba_stat: wrote %zu bytes to %s\n", out.size(),
                 path.c_str());
  }
  return 0;
}
