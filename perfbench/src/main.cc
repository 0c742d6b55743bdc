// idba_perfbench: runs one workload for a fixed time and prints its metrics.
//
//   idba_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--out <result.json>] [--spans <spans.tsv>]
//
// --trace 0 measures the end-to-end metrics: twenty rounds, each a cold
// set-up (one setup_s sample) followed by seconds/20 of measured ops; every
// metric is the median of its twenty per-round values. --trace 1 measures
// the per-layer metrics in four rounds of seconds/4: untraced then traced,
// twice, so the run also reports what tracing costs. A workload with a TCP
// twin spends its second pair on the twin, which supplies the net.*
// metrics. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.

#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "tracing.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 0;
  /// False for tail percentiles: printed and recorded, but left out of the
  /// result line because their run-to-run spread is wider than any bound
  /// the benchmark may gate on.
  bool gated = true;
};

/// Linear-interpolated quantile of `v` (q in [0,1]); 0 for no samples.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Quantile of a histogram from bucket counts (bucket upper bounds).
double BucketQuantile(const std::vector<uint64_t>& counts, double q) {
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0) return 0;
  const uint64_t target =
      std::max<uint64_t>(1, static_cast<uint64_t>(std::ceil(total * q)));
  uint64_t cumulative = 0;
  for (size_t b = 0; b < counts.size(); ++b) {
    cumulative += counts[b];
    if (cumulative >= target) {
      return idba::Histogram::BucketUpperBound(static_cast<int>(b));
    }
  }
  return idba::Histogram::BucketUpperBound(idba::Histogram::kNumBuckets - 1);
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string ReadCpuField(const char* key) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      size_t colon = line.find(':');
      return colon == std::string::npos ? "" : line.substr(colon + 2);
    }
  }
  return "";
}

/// Where and how this number was made.
std::map<std::string, std::string> Environment(const WorkloadSpec& spec,
                                               uint64_t seed, int io_threads,
                                               int worker_threads) {
  std::map<std::string, std::string> env;
  env["nproc"] = std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  env["cpu_model"] = ReadCpuField("model name");
  std::string flags = " " + ReadCpuField("flags") + " ";
  env["cpu_sse4_2"] =
      flags.find(" sse4_2 ") != std::string::npos ? "yes" : "no";
  struct utsname u;
  if (uname(&u) == 0) env["kernel"] = std::string(u.sysname) + " " + u.release;
  env["build_type"] = PERFBENCH_BUILD_TYPE;
  env["cxx_flags"] = PERFBENCH_CXX_FLAGS;
  env["compiler"] = PERFBENCH_COMPILER;
#ifdef __SSE4_2__
  env["build_defines_sse4_2"] = "yes";
#else
  env["build_defines_sse4_2"] = "no";
#endif
  env["transport_io_threads"] = std::to_string(io_threads);
  env["transport_worker_threads"] = std::to_string(worker_threads);
  env["seed"] = std::to_string(seed);
  env["workload"] = spec.name;
  return env;
}

/// Latency metrics of one round's samples (set-up and memory are added by
/// the caller).
std::vector<Metric> LatencyMetrics(const Samples& s) {
  auto q = [](const char* name, const std::vector<double>& v, double at,
              const char* unit) {
    return Metric{name, Quantile(v, at), unit, v.size(), at <= 0.5};
  };
  return {
      q("commit_to_display_us_p50", s.commit_to_display_us, 0.5, "us"),
      q("commit_to_display_us_p99", s.commit_to_display_us, 0.99, "us"),
      q("commit_to_display_vms_p50", s.commit_to_display_vms, 0.5, "vms"),
      q("update_txn_us_p50", s.update_txn_us, 0.5, "us"),
      q("update_txn_us_p99", s.update_txn_us, 0.99, "us"),
      q("update_txn_vms_p50", s.update_txn_vms, 0.5, "vms"),
      q("view_open_ms_p50", s.view_open_ms, 0.5, "ms"),
      q("view_open_ms_p95", s.view_open_ms, 0.95, "ms"),
      q("view_open_vms_p50", s.view_open_vms, 0.5, "vms"),
      q("redraw_us_p50", s.redraw_us, 0.5, "us"),
  };
}

/// End-to-end metrics of a run: each latency metric is the median of its
/// per-round values (so a burst of host noise spoils at most a few rounds),
/// with the samples of all rounds counted.
std::vector<Metric> EndToEnd(const std::vector<Samples>& rounds,
                             const std::vector<double>& setup_s,
                             double peak_rss_mb) {
  std::vector<Metric> out = {
      {"setup_s", Quantile(setup_s, 0.5), "s", setup_s.size()},
      {"peak_rss_mb", peak_rss_mb, "MB", 1},
  };
  std::vector<std::vector<Metric>> per_round;
  for (const Samples& r : rounds) per_round.push_back(LatencyMetrics(r));
  for (size_t i = 0; !per_round.empty() && i < per_round[0].size(); ++i) {
    Metric m = per_round[0][i];
    std::vector<double> values;
    m.samples = 0;
    for (const auto& round : per_round) {
      if (round[i].samples == 0) continue;
      values.push_back(round[i].value);
      m.samples += round[i].samples;
    }
    m.value = Quantile(values, 0.5);
    out.push_back(m);
  }
  return out;
}

/// What the rounds of one deployment kind (the workload's own, or its TCP
/// twin) produced.
struct Domain {
  Samples untraced, traced;
  LayerData layers;
  std::vector<SpanRecord> spans;
};

/// Per-layer metrics from the traced rounds' spans and counters, plus the
/// tracing distortion measured against the untraced rounds of the run. The
/// net.* metrics come from `net`, everything else from `own`.
std::vector<Metric> PerLayer(const Domain& own, const Domain& net) {
  const std::vector<SpanRecord>& spans = own.spans;
  const std::vector<int64_t> child = ChildTime(spans);
  auto is = [](const char* a, const char* b) { return std::strcmp(a, b) == 0; };
  auto durations_us = [&](const char* name, bool self) {
    std::vector<double> out;
    for (size_t i = 0; i < spans.size(); ++i) {
      if (!is(spans[i].name, name)) continue;
      int64_t d = spans[i].duration_ns() - (self ? child[i] : 0);
      out.push_back(d / 1e3);
    }
    return out;
  };
  auto coverage = [&](const char* name) {
    std::vector<double> out;
    for (size_t i = 0; i < spans.size(); ++i) {
      if (!is(spans[i].name, name) || spans[i].duration_ns() <= 0) continue;
      out.push_back(static_cast<double>(child[i]) / spans[i].duration_ns());
    }
    return out;
  };
  size_t refetches = 0;
  for (const SpanRecord& s : spans) {
    if (is(s.name, "client.ReadCurrent") && s.parent >= 0 &&
        is(spans[s.parent].name, "core.pump")) {
      ++refetches;
    }
  }
  auto count_in = [](const LayerData& layers, const char* key) {
    auto it = layers.counts.find(key);
    return it == layers.counts.end() ? 0.0 : it->second;
  };
  auto count = [&](const char* key) { return count_in(own.layers, key); };
  auto net_count = [&](const char* key) { return count_in(net.layers, key); };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  auto p50 = [](const std::vector<double>& v) { return Quantile(v, 0.5); };
  auto hist = [&](const std::string& name, double q) {
    auto it = net.layers.buckets.find(name);
    return it == net.layers.buckets.end() ? 0.0 : BucketQuantile(it->second, q);
  };
  auto hist_count = [&](const std::string& name) {
    uint64_t total = 0;
    auto it = net.layers.buckets.find(name);
    if (it != net.layers.buckets.end()) {
      for (uint64_t c : it->second) total += c;
    }
    return static_cast<size_t>(total);
  };
  auto timed = [&](const char* name, const char* span, bool self) {
    std::vector<double> d = durations_us(span, self);
    return Metric{name, p50(d), "us", d.size()};
  };

  const size_t updates = static_cast<size_t>(count("updates"));
  const size_t browses = static_cast<size_t>(count("browses"));
  const size_t commits = static_cast<size_t>(count("commits"));
  const size_t net_updates = static_cast<size_t>(net_count("updates"));
  std::vector<Metric> m = {
      {"client.rpcs_per_update", ratio(count("writer_rpcs"), updates), "count",
       updates},
      timed("client.read_us_p50", "client.Read", false),
      timed("client.write_us_p50", "client.Write", false),
      timed("client.commit_us_p50", "client.Commit", false),
      {"client.object_cache_hit_ratio",
       ratio(count("open_cache_hits"),
             count("open_cache_hits") + count("open_cache_misses")),
       "ratio", browses},
      timed("core.pump_self_us_p50", "core.pump", true),
      {"core.refetches_per_refresh",
       ratio(static_cast<double>(refetches), count("refreshes")), "count",
       static_cast<size_t>(count("refreshes"))},
      {"core.notifications_per_commit",
       ratio(count("dlm_notifications"), commits), "count", commits},
      {"core.dispatches_per_notification",
       ratio(count("dlc_dispatches"), count("dlc_notifications")), "count",
       static_cast<size_t>(count("dlc_notifications"))},
      timed("core.view_open_self_us_p50", "core.view_open", true),
      timed("core.lock_batch_us_p50", "lock.LockBatch", false),
      {"core.display_cache_hits_per_redraw",
       ratio(count("redraw_display_cache_hits"), browses), "count", browses},
      {"server.callbacks_per_commit", ratio(count("callbacks"), commits),
       "count", commits},
      {"txn.lock_grants_per_txn", ratio(count("lock_grants"), commits), "count",
       commits},
      {"txn.lock_waits", count("lock_waits"), "count", commits},
      {"storage.wal_bytes_per_commit", ratio(count("wal_bytes"), commits), "B",
       commits},
      {"storage.wal_fsyncs_per_commit", ratio(count("wal_fsyncs"), commits),
       "count", commits},
      {"storage.page_misses_per_open",
       ratio(count("open_page_misses"), browses), "count", browses},
      {"storage.page_evictions_per_open",
       ratio(count("open_page_evictions"), browses), "count", browses},
      {"storage.buffer_hit_ratio",
       ratio(count("pool_hits"), count("pool_hits") + count("pool_misses")),
       "ratio", static_cast<size_t>(count("pool_hits") + count("pool_misses"))},
      {"query.rows_examined_per_result",
       ratio(count("query_rows_examined"), count("query_rows_returned")),
       "count", browses},
      timed("viz.treemap_us_p50", "viz.treemap", false),
      timed("viz.pdq_us_p50", "viz.pdq", false),
      {"net.commit_to_display_us_p50", p50(net.untraced.commit_to_display_us),
       "us", net.untraced.commit_to_display_us.size()},
      {"net.update_txn_us_p50", p50(net.untraced.update_txn_us), "us",
       net.untraced.update_txn_us.size()},
      {"net.frames_per_update", ratio(net_count("update_frames"), net_updates),
       "count", net_updates},
      {"net.wire_bytes_per_update",
       ratio(net_count("update_wire_bytes"), net_updates), "B", net_updates},
  };
  for (const char* method :
       {"Begin", "LockForRead", "Fetch", "Put", "Commit", "FetchCurrent"}) {
    for (const char* part : {"queue_us", "execute_us", "network_us"}) {
      std::string hname = std::string("rpc.") + method + "." + part;
      m.push_back({"net." + hname + "_p50", hist(hname, 0.5), "us",
                   hist_count(hname)});
    }
  }
  m.push_back({"net.loop_lag_us_p99", hist("net.loop.lag_us", 0.99), "us",
               hist_count("net.loop.lag_us")});
  m.push_back({"net.worker_dispatch_lag_us_p99",
               hist("worker.dispatch_lag_us", 0.99), "us",
               hist_count("worker.dispatch_lag_us")});
  const double encodes = net_count("fanout_encodes");
  const double reuses = net_count("fanout_reuses");
  m.push_back({"net.fanout_reuse_ratio", ratio(reuses, encodes + reuses),
               "ratio", static_cast<size_t>(encodes + reuses)});
  auto overhead = [&](const char* name, const char* unit,
                      const std::vector<double> Samples::*field) {
    return Metric{name, p50(own.traced.*field) - p50(own.untraced.*field), unit,
                  (own.traced.*field).size()};
  };
  m.push_back(overhead("trace.overhead_commit_to_display_us", "us",
                       &Samples::commit_to_display_us));
  m.push_back(
      overhead("trace.overhead_update_txn_us", "us", &Samples::update_txn_us));
  m.push_back(
      overhead("trace.overhead_view_open_ms", "ms", &Samples::view_open_ms));
  m.push_back(overhead("trace.overhead_redraw_us", "us", &Samples::redraw_us));
  m.push_back({"trace.span_coverage_update", p50(coverage("op.update")),
               "ratio", updates});
  m.push_back({"trace.span_coverage_browse", p50(coverage("op.browse")),
               "ratio", browses});
  return m;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out;
  std::string spans;
};

bool ParseArgs(int argc, char** argv, Args* args) try {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string val = argv[i + 1];
    if (key == "--workload") {
      args->workload = val;
    } else if (key == "--seed") {
      args->seed = std::stoull(val);
    } else if (key == "--seconds") {
      args->seconds = std::stod(val);
    } else if (key == "--trace") {
      args->trace = std::stoi(val);
    } else if (key == "--out") {
      args->out = val;
    } else if (key == "--spans") {
      args->spans = val;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
} catch (const std::exception&) {  // a number that does not parse
  return false;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: idba_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out <file>] "
                 "[--spans <file>]\n");
    return 2;
  }
  WorkloadSpec spec;
  if (!SpecFor(args.workload, &spec)) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }

  WorkloadSpec twin;
  const bool use_twin = args.trace && !spec.tcp_twin.empty() &&
                        SpecFor(spec.tcp_twin, &twin);

  // Untraced rounds give the end-to-end numbers; in a traced run they are
  // the baseline for the tracing overhead.
  struct Round {
    const WorkloadSpec* spec;
    bool traced;
  };
  std::vector<Round> plan;
  if (!args.trace) {
    plan.assign(20, {&spec, false});
  } else {
    const WorkloadSpec* second = use_twin ? &twin : &spec;
    plan = {{&spec, false}, {&spec, true}, {second, false}, {second, true}};
  }
  const double per_round = args.seconds / static_cast<double>(plan.size());
  Domain own, tcp_twin;
  std::vector<Samples> untraced_rounds;
  std::vector<double> setup_s;
  double peak_rss_mb = 0;
  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  int io_threads = 0, worker_threads = 0;
  for (const Round& round : plan) {
    const bool is_own = round.spec == &spec;
    Domain& d = is_own ? own : tcp_twin;
    Samples samples;
    RoundOutcome o = RunRound(*round.spec, args.seed, per_round, round.traced,
                              &samples, &d.layers);
    Samples& pool = round.traced ? d.traced : d.untraced;
    for (auto field : {&Samples::commit_to_display_us,
                       &Samples::commit_to_display_vms, &Samples::update_txn_us,
                       &Samples::update_txn_vms, &Samples::view_open_ms,
                       &Samples::view_open_vms, &Samples::redraw_us}) {
      (pool.*field).insert((pool.*field).end(), (samples.*field).begin(),
                           (samples.*field).end());
    }
    if (is_own) {
      setup_s.push_back(o.setup_s);
      if (!round.traced) untraced_rounds.push_back(std::move(samples));
    }
    if (peak_rss_mb == 0) peak_rss_mb = o.rss_after_warmup_mb;
    // Parent indices are relative to the round's own spans.
    const int32_t base = static_cast<int32_t>(d.spans.size());
    for (SpanRecord rec : o.spans) {
      if (rec.parent >= 0) rec.parent += base;
      d.spans.push_back(rec);
    }
    attempted += o.attempted;
    failed += o.failed;
    for (std::string& f : o.failures) {
      if (failures.size() < 8) failures.push_back(std::move(f));
    }
    if (o.transport_io_threads > 0) {
      io_threads = o.transport_io_threads;
      worker_threads = o.transport_worker_threads;
    }
  }

  std::vector<Metric> e2e = EndToEnd(untraced_rounds, setup_s, peak_rss_mb);
  std::vector<Metric> metrics =
      args.trace ? PerLayer(own, spec.tcp ? own : tcp_twin) : e2e;
  bool correct = failed == 0 && attempted > 0;
  for (const Metric& m : e2e) {
    if (m.samples == 0 || !std::isfinite(m.value)) correct = false;
  }

  const auto env = Environment(spec, args.seed, io_threads, worker_threads);
  std::printf("workload %s  seed %llu  %.1f s in %d rounds  trace %d\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, static_cast<int>(plan.size()), args.trace);
  for (const auto& [k, v] : env) {
    std::printf("  env %-26s %s\n", k.c_str(), v.c_str());
  }
  std::printf("  %-40s %14s %-6s %9s\n", "metric", "value", "unit", "samples");
  for (const Metric& m : metrics) {
    std::printf("  %-40s %14.4f %-6s %9zu%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples, m.gated ? "" : "  (not gated)");
  }
  std::printf("  ops attempted %llu, failed %llu (failed_op_ratio %.6f)\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              attempted ? static_cast<double>(failed) / attempted : 0.0);
  for (const std::string& f : failures) {
    std::printf("  failure: %s\n", f.c_str());
  }

  // The result file keeps every metric; the result line only gated ones.
  auto metrics_json = [](const std::vector<Metric>& ms, bool all) {
    std::string j = "{";
    for (const Metric& m : ms) {
      if (!all && !m.gated) continue;
      if (j.size() > 1) j += ", ";
      j += Quote(m.name) + ": {\"value\": " + Num(m.value) +
           ", \"unit\": " + Quote(m.unit);
      if (all) {
        j += ", \"samples\": " + std::to_string(m.samples) +
             ", \"gated\": " + (m.gated ? "true" : "false");
      }
      j += "}";
    }
    return j + "}";
  };
  if (!args.out.empty()) {
    std::string j = "{\"env\": {";
    bool first = true;
    for (const auto& [k, v] : env) {
      j += (first ? "" : ", ") + Quote(k) + ": " + Quote(v);
      first = false;
    }
    j += "}, \"correct\": " + std::string(correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) +
         ", \"end_to_end\": " + metrics_json(e2e, true);
    if (args.trace) j += ", \"per_layer\": " + metrics_json(metrics, true);
    j += ", \"failures\": [";
    for (size_t i = 0; i < failures.size(); ++i) {
      j += (i ? ", " : "") + Quote(failures[i]);
    }
    j += "]}\n";
    std::ofstream(args.out) << j;
  }
  if (args.trace && !args.spans.empty() &&
      !WriteSpansTsv(args.spans, {{spec.name, own.spans},
                                  {twin.name, tcp_twin.spans}})) {
    std::fprintf(stderr, "could not write spans to %s\n", args.spans.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics_json(metrics, false).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
