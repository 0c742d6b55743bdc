// The benchmark's workloads: closed loops driven by one thread over one
// deployment per round (in-process, or behind a loopback TransportServer).
//
// Every workload mixes the same two operation kinds, in proportions chosen
// for what the workload is meant to stress:
//   update  Begin -> Read -> Write -> Commit of one object by the writer
//           session, then every session displaying that object pumps until
//           each of its displays of it has refreshed.
//   browse  a session opens a view of one rack (device query, drill-down to
//           cards and ports through ReadCurrent, one D-lock batch, Tree-Map
//           and PDQ layout), redraws it from the display cache, optionally
//           lets the writer update devices it shows, and closes it.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "nms/network_model.h"
#include "tracing.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  bool tcp = false;
  idba::NmsConfig net;
  /// Sessions that keep two link displays (ColorCodedLink, WidthCodedLink)
  /// over overlapping link sets for the whole round.
  int viewers = 0;
  /// Link updates between two browse ops (0: browse ops only).
  int updates_per_browse = 0;
  /// Updates of displayed devices committed while a rack view is open.
  int device_updates_per_browse = 0;
  double zipf_theta = 0.8;
  /// Ops run before measuring, to fill caches and finish lazy set-up.
  int warmup_ops = 0;
  /// Virtual-time samples come from the first this-many measured ops of a
  /// round only, so one seed gives identical virtual medians in every round
  /// and run; a round measures at least this many ops.
  int vtime_ops = 0;
  /// Workload whose rounds a traced run adds for the net.* metrics (the
  /// same kind of traffic over loopback TCP); empty for none.
  std::string tcp_twin;
};

/// Returns false for an unknown workload name.
bool SpecFor(const std::string& name, WorkloadSpec* spec);

/// Latency samples of measured ops.
struct Samples {
  std::vector<double> commit_to_display_us, commit_to_display_vms;
  std::vector<double> update_txn_us, update_txn_vms;
  std::vector<double> view_open_ms, view_open_vms, redraw_us;
};

/// Per-layer counts and histogram buckets gathered over traced rounds.
struct LayerData {
  std::map<std::string, double> counts;
  std::map<std::string, std::vector<uint64_t>> buckets;
};

struct RoundOutcome {
  double setup_s = 0;
  /// Peak resident set once the deployment is built and warm, before the
  /// measured phase (whose WAL growth scales with throughput).
  double rss_after_warmup_mb = 0;
  /// Spans of the measured phase of a traced round.
  std::vector<SpanRecord> spans;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// First few failure descriptions, for the log.
  std::vector<std::string> failures;
  int transport_io_threads = 0;
  int transport_worker_threads = 0;
};

/// Builds a fresh deployment (timed as set-up), warms it, measures for
/// `measure_s` seconds, drains and checks the displays, and tears it down.
/// With `traced`, spans are recorded during the measured phase and layer
/// counters are added to `layers`.
RoundOutcome RunRound(const WorkloadSpec& spec, uint64_t seed,
                      double measure_s, bool traced, Samples* samples,
                      LayerData* layers);

}  // namespace perfbench
