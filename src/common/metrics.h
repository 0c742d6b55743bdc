// Lightweight counters and histograms used by every subsystem, and a
// registry that experiment harnesses snapshot and print.
//
// Histograms are lock-striped: Record() touches only the calling thread's
// shard (threads map to shards by their small sequential id), so
// instrumenting per-RPC hot paths does not serialize the server the way a
// single global mutex would. Readers merge the shards, which is the rare
// path. bench_micro_core's BM_HistogramRecordContended measures the
// difference.
//
// Components cache Counter*/Histogram* pointers obtained from the registry
// at construction; GetCounter/GetHistogram take the registry mutex and must
// stay off hot paths (notification fan-out, per-RPC accounting).

#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace idba {

/// Thread-safe monotonically increasing counter.
class Counter {
 public:
  void Add(uint64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  uint64_t Get() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A per-instance counter that optionally feeds a shared registry counter.
/// Components with many instances per process (buffer pools, object caches,
/// transports) keep exact per-object counts for their accessors while the
/// registry — and therefore STATS/METRICS/Prometheus — sees the canonical
/// aggregate series across all instances.
class MirroredCounter {
 public:
  void BindGlobal(Counter* global) { global_ = global; }
  void Add(uint64_t delta = 1) {
    local_.Add(delta);
    if (global_ != nullptr) global_->Add(delta);
  }
  uint64_t Get() const { return local_.Get(); }
  void Reset() { local_.Reset(); }

 private:
  Counter local_;
  Counter* global_ = nullptr;
};

/// Point-in-time value computed on read (queue depth, bytes cached, dirty
/// ratio). Multiple registrants may share one name — e.g. one ObjectCache
/// per in-process client — and readers see the SUM of all live callbacks.
/// Callbacks run under the registry mutex (so unregistration synchronizes
/// with in-flight snapshots) and must therefore never call back into the
/// registry.
using GaugeFn = std::function<double()>;

/// Point-in-time merged view of a histogram.
struct HistogramSnapshot {
  uint64_t count = 0;
  double sum = 0;
  double mean = 0;
  double min = 0;
  double max = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
};

/// Thread-safe histogram with power-of-two-ish buckets plus exact
/// min/max/sum. Value unit is caller-defined (microseconds, bytes, ...).
class Histogram {
 public:
  void Record(double value);

  uint64_t count() const;
  double sum() const;
  double mean() const;
  double min() const;
  double max() const;
  /// Approximate quantile via bucket interpolation (q in [0,1]).
  double Percentile(double q) const;
  void Reset();

  /// One consistent merged view (count/mean/percentiles from the same
  /// merge, unlike calling the accessors separately).
  HistogramSnapshot Snapshot() const;

  /// "count=N mean=X p50=... p99=... max=..."
  std::string Summary() const;

  /// Fixed bucket layout, exposed for exporters that need per-bucket counts
  /// (Prometheus `_bucket` series, from which tools/prom_text.h computes
  /// per-window percentiles out of bucket-count deltas).
  static constexpr int kNumBuckets = 128;
  /// Merged per-bucket (non-cumulative) counts; size kNumBuckets.
  std::vector<uint64_t> BucketCounts() const;
  /// Inclusive upper bound of bucket `b` (+inf style growth capped at the
  /// last bucket, whose bound exporters should render as +Inf).
  static double BucketUpperBound(int b);

 private:
  static constexpr int kBuckets = kNumBuckets;
  static constexpr int kShards = 8;
  static int BucketFor(double v);
  static double BucketLowerBound(int b);

  /// One lock stripe. Padded to its own cache lines so concurrent writers
  /// on different shards do not false-share.
  struct alignas(64) Shard {
    mutable std::mutex mu;
    uint64_t counts[kBuckets] = {};
    uint64_t total_count = 0;
    double total_sum = 0;
    double min = 0;
    double max = 0;
  };

  /// Merged totals; percentile needs the merged bucket array too.
  struct Merged {
    uint64_t counts[kBuckets] = {};
    uint64_t total_count = 0;
    double total_sum = 0;
    double min = 0;
    double max = 0;
  };
  Merged Merge() const;
  static double PercentileOf(const Merged& m, double q);

  Shard shards_[kShards];
};

/// Named registry of counters, gauges and histograms. Components hold
/// pointers obtained at construction; lookups are not on the hot path.
class MetricsRegistry {
 public:
  Counter* GetCounter(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Registers a gauge callback under `name`; returns a token for
  /// UnregisterGauge. Multiple live registrations of one name are summed on
  /// read. Prefer the RAII ScopedGauge over calling these directly.
  uint64_t RegisterGauge(const std::string& name, GaugeFn fn);
  void UnregisterGauge(const std::string& name, uint64_t token);

  /// Snapshot of all counter values (name -> value).
  std::map<std::string, uint64_t> CounterSnapshot() const;
  /// Snapshot of all gauges (name -> summed value of live registrants).
  std::map<std::string, double> GaugeSnapshot() const;
  /// One consistent snapshot per histogram (name -> merged view).
  std::map<std::string, HistogramSnapshot> HistogramSnapshots() const;
  /// The histogram objects themselves (stable pointers; histograms are
  /// never removed), for exporters that need bucket-level access.
  std::map<std::string, Histogram*> HistogramHandles() const;

  /// Multi-line human-readable dump of all metrics.
  std::string Dump() const;
  /// One JSON object: {"counters":{name:value,...},"gauges":{...},
  /// "histograms":{name:{"count":..,"mean":..,"p50":..,...},...}}.
  std::string DumpJson() const;
  void ResetAll();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::map<uint64_t, GaugeFn>> gauges_;
  uint64_t next_gauge_token_ = 1;
};

/// RAII gauge registration: registers on construction, unregisters on
/// destruction. Components embed one per exported gauge so an instance's
/// contribution disappears exactly when the instance dies.
class ScopedGauge {
 public:
  ScopedGauge() = default;
  ScopedGauge(MetricsRegistry* reg, std::string name, GaugeFn fn)
      : reg_(reg), name_(std::move(name)) {
    token_ = reg_->RegisterGauge(name_, std::move(fn));
  }
  ~ScopedGauge() { Release(); }
  ScopedGauge(ScopedGauge&& o) noexcept { *this = std::move(o); }
  ScopedGauge& operator=(ScopedGauge&& o) noexcept {
    Release();
    reg_ = o.reg_;
    name_ = std::move(o.name_);
    token_ = o.token_;
    o.reg_ = nullptr;
    return *this;
  }
  ScopedGauge(const ScopedGauge&) = delete;
  ScopedGauge& operator=(const ScopedGauge&) = delete;

  void Release() {
    if (reg_ != nullptr) {
      reg_->UnregisterGauge(name_, token_);
      reg_ = nullptr;
    }
  }

 private:
  MetricsRegistry* reg_ = nullptr;
  std::string name_;
  uint64_t token_ = 0;
};

/// The process-wide registry. Instrumentation in the server, transport and
/// display stack records here (metric names follow `subsystem.verb.unit`,
/// see DESIGN.md "Observability"); idba_serve --metrics-interval and the
/// STATS admin RPC export it.
MetricsRegistry& GlobalMetrics();

}  // namespace idba
