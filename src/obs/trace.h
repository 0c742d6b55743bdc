// Distributed trace spans for the client/server stack.
//
// A TraceContext (trace_id, span_id) is allocated at a client API call and
// travels in REQUEST/NOTIFY/CALLBACK wire frames (net/wire.h TraceInfo,
// flagged by the traced bit of the frame-type byte). Each side
// opens child spans around its own stages — client serialize / network /
// reply deserialize, server queue wait / lock acquisition / storage I/O /
// commit / callback fan-out — and records them into a lock-striped
// in-memory ring buffer exportable as Chrome trace_event JSON (load in
// chrome://tracing or https://ui.perfetto.dev) or as JSONL.
//
// Span timing is wall-clock microseconds since process start (steady
// clock). The process id disambiguates multi-process traces; thread ids are
// the same small sequential ids the logger prints, so log lines and trace
// events correlate.
//
// Propagation inside a process is a thread-local current context:
// Span::Start() opens a child of the current span and installs itself as
// current for its lifetime, so nested instrumentation (commit -> WAL flush
// -> page write) forms a tree without threading arguments through every
// signature. When no trace is active, Span::Start() costs one thread-local
// load and a branch — that is the "compiled in, sampling off" hot path the
// acceptance bound holds to < 3% on bench_transport.

#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace idba {
namespace obs {

/// Identity of a trace and one span within it. trace_id == 0 means "not
/// traced" everywhere.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;

  bool valid() const { return trace_id != 0; }
};

/// One finished span.
struct SpanRecord {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;
  int64_t start_us = 0;  ///< microseconds since process start
  int64_t dur_us = 0;
  uint64_t tid = 0;      ///< ThisThreadId() of the recording thread
  std::string name;      ///< span taxonomy name, e.g. "server.execute"
  std::string note;      ///< optional free-form annotation (method, oid, ...)
};

/// Microseconds since process start (steady clock).
int64_t NowUs();

/// Fresh globally-unlikely-to-collide ids (pid-salted counter).
uint64_t NewTraceId();
uint64_t NewSpanId();

// --- Sampling --------------------------------------------------------------

/// Enables/disables starting NEW root traces in this process. Child spans
/// of contexts that arrive over the wire are always recorded (the sampling
/// decision is the root's).
void SetTraceSampling(bool enabled);
bool TraceSamplingEnabled();

/// Record one root trace out of every `n` sampling opportunities (1 = all).
void SetTraceSampleEvery(uint32_t n);

/// True if a new root trace should start now: sampling enabled and this is
/// the n-th opportunity. Advances the opportunity counter.
bool SampleRoot();

// --- Current context (thread-local) ---------------------------------------

TraceContext CurrentContext();

/// Installs `ctx` as the thread's current trace context for the scope
/// (e.g. a server worker adopting the context a REQUEST frame carried).
class ScopedContext {
 public:
  explicit ScopedContext(TraceContext ctx);
  ~ScopedContext();
  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  TraceContext prev_;
};

// --- Recorder --------------------------------------------------------------

/// Lock-striped in-memory ring buffer of finished spans. Each stripe has
/// its own mutex and ring; threads map to stripes by id, so concurrent
/// span recording on different threads rarely contends. When a stripe
/// fills, its oldest spans are overwritten (ring semantics).
class TraceRecorder {
 public:
  static constexpr int kStripes = 8;

  explicit TraceRecorder(size_t capacity = 16384);

  void Record(SpanRecord span);

  /// All retained spans, ordered by start time.
  std::vector<SpanRecord> Snapshot() const;

  /// Chrome trace_event JSON: {"traceEvents":[{"ph":"X",...},...]}.
  std::string DumpChromeTrace() const;
  /// One JSON object per line (jq-friendly).
  std::string DumpJsonl() const;

  void Clear();
  size_t capacity() const { return capacity_; }
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

 private:
  struct Stripe {
    mutable std::mutex mu;
    std::vector<SpanRecord> ring;  ///< capacity_/kStripes slots
    size_t next = 0;               ///< next write position
    size_t used = 0;               ///< filled slots (<= ring.size())
  };

  size_t capacity_;
  Stripe stripes_[kStripes];
  std::atomic<uint64_t> dropped_{0};  ///< spans overwritten before export
};

/// The process-wide recorder all Span instrumentation writes to. Exported
/// by the TRACE_DUMP admin RPC and idba_serve's periodic dumps.
TraceRecorder& GlobalRecorder();

// --- RAII span -------------------------------------------------------------

/// An open span. Inactive spans (no trace in scope) are no-ops. An active
/// span installs its context as the thread-local current context until
/// End()/destruction, so spans opened below it become its children.
class Span {
 public:
  Span() = default;
  ~Span() { End(); }

  Span(Span&& other) noexcept;
  Span& operator=(Span&& other) noexcept;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Child of the thread's current context; inactive if there is none.
  static Span Start(const char* name);
  /// Child of an explicit parent (cross-thread/wire handoff).
  static Span StartChildOf(TraceContext parent, const char* name);
  /// New root span (new trace); inactive unless SampleRoot() fires.
  /// `force` starts it regardless of the sampling switch.
  static Span StartRoot(const char* name, bool force = false);

  bool active() const { return rec_.trace_id != 0; }
  TraceContext context() const { return {rec_.trace_id, rec_.span_id}; }

  /// Attaches a short annotation (ignored when inactive).
  void Note(const std::string& note);

  /// Records the span and restores the previous current context.
  /// Idempotent.
  void End();

 private:
  Span(SpanRecord rec, TraceContext prev, bool restore);

  SpanRecord rec_;          ///< trace_id == 0 => inactive
  TraceContext prev_;       ///< context to restore at End()
  bool restore_ = false;    ///< whether this span changed the TLS context
};

}  // namespace obs
}  // namespace idba

// Convenience: open a span named `name` for the rest of the enclosing
// scope, as a child of the thread's current trace (no-op when untraced).
#define IDBA_TRACE_CONCAT2(a, b) a##b
#define IDBA_TRACE_CONCAT(a, b) IDBA_TRACE_CONCAT2(a, b)
#define IDBA_TRACE_SPAN(name)                       \
  ::idba::obs::Span IDBA_TRACE_CONCAT(_idba_span_, __LINE__) = \
      ::idba::obs::Span::Start(name)
