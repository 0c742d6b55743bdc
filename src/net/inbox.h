// Per-endpoint queue of incoming asynchronous messages.
//
// By default the queue is unbounded (the seed behaviour). With
// InboxOptions::max_pending set, the inbox runs both steps of the
// slow-consumer ladder (DESIGN.md §9), coalesce and then resync. Once the
// queue reaches the coalesce watermark, a newly delivered envelope is
// merged into the most recently queued one when the messages are
// coalescible (Message::CoalesceWith — latest-version-wins, sound for
// display notifications); when the queue is full and the pair is not
// coalescible, the whole backlog is shed and the inbox enters *overflow*
// state: further deliveries are dropped and counted until the consumer
// acknowledges via TakeOverflow() and resynchronizes (refetch displayed
// state). Only the
// newest queued envelope is a merge candidate, so queue order — in
// particular the relative order of intent notices and their resolutions —
// is never disturbed.

#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"
#include "net/message.h"
#include "obs/trace.h"

namespace idba {

struct InboxOptions {
  /// Queue bound; 0 = unbounded (coalescing and overflow never trigger).
  size_t max_pending = 0;
  /// Start coalescing at this depth instead of only when full; 0 means
  /// "only when full". Ignored when max_pending == 0.
  size_t coalesce_watermark = 0;
  /// Called (outside the inbox lock, on the delivering thread) after each
  /// overflow — the transport uses it to mark the subscriber stale before
  /// its flush runs.
  std::function<void()> overflow_hook;
  /// Called (outside the inbox lock) after every delivery, including shed
  /// ones. The event-driven transport installs a hook that posts a flush to
  /// the owning event loop — its notifier is a loop task, not a thread
  /// blocked in WaitNext, so the cv notify alone would not reach it.
  std::function<void()> wakeup_hook;
  /// Optional metric mirrors, bumped on the corresponding events (cache
  /// the GlobalMetrics pointers at construction; lookups stay off the
  /// delivery path).
  MirroredCounter* coalesced_metric = nullptr;
  MirroredCounter* shed_metric = nullptr;
  MirroredCounter* overflow_metric = nullptr;
};

/// What a delivery did (observable by tests and by delivering transports).
enum class DeliverOutcome {
  kQueued,     ///< appended normally
  kCoalesced,  ///< merged into the newest queued envelope
  kShed,       ///< dropped (overflow state: the consumer owes a resync)
  kOverflow,   ///< backlog shed; inbox now in overflow state
};

/// Thread-safe FIFO of envelopes. Producers are the NotificationBus;
/// consumers are client notification-pump threads (or tests pumping
/// manually for determinism).
class Inbox {
 public:
  Inbox() = default;
  explicit Inbox(InboxOptions opts) : opts_(std::move(opts)) {}

  /// Result of WaitNext: `envelope` when one was dequeued; otherwise
  /// `closed` distinguishes "inbox closed and fully drained" (no more will
  /// ever come) from a plain timeout or an external Kick().
  struct Next {
    std::optional<Envelope> envelope;
    bool closed = false;
  };

  DeliverOutcome Deliver(Envelope e) {
    DeliverOutcome outcome;
    uint64_t trace_id = e.trace_id, trace_span = e.trace_span;
    {
      std::lock_guard<std::mutex> lock(mu_);
      outcome = DeliverLocked(std::move(e));
    }
    cv_.notify_all();
    if (opts_.wakeup_hook) opts_.wakeup_hook();
    if (opts_.overflow_hook && outcome == DeliverOutcome::kOverflow) {
      opts_.overflow_hook();
    }
    // Annotate the triggering operation's trace with the degradation the
    // subscriber experienced (zero-length marker spans).
    if (trace_id != 0 && outcome != DeliverOutcome::kQueued) {
      obs::SpanRecord mark;
      mark.trace_id = trace_id;
      mark.span_id = obs::NewSpanId();
      mark.parent_id = trace_span;
      mark.start_us = obs::NowUs();
      mark.dur_us = 0;
      mark.tid = ThisThreadId();
      mark.name = outcome == DeliverOutcome::kCoalesced ? "notify.coalesced"
                  : outcome == DeliverOutcome::kOverflow ? "notify.overflow"
                                                         : "notify.shed";
      obs::GlobalRecorder().Record(std::move(mark));
    }
    return outcome;
  }

  /// Non-blocking: next message if any.
  std::optional<Envelope> Poll() {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) return std::nullopt;
    Envelope e = std::move(queue_.front());
    queue_.pop_front();
    return e;
  }

  /// Blocks up to `timeout_ms` (real time) for the next message. Messages
  /// still queued when the inbox closes are drained before `closed` is
  /// reported.
  Next WaitNext(int64_t timeout_ms) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                 [&] { return !queue_.empty() || closed_ || kicked_; });
    kicked_ = false;
    Next next;
    if (queue_.empty()) {
      next.closed = closed_;
      return next;
    }
    next.envelope = std::move(queue_.front());
    queue_.pop_front();
    return next;
  }

  /// Wakes one WaitNext() spuriously (returns with neither envelope nor
  /// closed). The transport notifier uses this to interleave another
  /// outbound lane (callbacks) without waiting out the poll interval.
  void Kick() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      kicked_ = true;
    }
    cv_.notify_all();
  }

  /// Removes and returns everything queued.
  std::vector<Envelope> DrainAll() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Envelope> out(std::make_move_iterator(queue_.begin()),
                              std::make_move_iterator(queue_.end()));
    queue_.clear();
    return out;
  }

  /// True once since the last call iff the queue overflowed in between:
  /// the backlog was shed and deliveries were dropped. The consumer must
  /// resynchronize (treat all subscribed state as stale and refetch);
  /// acknowledging re-opens the queue.
  bool TakeOverflow() {
    std::lock_guard<std::mutex> lock(mu_);
    bool was = in_overflow_;
    in_overflow_ = false;
    return was;
  }

  size_t pending() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.size();
  }

  // --- degradation counters (cumulative) --------------------------------
  uint64_t coalesced() const { return coalesced_.Get(); }
  uint64_t shed() const { return shed_.Get(); }
  uint64_t overflows() const { return overflows_.Get(); }

  /// Wakes all waiters permanently (client shutdown).
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

 private:
  DeliverOutcome DeliverLocked(Envelope e) {
    if (in_overflow_) {
      // Between overflow and the consumer's resync everything is shed; the
      // resync refetches current state, so these deliveries add nothing.
      shed_.Add();
      if (opts_.shed_metric) opts_.shed_metric->Add();
      return DeliverOutcome::kShed;
    }
    if (opts_.max_pending == 0 || queue_.size() < Watermark()) {
      queue_.push_back(std::move(e));
      return DeliverOutcome::kQueued;
    }
    // At or above the watermark: try to merge into the newest queued
    // envelope (only the newest — merging deeper would reorder messages
    // across what sits between).
    Envelope& back = queue_.back();
    if (back.from == e.from && back.to == e.to && back.msg && e.msg) {
      if (auto merged = back.msg->CoalesceWith(*e.msg)) {
        back.msg = std::move(merged);
        // The merged envelope represents state as of the newer message.
        back.sent_at = e.sent_at;
        back.arrives_at = std::max(back.arrives_at, e.arrives_at);
        back.wire_bytes = back.msg->WireBytes();
        back.trace_id = e.trace_id;
        back.trace_span = e.trace_span;
        coalesced_.Add();
        if (opts_.coalesced_metric) opts_.coalesced_metric->Add();
        return DeliverOutcome::kCoalesced;
      }
    }
    if (queue_.size() < opts_.max_pending) {
      queue_.push_back(std::move(e));
      return DeliverOutcome::kQueued;
    }
    // Full and not coalescible: shed the whole backlog (bounded memory) and
    // flag overflow — the consumer must resync before the queue re-opens.
    shed_.Add(queue_.size() + 1);
    if (opts_.shed_metric) opts_.shed_metric->Add(queue_.size() + 1);
    queue_.clear();
    in_overflow_ = true;
    overflows_.Add();
    if (opts_.overflow_metric) opts_.overflow_metric->Add();
    // Wake the consumer even though the queue is empty, so a notifier
    // blocked in WaitNext() reacts to the overflow promptly.
    kicked_ = true;
    return DeliverOutcome::kOverflow;
  }

  size_t Watermark() const {
    if (opts_.coalesce_watermark == 0) return opts_.max_pending;
    return std::min(opts_.coalesce_watermark, opts_.max_pending);
  }

  InboxOptions opts_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Envelope> queue_;
  bool closed_ = false;
  bool kicked_ = false;
  bool in_overflow_ = false;
  Counter coalesced_, shed_, overflows_;
};

}  // namespace idba
