// Per-connection state machine for the event-driven transport.
//
// A Conn owns one nonblocking socket registered with one EventLoop. The
// read side decodes frames incrementally — partial headers and payloads
// accumulate across readiness events — and hands complete frames to the
// Handler on the loop thread. The write side is a bounded queue of
// outbound frames drained with vectored writev, also on the loop thread:
// any thread may EnqueueFrame(), the loop does the socket I/O, and
// EPOLLOUT is armed only while a partial write is outstanding.
//
// Fan-out frames are queued as (head, body) pairs: `head` carries the
// 13-byte frame header plus per-connection metadata (trace context,
// envelope addressing), `body` is a refcounted SharedBuf holding the
// payload tail that every subscriber shares. writev stitches the two on
// the wire, so a NOTIFY fan-out to N subscribers serializes the message
// body exactly once (net/shared_buf.h).
//
// Backpressure: `write_backlogged()` reports when queued bytes exceed the
// watermark. The transport stops draining a connection's notification
// inbox while backlogged — the backlog then accumulates in the *bounded*
// inbox where the overload ladder (coalesce → resync, DESIGN.md §9)
// applies — and resumes via Handler::OnWriteDrained when the queue empties
// below the watermark.

#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "common/metrics.h"
#include "net/event_loop.h"
#include "net/shared_buf.h"
#include "net/socket.h"
#include "net/wire.h"

namespace idba {

class Conn : public EventLoop::Handler,
             public std::enable_shared_from_this<Conn> {
 public:
  /// Transport semantics, invoked on the loop thread.
  class Handler {
   public:
    virtual ~Handler() = default;
    /// A complete, validated frame arrived.
    virtual void OnFrame(Conn* conn, const wire::FrameHeader& header,
                         std::vector<uint8_t> payload) = 0;
    /// The write queue drained below the watermark after having been above
    /// it: outbound lanes held back by backpressure may refill now.
    virtual void OnWriteDrained(Conn* conn) = 0;
    /// The peer closed or a fatal error occurred. Called exactly once, on
    /// the loop thread, after the fd has been removed from the loop.
    virtual void OnClosed(Conn* conn) = 0;
  };

  struct Options {
    /// Notify lanes stop refilling while queued outbound bytes exceed this.
    size_t write_watermark_bytes = 256 * 1024;
    /// Raw-byte counters (optional; bumped on actual socket I/O).
    MirroredCounter* bytes_in = nullptr;
    MirroredCounter* bytes_out = nullptr;
  };

  Conn(EventLoop* loop, Socket sock, Handler* handler, Options opts);
  ~Conn() override;

  /// Sets the socket nonblocking and registers it with the loop. Call once
  /// before any traffic; safe from any thread.
  Status Register();

  int fd() const { return sock_.fd(); }
  EventLoop* loop() { return loop_; }
  Socket& socket() { return sock_; }

  /// Queues one outbound frame. `head` must already contain the encoded
  /// frame header (its payload_len covering head minus the header bytes,
  /// plus the body); `body` is the optional shared payload tail. Wakes the
  /// loop to flush. Thread-safe. Returns false when the connection is
  /// closed (the frame is dropped).
  bool EnqueueFrame(std::vector<uint8_t> head, SharedBuf body = {});

  /// Convenience: frames `payload` exactly like Socket::WriteFrame and
  /// enqueues it.
  bool EnqueueWireFrame(wire::FrameType type, uint64_t seq,
                        const std::vector<uint8_t>& payload,
                        bool traced = false);
  /// Fan-out form: header + `meta` + shared `body` as one frame.
  bool EnqueueWireFrame(wire::FrameType type, uint64_t seq,
                        const std::vector<uint8_t>& meta, const SharedBuf& body,
                        bool traced);

  size_t write_queue_bytes() const;
  bool write_backlogged() const {
    return write_queue_bytes() > opts_.write_watermark_bytes;
  }

  /// Shuts the socket down in both directions; the loop observes the
  /// resulting EOF/HUP and runs the close path (Handler::OnClosed). Safe
  /// from any thread, repeatedly.
  void Kill();

  /// Posts the full close path (deregister + Handler::OnClosed) to the
  /// loop, without waiting for the peer's EOF to be observed. Safe from any
  /// thread, repeatedly; used at server shutdown and when registration
  /// fails.
  void Close();

  bool closed() const { return closed_.load(std::memory_order_acquire); }
  /// Monotonic wall clock (obs::NowUs) of the last byte read; the
  /// transport's idle scan compares against it.
  int64_t last_read_us() const {
    return last_read_us_.load(std::memory_order_relaxed);
  }

  // EventLoop::Handler
  void OnEvents(uint32_t events) override;

 private:
  struct OutFrame {
    std::vector<uint8_t> head;
    SharedBuf body;
    size_t offset = 0;  ///< bytes of head+body already written
    size_t size() const { return head.size() + body.size(); }
  };

  void HandleReadable();
  /// Drains the write queue with writev until empty or EAGAIN; manages the
  /// EPOLLOUT arm/disarm and fires OnWriteDrained. Loop thread only.
  void Flush();
  /// Schedules Flush() on the loop (deduplicated). Any thread.
  void ScheduleFlush();
  void CloseOnLoop();

  EventLoop* loop_;
  Socket sock_;
  Handler* handler_;  ///< nulled on close (loop thread)
  Options opts_;

  // Read state: loop thread only.
  std::vector<uint8_t> rbuf_;
  size_t rpos_ = 0;  ///< consumed prefix of rbuf_

  // Write state: queue shared with enqueuers, socket I/O loop-thread only.
  mutable std::mutex out_mu_;
  std::deque<OutFrame> out_;
  size_t out_bytes_ = 0;           ///< guarded by out_mu_
  bool epollout_armed_ = false;    ///< loop thread only
  bool was_backlogged_ = false;    ///< guarded by out_mu_
  std::atomic<bool> flush_scheduled_{false};
  std::atomic<bool> closed_{false};
  std::atomic<int64_t> last_read_us_{0};
  /// In the loop's epoll set. Written by the registering thread, read on
  /// the loop thread once events can arrive.
  std::atomic<bool> registered_{false};

  Histogram* write_queue_hist_ = nullptr;
  Counter* writev_calls_ = nullptr;
  Counter* partial_writes_ = nullptr;
  Counter* frames_in_ = nullptr;
  Counter* frames_out_ = nullptr;
};

}  // namespace idba
