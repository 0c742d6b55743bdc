// Epoll readiness loop: the core of the event-driven transport.
//
// One EventLoop owns one epoll instance and one thread. Nonblocking fds are
// registered level-triggered with a Handler (an unread byte re-arms the fd
// on the next poll, so a handler may stop reading early without losing
// data); the loop thread dispatches readiness events to the handlers, runs
// posted tasks, and optionally fires a periodic tick (used by the
// transport for idle-connection scans). An eventfd wakes the loop from
// other threads (Post/Wakeup), so cross-thread work lands on the loop
// promptly without polling.
//
// Handler lifetime contract: a handler must stay alive until after it has
// been Del()ed on the loop thread AND any task posted before the Del has
// run. The transport guarantees this by releasing connection references
// only through Post(), which the loop runs *after* dispatching the current
// ready set — so a handler can never be destroyed while an event for it is
// still pending in the same epoll batch.
//
// Metrics (shared across loops, PR-5 registry):
//   net.loop.wait_us      histogram of epoll_wait block time
//   net.loop.dispatch_us  histogram of per-poll dispatch (events + tasks)
//   net.loop.ready        histogram of ready-set sizes (fds per poll)
//   net.loop.polls        epoll_wait returns
//   net.loop.wakeups      eventfd wakeups (Post/Wakeup calls delivered)
//   net.loop.lag_us       histogram of Post()-to-run latency of posted tasks
// With Options::metric_prefix set (e.g. "net.loop.0"), the loop also feeds
// <prefix>.lag_us / <prefix>.wakeups so idba_top can show per-loop skew.
//
// Health integration (PR-8, obs/health.h): the loop thread registers under
// Options::role, stamps its epoch every iteration, and flips `working` off
// around the epoll_wait block — so the watchdog distinguishes "idle in
// epoll" from "stuck dispatching" and the profiler can sample loop threads
// by role.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"

namespace idba {

class EventLoop {
 public:
  /// Receives readiness events for one registered fd, on the loop thread.
  class Handler {
   public:
    virtual ~Handler() = default;
    /// `events` is the EPOLL* bitmask reported by epoll_wait.
    virtual void OnEvents(uint32_t events) = 0;
  };

  struct Options {
    /// When > 0, `on_tick` fires at least this often (the poll timeout is
    /// capped accordingly). 0 = block indefinitely between events.
    int64_t tick_interval_ms = 0;
    std::function<void()> on_tick;
    /// Thread role registered with the health registry ("io-loop-0", ...).
    std::string role = "io-loop";
    /// When non-empty, per-loop <prefix>.lag_us / <prefix>.wakeups series
    /// are fed alongside the shared net.loop.* ones.
    std::string metric_prefix;
  };

  EventLoop();
  explicit EventLoop(Options opts);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Creates the epoll/eventfd pair and starts the loop thread.
  Status Start();
  /// Stops and joins the loop thread, then drains any leftover posted
  /// tasks on the calling thread (so deferred releases still run).
  void Stop();
  bool running() const { return running_.load(std::memory_order_relaxed); }

  /// Registers `fd` for `events` (EPOLLIN etc.). Thread-safe.
  Status Add(int fd, uint32_t events, Handler* handler);
  /// Re-arms `fd` with a new event mask. Thread-safe.
  Status Mod(int fd, uint32_t events, Handler* handler);
  /// Removes `fd` from the epoll set. Thread-safe; idempotent after Stop.
  Status Del(int fd);

  /// Runs `fn` on the loop thread and wakes it. Safe from any thread,
  /// including the loop thread itself (runs after the current dispatch).
  /// After Stop, the task runs inline on the calling thread.
  void Post(std::function<void()> fn);

  /// Wakes a blocked epoll_wait without queueing work.
  void Wakeup();

  /// Test-only: posts a task that busy-waits `ms` on the loop thread
  /// without stamping the health epoch, so the watchdog sees a genuine
  /// stall (the loop is `working` with a frozen epoch).
  void InjectStallForTest(int64_t ms);

  bool InLoopThread() const {
    return std::this_thread::get_id() ==
           thread_id_.load(std::memory_order_relaxed);
  }

 private:
  void Run();
  void DrainTasks();

  Options opts_;
  int epoll_fd_ = -1;
  int event_fd_ = -1;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<std::thread::id> thread_id_{};

  /// A posted task plus its enqueue time, so DrainTasks can histogram the
  /// Post()-to-run lag the watchdog/idba_top reason about.
  struct PostedTask {
    std::function<void()> fn;
    int64_t posted_us = 0;
  };

  std::mutex tasks_mu_;
  std::vector<PostedTask> tasks_;

  Histogram* wait_us_ = nullptr;
  Histogram* dispatch_us_ = nullptr;
  Histogram* ready_ = nullptr;
  Histogram* lag_us_ = nullptr;
  Counter* polls_ = nullptr;
  Counter* wakeups_ = nullptr;
  Histogram* loop_lag_us_ = nullptr;  ///< per-loop, only with metric_prefix
  Counter* loop_wakeups_ = nullptr;   ///< per-loop, only with metric_prefix
};

}  // namespace idba
