#include "net/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "obs/health.h"
#include "obs/trace.h"

namespace idba {

namespace {

Status Errno(const char* what) {
  return Status::IOError(std::string(what) + ": " + std::strerror(errno));
}

constexpr int kMaxEvents = 256;

}  // namespace

EventLoop::EventLoop() : EventLoop(Options()) {}

EventLoop::EventLoop(Options opts) : opts_(std::move(opts)) {
  MetricsRegistry& reg = GlobalMetrics();
  wait_us_ = reg.GetHistogram("net.loop.wait_us");
  dispatch_us_ = reg.GetHistogram("net.loop.dispatch_us");
  ready_ = reg.GetHistogram("net.loop.ready");
  lag_us_ = reg.GetHistogram("net.loop.lag_us");
  polls_ = reg.GetCounter("net.loop.polls");
  wakeups_ = reg.GetCounter("net.loop.wakeups");
  if (!opts_.metric_prefix.empty()) {
    loop_lag_us_ = reg.GetHistogram(opts_.metric_prefix + ".lag_us");
    loop_wakeups_ = reg.GetCounter(opts_.metric_prefix + ".wakeups");
  }
}

EventLoop::~EventLoop() { Stop(); }

Status EventLoop::Start() {
  if (running_.load()) return Status::OK();
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return Errno("epoll_create1");
  event_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (event_fd_ < 0) {
    Status st = Errno("eventfd");
    ::close(epoll_fd_);
    epoll_fd_ = -1;
    return st;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = nullptr;  // sentinel: the wakeup eventfd
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev) != 0) {
    Status st = Errno("epoll_ctl(eventfd)");
    ::close(event_fd_);
    ::close(epoll_fd_);
    event_fd_ = epoll_fd_ = -1;
    return st;
  }
  running_.store(true);
  thread_ = std::thread([this] { Run(); });
  return Status::OK();
}

void EventLoop::Stop() {
  if (running_.exchange(false)) {
    Wakeup();
  }
  if (thread_.joinable()) thread_.join();
  // Deferred releases (connection teardown) must still run even though the
  // loop thread is gone; they are safe on the caller now that no thread
  // dispatches events anymore.
  DrainTasks();
  if (event_fd_ >= 0) {
    ::close(event_fd_);
    event_fd_ = -1;
  }
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
}

Status EventLoop::Add(int fd, uint32_t events, Handler* handler) {
  if (epoll_fd_ < 0) return Status::Internal("event loop not started");
  epoll_event ev{};
  ev.events = events;
  ev.data.ptr = handler;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    return Errno("epoll_ctl(add)");
  }
  return Status::OK();
}

Status EventLoop::Mod(int fd, uint32_t events, Handler* handler) {
  if (epoll_fd_ < 0) return Status::Internal("event loop not started");
  epoll_event ev{};
  ev.events = events;
  ev.data.ptr = handler;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
    return Errno("epoll_ctl(mod)");
  }
  return Status::OK();
}

Status EventLoop::Del(int fd) {
  if (epoll_fd_ < 0) return Status::OK();  // already shut down
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr) != 0) {
    return Errno("epoll_ctl(del)");
  }
  return Status::OK();
}

void EventLoop::Post(std::function<void()> fn) {
  if (!running_.load(std::memory_order_acquire)) {
    fn();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(tasks_mu_);
    tasks_.push_back(PostedTask{std::move(fn), obs::NowUs()});
  }
  Wakeup();
}

void EventLoop::InjectStallForTest(int64_t ms) {
  Post([ms] {
    const int64_t deadline = obs::NowUs() + ms * 1000;
    // Deliberately no HealthEpochBump: from the watchdog's view this is a
    // dispatch that never finishes. nanosleep may be cut short by capture
    // signals; the loop re-checks the deadline.
    while (obs::NowUs() < deadline) {
      timespec ts{0, 1'000'000};
      ::nanosleep(&ts, nullptr);
    }
  });
}

void EventLoop::Wakeup() {
  if (event_fd_ < 0) return;
  uint64_t one = 1;
  ssize_t rc;
  do {
    rc = ::write(event_fd_, &one, sizeof(one));
  } while (rc < 0 && errno == EINTR);
  // EAGAIN means the counter is already nonzero: the loop is waking anyway.
}

void EventLoop::DrainTasks() {
  for (;;) {
    std::vector<PostedTask> tasks;
    {
      std::lock_guard<std::mutex> lock(tasks_mu_);
      if (tasks_.empty()) return;
      tasks.swap(tasks_);
    }
    const int64_t now = obs::NowUs();
    for (auto& task : tasks) {
      const double lag = static_cast<double>(now - task.posted_us);
      lag_us_->Record(lag);
      if (loop_lag_us_ != nullptr) loop_lag_us_->Record(lag);
      task.fn();
    }
  }
}

void EventLoop::Run() {
  thread_id_.store(std::this_thread::get_id(), std::memory_order_relaxed);
  obs::RegisterThisThread(opts_.role);
  epoll_event events[kMaxEvents];
  int64_t last_tick_us = obs::NowUs();
  const int timeout_ms =
      opts_.tick_interval_ms > 0 ? static_cast<int>(opts_.tick_interval_ms)
                                 : -1;
  while (running_.load(std::memory_order_relaxed)) {
    const int64_t wait_start = obs::NowUs();
    obs::SetThreadWorking(false);  // blocked in epoll is idle, not stalled
    int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
    obs::SetThreadWorking(true);
    obs::HealthEpochBump();
    const int64_t dispatch_start = obs::NowUs();
    wait_us_->Record(static_cast<double>(dispatch_start - wait_start));
    polls_->Add();
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd itself failed; nothing sensible left to do
    }
    ready_->Record(static_cast<double>(n));
    for (int i = 0; i < n; ++i) {
      if (events[i].data.ptr == nullptr) {
        uint64_t drain = 0;
        while (::read(event_fd_, &drain, sizeof(drain)) > 0) {
        }
        wakeups_->Add();
        if (loop_wakeups_ != nullptr) loop_wakeups_->Add();
        continue;
      }
      static_cast<Handler*>(events[i].data.ptr)->OnEvents(events[i].events);
    }
    // Tasks run after the ready set: a task that releases a handler cannot
    // race an event dispatched in the same batch (see header contract).
    DrainTasks();
    if (opts_.on_tick && opts_.tick_interval_ms > 0) {
      const int64_t now = obs::NowUs();
      if (now - last_tick_us >= opts_.tick_interval_ms * 1000) {
        last_tick_us = now;
        opts_.on_tick();
      }
    }
    dispatch_us_->Record(static_cast<double>(obs::NowUs() - dispatch_start));
  }
  obs::SetThreadWorking(false);
  obs::UnregisterThisThread();
  thread_id_.store(std::thread::id(), std::memory_order_relaxed);
}

}  // namespace idba
