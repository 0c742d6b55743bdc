#include "obs/watchdog.h"

#include <time.h>

#include <algorithm>

#include "common/logging.h"
#include "common/metrics.h"
#include "obs/flight.h"
#include "obs/trace.h"

namespace idba {
namespace obs {

namespace {

/// What the watchdog last saw of one slot.
struct Seen {
  uint64_t tid = 0;
  uint64_t epoch = 0;
  int64_t frozen_since_us = 0;  ///< first poll that saw this epoch working
  bool reported = false;        ///< one report per stall episode
};

}  // namespace

Watchdog::Watchdog(WatchdogOptions opts)
    : opts_(std::move(opts)),
      stalls_total_(GlobalMetrics().GetCounter("health.stalls_total")) {
  opts_.threshold_ms = std::max<int64_t>(opts_.threshold_ms, 10);
}

Watchdog::~Watchdog() { Stop(); }

void Watchdog::Start() {
  if (running_.exchange(true, std::memory_order_acq_rel)) return;
  stop_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] { Main(); });
}

void Watchdog::Stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stop_.store(true, std::memory_order_release);
  thread_.join();
  running_.store(false, std::memory_order_release);
}

bool Watchdog::running() const {
  return running_.load(std::memory_order_acquire);
}

uint64_t Watchdog::stalls() const {
  return stalls_.load(std::memory_order_relaxed);
}

void Watchdog::Main() {
  RegisterThisThread("watchdog", /*samplable=*/false);
  Seen seen[kMaxThreadSlots];
  // Polling at a quarter of the threshold lands detection between 1x and
  // ~1.5x threshold, comfortably under the 2x bound the watchdog test
  // asserts.
  const int64_t period_ms = std::max<int64_t>(opts_.threshold_ms / 4, 5);
  const timespec poll{period_ms / 1000, (period_ms % 1000) * 1'000'000};
  while (!stop_.load(std::memory_order_acquire)) {
    timespec left = poll;
    while (::nanosleep(&left, &left) != 0 && errno == EINTR) {
    }
    if (stop_.load(std::memory_order_acquire)) break;

    const int64_t now = NowUs();
    for (const ThreadSnapshot& t : SnapshotThreads()) {
      Seen& s = seen[t.slot];
      if (!t.working) {
        // Idle (blocked in epoll_wait / run-queue wait) is legitimate.
        s.tid = t.tid;
        s.epoch = t.epoch;
        s.frozen_since_us = 0;
        s.reported = false;
        continue;
      }
      if (s.tid != t.tid || s.epoch != t.epoch || s.frozen_since_us == 0) {
        // Progress (or a new occupant of the slot): re-arm.
        s.tid = t.tid;
        s.epoch = t.epoch;
        s.frozen_since_us = now;
        s.reported = false;
        continue;
      }
      const int64_t frozen_ms = (now - s.frozen_since_us) / 1000;
      if (s.reported || frozen_ms < opts_.threshold_ms) continue;
      s.reported = true;
      stalls_.fetch_add(1, std::memory_order_relaxed);
      stalls_total_->Add();
      GlobalMetrics().GetCounter("health.stalls." + t.role)->Add();
      FlightRecord(FlightType::kStall, static_cast<uint64_t>(t.slot),
                   static_cast<uint64_t>(frozen_ms));
      const std::string stack = CaptureSymbolizedStack(t.slot);
      IDBA_LOG_FIELDS(LogLevel::kWarn, "watchdog",
                      "thread stalled (working, epoch frozen); stack:\n" +
                          stack,
                      {{"role", t.role},
                       {"tid", std::to_string(t.tid)},
                       {"slot", std::to_string(t.slot)},
                       {"frozen_ms", std::to_string(frozen_ms)},
                       {"epoch", std::to_string(t.epoch)}});
      if (!opts_.flight_dump_path.empty()) {
        if (FlightDumpToFile(opts_.flight_dump_path)) {
          IDBA_LOG_FIELDS(LogLevel::kWarn, "watchdog",
                          "flight dump written",
                          {{"path", opts_.flight_dump_path}});
        }
      }
      if (opts_.on_stall) opts_.on_stall(t, stack);
    }
  }
  UnregisterThisThread();
}

}  // namespace obs
}  // namespace idba
