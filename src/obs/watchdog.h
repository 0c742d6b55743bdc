// Stall watchdog (DESIGN.md §13). Reactor loops and workers stamp a
// per-thread epoch (obs/health.h HealthEpochBump) each iteration/dispatch
// and mark themselves `working` while executing dispatched work. The
// watchdog thread polls those stamps: a thread that stays `working` with a
// frozen epoch past the threshold is stalled — the watchdog logs WARN with
// the thread's symbolized stack, bumps health.stalls_total (and the
// per-role health.stalls.<role> counter), records a `stall` flight event,
// and writes a flight dump for post-mortem, once per stall episode (the
// report re-arms when the epoch moves again).
//
// Threads blocked in epoll_wait / the run-queue wait are idle, not stalled:
// they clear `working` first, so the watchdog never flags them.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "obs/health.h"

namespace idba {

class Counter;

namespace obs {

struct WatchdogOptions {
  /// A working thread whose epoch is frozen this long is stalled. The
  /// watchdog polls every threshold_ms / 4 (at least 5 ms).
  int64_t threshold_ms = 1000;
  /// When non-empty, each stall also writes a flight dump here.
  std::string flight_dump_path;
  /// Test/installer hook, called after the standard reporting.
  std::function<void(const ThreadSnapshot&, const std::string& stack)>
      on_stall;
};

class Watchdog {
 public:
  explicit Watchdog(WatchdogOptions opts = {});
  ~Watchdog();

  void Start();
  void Stop();
  bool running() const;

  /// Stall episodes reported since Start().
  uint64_t stalls() const;

 private:
  void Main();

  WatchdogOptions opts_;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> stalls_{0};
  Counter* stalls_total_;
};

}  // namespace obs
}  // namespace idba
