// Minimal POSIX TCP plumbing for the transport: RAII sockets, exact-length
// send/recv, and framed I/O (header + payload per net/wire.h).
//
// Blocking sockets only; concurrency comes from threads (one acceptor,
// per-connection reader/worker, see net/tcp_server.h). Writers must
// serialize frames externally (one mutex per connection) so a frame is
// never interleaved with another.
//
// Failure handling: ConnectTo takes an optional timeout (non-blocking
// connect + poll), SetRecvTimeout arms SO_RCVTIMEO so a blocked RecvAll /
// ReadFrame returns Status::TimedOut instead of hanging on a half-open
// peer, and an optional FaultInjector (net/fault_injector.h) can delay,
// drop, truncate, or fail individual frames for tests and fault-tolerance
// experiments.

#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "net/fault_injector.h"
#include "net/wire.h"

namespace idba {

/// RAII wrapper over a connected socket fd. Movable, not copyable.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) {
    other.fd_ = -1;
    std::lock_guard<std::mutex> lock(other.faults_mu_);
    faults_ = std::move(other.faults_);
  }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  /// Connects to host:port (numeric IPv4 or a resolvable name).
  /// `connect_timeout_ms` > 0 bounds the connect itself (non-blocking
  /// connect + poll, Status::TimedOut on expiry); 0 blocks indefinitely.
  static Result<Socket> ConnectTo(const std::string& host, uint16_t port,
                                  int64_t connect_timeout_ms = 0);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Sends exactly n bytes (loops over partial writes, retries EINTR).
  Status SendAll(const void* data, size_t n);
  /// Receives exactly n bytes; IOError("closed") on orderly peer shutdown,
  /// Status::TimedOut if a recv timeout is armed and expires.
  Status RecvAll(void* data, size_t n);

  /// Arms SO_RCVTIMEO: a recv blocked longer than `ms` fails with
  /// Status::TimedOut. 0 disarms (block forever, the default).
  Status SetRecvTimeout(int64_t ms);

  /// Toggles O_NONBLOCK. The event-driven server path (net/event_loop.h)
  /// requires nonblocking fds; the blocking client path leaves this off.
  Status SetNonBlocking(bool enable);

  /// Attaches a fault injector consulted once per frame by
  /// WriteFrame/ReadFrame; nullptr detaches. Safe to call while other
  /// threads are inside ReadFrame/WriteFrame (tests install rules against
  /// a live connection).
  void set_fault_injector(std::shared_ptr<FaultInjector> faults) {
    std::lock_guard<std::mutex> lock(faults_mu_);
    faults_ = std::move(faults);
  }
  std::shared_ptr<FaultInjector> fault_injector() const {
    std::lock_guard<std::mutex> lock(faults_mu_);
    return faults_;
  }

  /// Writes one frame (header + payload) atomically with respect to other
  /// WriteFrame calls through `write_mu`. `traced` sets the traced bit (the
  /// caller must already have prefixed the payload with an encoded
  /// TraceInfo).
  Status WriteFrame(std::mutex& write_mu, wire::FrameType type, uint64_t seq,
                    const std::vector<uint8_t>& payload,
                    MirroredCounter* bytes_out = nullptr, bool traced = false);

  /// Reads one frame. Blocks until a full frame arrives, the peer closes,
  /// or an armed recv timeout expires.
  Status ReadFrame(wire::FrameHeader* header, std::vector<uint8_t>* payload,
                   MirroredCounter* bytes_in = nullptr);

  /// Unblocks any thread inside RecvAll/SendAll (then Close()s later).
  void ShutdownBoth();
  void Close();

 private:
  int fd_ = -1;
  /// Guards faults_: set_fault_injector races the reader/heartbeat threads
  /// consulting it per frame.
  mutable std::mutex faults_mu_;
  std::shared_ptr<FaultInjector> faults_;
};

/// Listening socket. Binds loopback by default; remote deployments pass an
/// explicit bind address ("0.0.0.0" for all interfaces).
class Listener {
 public:
  Listener() = default;
  ~Listener() { Close(); }
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds and listens. `port` 0 picks an ephemeral port; the bound port is
  /// available from port() afterwards. `bind_host` must be a numeric IPv4
  /// address (default loopback).
  Status Listen(uint16_t port, const std::string& bind_host = "127.0.0.1");

  /// Accepts one connection, retrying transient per-connection failures
  /// (EINTR, ECONNABORTED, and under load EMFILE/ENFILE after a brief
  /// pause) so one misbehaving client cannot kill the accept loop. Fails
  /// after Close()/ShutdownBoth. Accepted sockets get TCP_NODELAY.
  Result<Socket> Accept();

  uint16_t port() const { return port_; }
  bool valid() const { return fd_ >= 0; }

  /// Unblocks a pending Accept.
  void Shutdown();
  void Close();

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

}  // namespace idba
