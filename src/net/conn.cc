#include "net/conn.h"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "obs/trace.h"

namespace idba {

namespace {

/// iovec batch per writev call. Well under IOV_MAX; with head+body pairs
/// this still coalesces 32 fan-out frames into one syscall.
constexpr int kMaxIov = 64;
/// Bytes per recv() attempt while draining the socket to EAGAIN.
constexpr size_t kReadChunk = 64 * 1024;

}  // namespace

Conn::Conn(EventLoop* loop, Socket sock, Handler* handler, Options opts)
    : loop_(loop), sock_(std::move(sock)), handler_(handler), opts_(opts) {
  MetricsRegistry& reg = GlobalMetrics();
  write_queue_hist_ = reg.GetHistogram("net.conn.write_queue_bytes");
  writev_calls_ = reg.GetCounter("net.conn.writev_calls");
  partial_writes_ = reg.GetCounter("net.conn.partial_writes");
  frames_in_ = reg.GetCounter("net.conn.frames_in");
  frames_out_ = reg.GetCounter("net.conn.frames_out");
  last_read_us_.store(obs::NowUs(), std::memory_order_relaxed);
}

Conn::~Conn() {
  if (registered_.load(std::memory_order_acquire) &&
      !closed_.load(std::memory_order_acquire)) {
    (void)loop_->Del(sock_.fd());
  }
}

Status Conn::Register() {
  IDBA_RETURN_NOT_OK(sock_.SetNonBlocking(true));
  // Set before the fd enters epoll: the loop may close the connection as
  // soon as the first event arrives, and must then remove the fd.
  registered_.store(true, std::memory_order_release);
  Status st = loop_->Add(sock_.fd(), EPOLLIN | EPOLLRDHUP, this);
  if (!st.ok()) registered_.store(false, std::memory_order_release);
  return st;
}

bool Conn::EnqueueFrame(std::vector<uint8_t> head, SharedBuf body) {
  if (closed_.load(std::memory_order_acquire)) return false;
  {
    std::lock_guard<std::mutex> lock(out_mu_);
    OutFrame frame;
    frame.head = std::move(head);
    frame.body = std::move(body);
    out_bytes_ += frame.size();
    out_.push_back(std::move(frame));
    if (out_bytes_ > opts_.write_watermark_bytes) was_backlogged_ = true;
    write_queue_hist_->Record(static_cast<double>(out_bytes_));
  }
  ScheduleFlush();
  return true;
}

bool Conn::EnqueueWireFrame(wire::FrameType type, uint64_t seq,
                            const std::vector<uint8_t>& payload, bool traced) {
  wire::FrameHeader header;
  header.payload_len = static_cast<uint32_t>(payload.size());
  header.type = type;
  header.seq = seq;
  header.traced = traced;
  std::vector<uint8_t> head(wire::kHeaderBytes + payload.size());
  wire::EncodeHeader(header, head.data());
  if (!payload.empty()) {
    std::memcpy(head.data() + wire::kHeaderBytes, payload.data(),
                payload.size());
  }
  return EnqueueFrame(std::move(head));
}

bool Conn::EnqueueWireFrame(wire::FrameType type, uint64_t seq,
                            const std::vector<uint8_t>& meta,
                            const SharedBuf& body, bool traced) {
  wire::FrameHeader header;
  header.payload_len = static_cast<uint32_t>(meta.size() + body.size());
  header.type = type;
  header.seq = seq;
  header.traced = traced;
  std::vector<uint8_t> head(wire::kHeaderBytes + meta.size());
  wire::EncodeHeader(header, head.data());
  if (!meta.empty()) {
    std::memcpy(head.data() + wire::kHeaderBytes, meta.data(), meta.size());
  }
  return EnqueueFrame(std::move(head), body);
}

size_t Conn::write_queue_bytes() const {
  std::lock_guard<std::mutex> lock(out_mu_);
  return out_bytes_;
}

void Conn::Kill() { sock_.ShutdownBoth(); }

void Conn::Close() {
  auto self = shared_from_this();
  loop_->Post([self] { self->CloseOnLoop(); });
}

void Conn::ScheduleFlush() {
  if (flush_scheduled_.exchange(true, std::memory_order_acq_rel)) return;
  auto self = shared_from_this();
  loop_->Post([self] { self->Flush(); });
}

void Conn::OnEvents(uint32_t events) {
  if (closed_.load(std::memory_order_relaxed)) return;
  if (events & EPOLLOUT) Flush();
  if (closed_.load(std::memory_order_relaxed)) return;
  if (events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) {
    HandleReadable();
  }
}

void Conn::HandleReadable() {
  bool peer_gone = false;
  for (;;) {
    const size_t old_size = rbuf_.size();
    rbuf_.resize(old_size + kReadChunk);
    ssize_t rc = ::recv(sock_.fd(), rbuf_.data() + old_size, kReadChunk, 0);
    if (rc < 0) {
      rbuf_.resize(old_size);
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      peer_gone = true;
      break;
    }
    if (rc == 0) {
      rbuf_.resize(old_size);
      peer_gone = true;
      break;
    }
    rbuf_.resize(old_size + static_cast<size_t>(rc));
    if (opts_.bytes_in != nullptr) {
      opts_.bytes_in->Add(static_cast<uint64_t>(rc));
    }
    last_read_us_.store(obs::NowUs(), std::memory_order_relaxed);
  }

  // Dispatch every complete frame accumulated so far. A handler may close
  // the connection mid-loop (protocol error), which nulls handler_.
  while (handler_ != nullptr && !closed_.load(std::memory_order_relaxed)) {
    const size_t avail = rbuf_.size() - rpos_;
    if (avail < wire::kHeaderBytes) break;
    wire::FrameHeader header;
    Status st = wire::DecodeHeader(rbuf_.data() + rpos_, &header);
    if (!st.ok()) {
      peer_gone = true;  // stream is desynced; drop the connection
      break;
    }
    if (avail < wire::kHeaderBytes + header.payload_len) break;
    const uint8_t* body = rbuf_.data() + rpos_ + wire::kHeaderBytes;
    std::vector<uint8_t> payload(body, body + header.payload_len);
    rpos_ += wire::kHeaderBytes + header.payload_len;
    frames_in_->Add();
    handler_->OnFrame(this, header, std::move(payload));
  }
  if (rpos_ == rbuf_.size()) {
    rbuf_.clear();
    rpos_ = 0;
  } else if (rpos_ >= 64 * 1024) {
    rbuf_.erase(rbuf_.begin(),
                rbuf_.begin() + static_cast<ptrdiff_t>(rpos_));
    rpos_ = 0;
  }
  if (peer_gone) CloseOnLoop();
}

void Conn::Flush() {
  flush_scheduled_.store(false, std::memory_order_release);
  if (closed_.load(std::memory_order_relaxed)) return;
  bool fatal = false;
  bool drained_below_watermark = false;
  {
    std::lock_guard<std::mutex> lock(out_mu_);
    while (!out_.empty()) {
      iovec iov[kMaxIov];
      int niov = 0;
      for (auto it = out_.begin(); it != out_.end() && niov + 2 <= kMaxIov;
           ++it) {
        size_t off = it->offset;
        if (off < it->head.size()) {
          iov[niov].iov_base = it->head.data() + off;
          iov[niov].iov_len = it->head.size() - off;
          ++niov;
          off = 0;
        } else {
          off -= it->head.size();
        }
        if (it->body && off < it->body.size()) {
          iov[niov].iov_base =
              const_cast<uint8_t*>(it->body.data()) + off;
          iov[niov].iov_len = it->body.size() - off;
          ++niov;
        }
      }
      ssize_t rc = ::writev(sock_.fd(), iov, niov);
      writev_calls_->Add();
      if (rc < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          partial_writes_->Add();
          if (!epollout_armed_) {
            epollout_armed_ = true;
            (void)loop_->Mod(sock_.fd(), EPOLLIN | EPOLLRDHUP | EPOLLOUT,
                             this);
          }
          return;
        }
        fatal = true;
        break;
      }
      if (opts_.bytes_out != nullptr) {
        opts_.bytes_out->Add(static_cast<uint64_t>(rc));
      }
      out_bytes_ -= static_cast<size_t>(rc);
      size_t written = static_cast<size_t>(rc);
      while (written > 0 && !out_.empty()) {
        OutFrame& frame = out_.front();
        const size_t remaining = frame.size() - frame.offset;
        if (written >= remaining) {
          written -= remaining;
          out_.pop_front();
          frames_out_->Add();
        } else {
          frame.offset += written;
          written = 0;
          partial_writes_->Add();
        }
      }
    }
    if (!fatal) {
      if (epollout_armed_ && out_.empty()) {
        epollout_armed_ = false;
        (void)loop_->Mod(sock_.fd(), EPOLLIN | EPOLLRDHUP, this);
      }
      if (was_backlogged_ && out_bytes_ <= opts_.write_watermark_bytes) {
        was_backlogged_ = false;
        drained_below_watermark = true;
      }
    }
  }
  if (fatal) {
    CloseOnLoop();
    return;
  }
  if (drained_below_watermark && handler_ != nullptr) {
    handler_->OnWriteDrained(this);
  }
}

void Conn::CloseOnLoop() {
  if (closed_.exchange(true, std::memory_order_acq_rel)) return;
  if (registered_.load(std::memory_order_acquire)) (void)loop_->Del(sock_.fd());
  sock_.ShutdownBoth();
  Handler* handler = handler_;
  handler_ = nullptr;
  {
    std::lock_guard<std::mutex> lock(out_mu_);
    out_.clear();
    out_bytes_ = 0;
  }
  if (handler != nullptr) handler->OnClosed(this);
}

}  // namespace idba
