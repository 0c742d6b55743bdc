#include "storage/disk.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace idba {

namespace {

/// Byte-at-a-time CRC32C table (Castagnoli polynomial, reflected).
const uint32_t* Crc32cTable() {
  static const uint32_t* table = [] {
    static uint32_t t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int j = 0; j < 8; ++j) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0);
      }
      t[i] = crc;
    }
    return t;
  }();
  return table;
}

Counter* ChecksumFailures() {
  static Counter* c =
      GlobalMetrics().GetCounter("storage.page.checksum_failures_total");
  return c;
}

bool AllZero(const uint8_t* data, size_t len) {
  for (size_t i = 0; i < len; ++i) {
    if (data[i] != 0) return false;
  }
  return true;
}

}  // namespace

namespace crc32c_internal {

uint32_t Table(const uint8_t* data, size_t len) {
  const uint32_t* table = Crc32cTable();
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    crc = (crc >> 8) ^ table[(crc ^ data[i]) & 0xFF];
  }
  return crc ^ 0xFFFFFFFFu;
}

#if defined(__x86_64__)

bool HardwareAvailable() {
  static const bool available = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return available;
}

// Compiled for SSE4.2 whatever the build's -m flags; only reached after
// HardwareAvailable() said the CPU has it.
__attribute__((target("sse4.2"))) uint32_t Hardware(const uint8_t* data,
                                                    size_t len) {
  uint32_t crc = 0xFFFFFFFFu;
  while (len >= 8) {
    uint64_t chunk;
    std::memcpy(&chunk, data, 8);
    crc = static_cast<uint32_t>(_mm_crc32_u64(crc, chunk));
    data += 8;
    len -= 8;
  }
  while (len > 0) {
    crc = _mm_crc32_u8(crc, *data++);
    --len;
  }
  return crc ^ 0xFFFFFFFFu;
}

#else

bool HardwareAvailable() { return false; }

uint32_t Hardware(const uint8_t* data, size_t len) { return Table(data, len); }

#endif

}  // namespace crc32c_internal

uint32_t Crc32c(const uint8_t* data, size_t len) {
  static const auto kernel = crc32c_internal::HardwareAvailable()
                                 ? &crc32c_internal::Hardware
                                 : &crc32c_internal::Table;
  return kernel(data, len);
}

void Disk::StampPageCrc(PageData* page) {
  uint32_t crc =
      Crc32c(page->bytes + kPageCrcSize, kPageSize - kPageCrcSize);
  page->bytes[0] = static_cast<uint8_t>(crc);
  page->bytes[1] = static_cast<uint8_t>(crc >> 8);
  page->bytes[2] = static_cast<uint8_t>(crc >> 16);
  page->bytes[3] = static_cast<uint8_t>(crc >> 24);
}

Status Disk::VerifyPageCrc(PageId id, const PageData& page) {
  uint32_t stored = static_cast<uint32_t>(page.bytes[0]) |
                    (static_cast<uint32_t>(page.bytes[1]) << 8) |
                    (static_cast<uint32_t>(page.bytes[2]) << 16) |
                    (static_cast<uint32_t>(page.bytes[3]) << 24);
  uint32_t actual =
      Crc32c(page.bytes + kPageCrcSize, kPageSize - kPageCrcSize);
  if (stored == actual) return Status::OK();
  // A page of pure zeros was never stamped: a fresh page or the zero-padded
  // tail of a file. Anything else is a torn or bit-flipped page.
  if (AllZero(page.bytes, kPageSize)) return Status::OK();
  ChecksumFailures()->Add();
  return Status::Corruption("page " + std::to_string(id) +
                            " checksum mismatch");
}

Status MemDisk::ReadPage(PageId id, PageData* out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (failing_reads_ > 0) {
    --failing_reads_;
    return Status::IOError("injected read failure on page " + std::to_string(id));
  }
  reads_.Add();
  if (id >= pages_.size() || pages_[id] == nullptr) {
    std::memset(out->bytes, 0, kPageSize);
    return Status::OK();
  }
  *out = *pages_[id];
  return VerifyPageCrc(id, *out);
}

Status MemDisk::WritePage(PageId id, const PageData& data) {
  std::lock_guard<std::mutex> lock(mu_);
  if (failing_writes_ > 0) {
    --failing_writes_;
    return Status::IOError("injected write failure on page " + std::to_string(id));
  }
  writes_.Add();
  if (id >= pages_.size()) pages_.resize(id + 1);
  if (pages_[id] == nullptr) pages_[id] = std::make_unique<PageData>();
  *pages_[id] = data;
  StampPageCrc(pages_[id].get());
  return Status::OK();
}

Status MemDisk::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  if (failing_syncs_ > 0) {
    --failing_syncs_;
    return Status::IOError("injected sync failure");
  }
  syncs_.Add();
  return Status::OK();
}

Status MemDisk::Truncate() {
  std::lock_guard<std::mutex> lock(mu_);
  pages_.clear();
  return Status::OK();
}

PageId MemDisk::PageCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pages_.size();
}

void MemDisk::InjectReadFailures(int n) {
  std::lock_guard<std::mutex> lock(mu_);
  failing_reads_ = n;
}

void MemDisk::InjectWriteFailures(int n) {
  std::lock_guard<std::mutex> lock(mu_);
  failing_writes_ = n;
}

void MemDisk::InjectSyncFailures(int n) {
  std::lock_guard<std::mutex> lock(mu_);
  failing_syncs_ = n;
}

void MemDisk::CorruptPage(PageId id, size_t offset, uint8_t mask) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= pages_.size() || pages_[id] == nullptr || offset >= kPageSize) {
    return;
  }
  pages_[id]->bytes[offset] ^= mask;
}

void MemDisk::TornWrite(PageId id, size_t keep) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= pages_.size() || pages_[id] == nullptr || keep >= kPageSize) {
    return;
  }
  std::memset(pages_[id]->bytes + keep, 0, kPageSize - keep);
}

Status MemDisk::TruncateTo(PageId pages) {
  std::lock_guard<std::mutex> lock(mu_);
  if (pages < pages_.size()) pages_.resize(pages);
  return Status::OK();
}

std::unique_ptr<MemDisk> MemDisk::Clone() const {
  std::lock_guard<std::mutex> lock(mu_);
  auto copy = std::make_unique<MemDisk>();
  copy->pages_.reserve(pages_.size());
  for (const auto& page : pages_) {
    copy->pages_.push_back(page ? std::make_unique<PageData>(*page) : nullptr);
  }
  return copy;
}

Result<std::unique_ptr<FileDisk>> FileDisk::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) {
    return Status::IOError("open " + path + ": " + std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError("fstat " + path + ": " + std::strerror(errno));
  }
  PageId pages = static_cast<PageId>(st.st_size) / kPageSize;
  return std::unique_ptr<FileDisk>(new FileDisk(fd, pages));
}

FileDisk::~FileDisk() {
  if (fd_ >= 0) ::close(fd_);
}

Status FileDisk::ReadPage(PageId id, PageData* out) {
  std::lock_guard<std::mutex> lock(mu_);
  reads_.Add();
  if (id >= page_count_) {
    std::memset(out->bytes, 0, kPageSize);
    return Status::OK();
  }
  ssize_t n = ::pread(fd_, out->bytes, kPageSize,
                      static_cast<off_t>(id * kPageSize));
  if (n < 0) return Status::IOError("pread: " + std::string(std::strerror(errno)));
  if (static_cast<size_t>(n) < kPageSize) {
    std::memset(out->bytes + n, 0, kPageSize - n);
  }
  return VerifyPageCrc(id, *out);
}

Status FileDisk::WritePage(PageId id, const PageData& data) {
  std::lock_guard<std::mutex> lock(mu_);
  writes_.Add();
  PageData stamped = data;
  StampPageCrc(&stamped);
  ssize_t n = ::pwrite(fd_, stamped.bytes, kPageSize,
                       static_cast<off_t>(id * kPageSize));
  if (n != static_cast<ssize_t>(kPageSize)) {
    return Status::IOError("pwrite: " + std::string(std::strerror(errno)));
  }
  if (id >= page_count_) page_count_ = id + 1;
  return Status::OK();
}

Status FileDisk::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  if (::fsync(fd_) != 0) {
    return Status::IOError("fsync: " + std::string(std::strerror(errno)));
  }
  syncs_.Add();
  return Status::OK();
}

Status FileDisk::Truncate() {
  std::lock_guard<std::mutex> lock(mu_);
  if (::ftruncate(fd_, 0) != 0) {
    return Status::IOError("ftruncate: " + std::string(std::strerror(errno)));
  }
  page_count_ = 0;
  return Status::OK();
}

Status FileDisk::TruncateTo(PageId pages) {
  std::lock_guard<std::mutex> lock(mu_);
  if (pages >= page_count_) return Status::OK();
  if (::ftruncate(fd_, static_cast<off_t>(pages * kPageSize)) != 0) {
    return Status::IOError("ftruncate: " + std::string(std::strerror(errno)));
  }
  page_count_ = pages;
  return Status::OK();
}

PageId FileDisk::PageCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return page_count_;
}

}  // namespace idba
