// Page-granular disk abstraction.
//
// Two implementations: MemDisk (the default experimental substrate — an
// in-memory page array whose access latencies are *metered* via counters and
// charged through the CostModel, replacing the paper's physical disks) and
// FileDisk (a real file, for persistence tests and durability demos).

#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"

namespace idba {

using PageId = uint64_t;
constexpr size_t kPageSize = 4096;

/// Bytes [0, kPageCrcSize) of every page are reserved for a CRC32C of the
/// remaining kPageSize - kPageCrcSize bytes. Disk implementations stamp it
/// on WritePage and verify it on ReadPage; page/WAL layouts above the disk
/// treat the region as opaque. An all-zero page (never written, or the
/// zero-padded tail of a file) is always accepted as valid.
constexpr size_t kPageCrcSize = 4;

/// CRC32C (Castagnoli) over `len` bytes. Runs the SSE4.2 `crc32`
/// instruction when the CPU has it (checked once, at run time) and a byte
/// table otherwise; both give the same value, so pages stamped on one host
/// verify on any other.
uint32_t Crc32c(const uint8_t* data, size_t len);

/// The two kernels behind Crc32c, exposed so tests can check each one.
namespace crc32c_internal {
/// Byte-at-a-time table kernel; runs everywhere.
uint32_t Table(const uint8_t* data, size_t len);
/// True if this CPU can run Hardware().
bool HardwareAvailable();
/// SSE4.2 kernel. Call only when HardwareAvailable().
uint32_t Hardware(const uint8_t* data, size_t len);
}  // namespace crc32c_internal

/// Fixed-size page image.
struct PageData {
  uint8_t bytes[kPageSize] = {};
};

/// Abstract page store. Implementations are thread-safe.
class Disk {
 public:
  virtual ~Disk() = default;

  /// Reads page `id` into `*out`. Reading a never-written page yields zeros.
  /// A page whose checksum does not match returns Status::Corruption and
  /// bumps storage.page.checksum_failures_total.
  virtual Status ReadPage(PageId id, PageData* out) = 0;

  /// Writes page `id`, stamping the checksum. Grows the disk as needed.
  virtual Status WritePage(PageId id, const PageData& data) = 0;

  /// Forces all buffered writes to stable storage.
  virtual Status Sync() = 0;

  /// Discards every page (log truncation after a checkpoint).
  virtual Status Truncate() = 0;

  /// Shrinks the disk to `pages` pages (space reclamation after a WAL
  /// copy-forward truncation). Correctness never depends on the physical
  /// shrink — the WAL header/terminator govern the recovery scan — so the
  /// default is a no-op, which also keeps thin test wrappers compiling.
  virtual Status TruncateTo(PageId pages) {
    (void)pages;
    return Status::OK();
  }

  /// Number of pages ever written + 1 (i.e. one past the highest id).
  virtual PageId PageCount() const = 0;

  /// Total physical reads / writes / sync barriers since construction.
  uint64_t reads() const { return reads_.Get(); }
  uint64_t writes() const { return writes_.Get(); }
  uint64_t syncs() const { return syncs_.Get(); }

 protected:
  /// Writes the CRC32C of bytes [kPageCrcSize, kPageSize) into bytes
  /// [0, kPageCrcSize) of `page`.
  static void StampPageCrc(PageData* page);
  /// OK if the stamped checksum matches (or the page is entirely zero);
  /// Status::Corruption otherwise (counted).
  static Status VerifyPageCrc(PageId id, const PageData& page);

  Counter reads_;
  Counter writes_;
  Counter syncs_;
};

/// In-memory disk. Optionally injects read/write failures for tests.
class MemDisk : public Disk {
 public:
  MemDisk() = default;

  Status ReadPage(PageId id, PageData* out) override;
  Status WritePage(PageId id, const PageData& data) override;
  Status Sync() override;
  Status Truncate() override;
  Status TruncateTo(PageId pages) override;
  PageId PageCount() const override;

  /// When set, the next `n` reads fail with IOError (test hook).
  void InjectReadFailures(int n);
  /// When set, the next `n` writes fail with IOError (test hook).
  void InjectWriteFailures(int n);
  /// When set, the next `n` syncs fail with IOError (test hook).
  void InjectSyncFailures(int n);

  /// XORs `mask` into byte `offset` of a stored page (bit-flip corruption;
  /// subsequent reads of the page fail checksum verification).
  void CorruptPage(PageId id, size_t offset, uint8_t mask);
  /// Zeroes bytes [keep, kPageSize) of a stored page, simulating a torn
  /// write that persisted only a prefix of the sector.
  void TornWrite(PageId id, size_t keep);

  /// Deep copy of the current disk image (crash-point snapshots in
  /// recovery property tests).
  std::unique_ptr<MemDisk> Clone() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<PageData>> pages_;
  int failing_reads_ = 0;
  int failing_writes_ = 0;
  int failing_syncs_ = 0;
};

/// File-backed disk (single flat file of 4 KiB pages).
class FileDisk : public Disk {
 public:
  /// Opens (creating if necessary) the file at `path`.
  static Result<std::unique_ptr<FileDisk>> Open(const std::string& path);
  ~FileDisk() override;

  Status ReadPage(PageId id, PageData* out) override;
  Status WritePage(PageId id, const PageData& data) override;
  Status Sync() override;
  Status Truncate() override;
  Status TruncateTo(PageId pages) override;
  PageId PageCount() const override;

 private:
  FileDisk(int fd, PageId page_count) : fd_(fd), page_count_(page_count) {}
  mutable std::mutex mu_;
  int fd_;
  PageId page_count_;
};

}  // namespace idba
