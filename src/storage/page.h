// Slotted-page layout for variable-length records.
//
// Layout (little-endian):
//   [0..3]   reserved for the disk-layer CRC32C (see kPageCrcSize)
//   [4..11]  page LSN
//   [12..13] slot count (including tombstoned slots)
//   [14..15] free-space offset (start of the record heap, growing downward)
//   [16..]   slot directory: per slot {uint16 offset, uint16 length};
//            offset == 0xFFFF marks a tombstone
//   records grow from the end of the page toward the directory.

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/status.h"
#include "storage/disk.h"

namespace idba {

using SlotId = uint16_t;

/// View over a PageData providing slotted-record operations. Does not own
/// the page bytes.
class SlottedPage {
 public:
  explicit SlottedPage(PageData* data) : data_(data) {}

  /// Zeroes the header of a fresh page.
  void Init();

  uint64_t lsn() const;
  void set_lsn(uint64_t lsn);

  uint16_t slot_count() const;

  /// Contiguous free bytes available for one new record (accounting for its
  /// new slot directory entry).
  size_t FreeSpaceForInsert() const;

  /// Free bytes a Compact() would yield for one new record — includes space
  /// currently trapped behind tombstones (used by free-space tracking).
  size_t FreeSpaceAfterCompaction() const;

  /// Inserts a record; returns its slot. Fails with Busy if it doesn't fit.
  Result<SlotId> Insert(const uint8_t* rec, size_t len);

  /// The record bytes at `slot` (NotFound for tombstones / bad slots): a
  /// view into the page, valid until the page is modified or unpinned.
  Result<std::span<const uint8_t>> Read(SlotId slot) const;

  /// Replaces the record at `slot`. Fails with Busy if the new version does
  /// not fit in place nor in the remaining free space.
  Status Update(SlotId slot, const uint8_t* rec, size_t len);

  /// Tombstones the record at `slot`.
  Status Erase(SlotId slot);

  /// Live (non-tombstoned) records: (slot, bytes).
  std::vector<std::pair<SlotId, std::vector<uint8_t>>> LiveRecords() const;

  /// Compacts the record heap, reclaiming space from erased/moved records.
  void Compact();

 private:
  static constexpr size_t kHeaderSize = 16;
  static constexpr uint16_t kTombstone = 0xFFFF;

  uint16_t GetU16At(size_t pos) const;
  void SetU16At(size_t pos, uint16_t v);
  uint16_t SlotOffset(SlotId s) const { return GetU16At(kHeaderSize + 4 * s); }
  uint16_t SlotLength(SlotId s) const { return GetU16At(kHeaderSize + 4 * s + 2); }
  void SetSlot(SlotId s, uint16_t off, uint16_t len);
  uint16_t free_offset() const { return GetU16At(14); }
  void set_free_offset(uint16_t v) { SetU16At(14, v); }
  void set_slot_count(uint16_t v) { SetU16At(12, v); }

  PageData* data_;
};

}  // namespace idba
