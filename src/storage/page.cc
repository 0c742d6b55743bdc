#include "storage/page.h"

#include <cstring>

namespace idba {

void SlottedPage::Init() {
  std::memset(data_->bytes, 0, kHeaderSize);
  set_free_offset(static_cast<uint16_t>(kPageSize));
}

uint64_t SlottedPage::lsn() const {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(data_->bytes[kPageCrcSize + i]) << (8 * i);
  }
  return v;
}

void SlottedPage::set_lsn(uint64_t lsn) {
  for (int i = 0; i < 8; ++i) {
    data_->bytes[kPageCrcSize + i] = static_cast<uint8_t>(lsn >> (8 * i));
  }
}

uint16_t SlottedPage::slot_count() const { return GetU16At(12); }

uint16_t SlottedPage::GetU16At(size_t pos) const {
  return static_cast<uint16_t>(data_->bytes[pos] |
                               (static_cast<uint16_t>(data_->bytes[pos + 1]) << 8));
}

void SlottedPage::SetU16At(size_t pos, uint16_t v) {
  data_->bytes[pos] = static_cast<uint8_t>(v);
  data_->bytes[pos + 1] = static_cast<uint8_t>(v >> 8);
}

void SlottedPage::SetSlot(SlotId s, uint16_t off, uint16_t len) {
  SetU16At(kHeaderSize + 4 * s, off);
  SetU16At(kHeaderSize + 4 * s + 2, len);
}

size_t SlottedPage::FreeSpaceForInsert() const {
  // A fresh page reports free_offset 0 before Init; treat as uninitialized.
  size_t fo = free_offset();
  if (fo == 0) fo = kPageSize;
  size_t dir_end = kHeaderSize + 4 * (slot_count() + 1);
  if (fo <= dir_end) return 0;
  return fo - dir_end;
}

size_t SlottedPage::FreeSpaceAfterCompaction() const {
  if (free_offset() == 0) return kPageSize - kHeaderSize - 4;
  size_t live = 0;
  for (SlotId s = 0; s < slot_count(); ++s) {
    if (SlotOffset(s) != kTombstone) live += SlotLength(s);
  }
  size_t dir_end = kHeaderSize + 4 * (slot_count() + 1);
  if (kPageSize <= dir_end + live) return 0;
  return kPageSize - dir_end - live;
}

Result<SlotId> SlottedPage::Insert(const uint8_t* rec, size_t len) {
  if (free_offset() == 0) Init();
  // Reuse a tombstoned slot id if one exists (keeps the directory compact).
  SlotId slot = slot_count();
  for (SlotId s = 0; s < slot_count(); ++s) {
    if (SlotOffset(s) == kTombstone) {
      slot = s;
      break;
    }
  }
  size_t dir_slots = (slot == slot_count()) ? slot_count() + 1 : slot_count();
  size_t dir_end = kHeaderSize + 4 * dir_slots;
  if (free_offset() < dir_end + len) {
    Compact();
    if (free_offset() < dir_end + len) {
      return Status::Busy("page full: need " + std::to_string(len) + " bytes");
    }
  }
  uint16_t off = static_cast<uint16_t>(free_offset() - len);
  std::memcpy(data_->bytes + off, rec, len);
  set_free_offset(off);
  if (slot == slot_count()) set_slot_count(static_cast<uint16_t>(slot_count() + 1));
  SetSlot(slot, off, static_cast<uint16_t>(len));
  return slot;
}

Result<std::span<const uint8_t>> SlottedPage::Read(SlotId slot) const {
  if (slot >= slot_count() || SlotOffset(slot) == kTombstone) {
    return Status::NotFound("slot " + std::to_string(slot));
  }
  return std::span<const uint8_t>(data_->bytes + SlotOffset(slot), SlotLength(slot));
}

Status SlottedPage::Update(SlotId slot, const uint8_t* rec, size_t len) {
  if (slot >= slot_count() || SlotOffset(slot) == kTombstone) {
    return Status::NotFound("slot " + std::to_string(slot));
  }
  if (len <= SlotLength(slot)) {
    std::memcpy(data_->bytes + SlotOffset(slot), rec, len);
    SetSlot(slot, SlotOffset(slot), static_cast<uint16_t>(len));
    return Status::OK();
  }
  // Grow: move the record to fresh heap space (compacting if needed).
  const std::vector<uint8_t> old_bytes(
      data_->bytes + SlotOffset(slot),
      data_->bytes + SlotOffset(slot) + SlotLength(slot));
  SetSlot(slot, kTombstone, 0);  // let Compact reclaim the old copy
  size_t dir_end = kHeaderSize + 4 * slot_count();
  if (free_offset() < dir_end + len) Compact();
  if (free_offset() < dir_end + len) {
    // Does not fit even compacted: restore the old record (it occupied this
    // space before the compaction, so it is guaranteed to fit) and fail.
    uint16_t off = static_cast<uint16_t>(free_offset() - old_bytes.size());
    std::memcpy(data_->bytes + off, old_bytes.data(), old_bytes.size());
    set_free_offset(off);
    SetSlot(slot, off, static_cast<uint16_t>(old_bytes.size()));
    return Status::Busy("page full growing slot " + std::to_string(slot));
  }
  uint16_t off = static_cast<uint16_t>(free_offset() - len);
  std::memcpy(data_->bytes + off, rec, len);
  set_free_offset(off);
  SetSlot(slot, off, static_cast<uint16_t>(len));
  return Status::OK();
}

Status SlottedPage::Erase(SlotId slot) {
  if (slot >= slot_count() || SlotOffset(slot) == kTombstone) {
    return Status::NotFound("slot " + std::to_string(slot));
  }
  SetSlot(slot, kTombstone, 0);
  return Status::OK();
}

std::vector<std::pair<SlotId, std::vector<uint8_t>>> SlottedPage::LiveRecords() const {
  std::vector<std::pair<SlotId, std::vector<uint8_t>>> out;
  for (SlotId s = 0; s < slot_count(); ++s) {
    if (SlotOffset(s) == kTombstone) continue;
    out.emplace_back(s, std::vector<uint8_t>(
                            data_->bytes + SlotOffset(s),
                            data_->bytes + SlotOffset(s) + SlotLength(s)));
  }
  return out;
}

void SlottedPage::Compact() {
  auto live = LiveRecords();
  uint16_t off = static_cast<uint16_t>(kPageSize);
  std::vector<uint8_t> heap(kPageSize);
  std::vector<std::pair<SlotId, std::pair<uint16_t, uint16_t>>> placed;
  for (const auto& [slot, bytes] : live) {
    off = static_cast<uint16_t>(off - bytes.size());
    std::memcpy(heap.data() + off, bytes.data(), bytes.size());
    placed.emplace_back(slot, std::make_pair(off, static_cast<uint16_t>(bytes.size())));
  }
  std::memcpy(data_->bytes + off, heap.data() + off, kPageSize - off);
  set_free_offset(off);
  for (const auto& [slot, loc] : placed) SetSlot(slot, loc.first, loc.second);
}

}  // namespace idba
