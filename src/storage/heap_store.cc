#include "storage/heap_store.h"

#include <algorithm>

namespace idba {

namespace {

/// Encodes `obj` as a heap record, rejecting images no page can hold.
Result<std::vector<uint8_t>> EncodeRecord(const DatabaseObject& obj) {
  std::vector<uint8_t> bytes;
  Encoder enc(&bytes);
  obj.EncodeTo(&enc);
  if (bytes.size() > kPageSize - 64) {
    return Status::InvalidArgument("object too large for a page: " +
                                   std::to_string(bytes.size()) + " bytes");
  }
  return bytes;
}

/// The references held by the record at `slot`, read before the record is
/// overwritten or erased.
Status DecodeRefsAt(const SlottedPage& page, SlotId slot,
                    std::vector<ObjectRef>* refs) {
  IDBA_ASSIGN_OR_RETURN(std::span<const uint8_t> bytes, page.Read(slot));
  Decoder dec(bytes.data(), bytes.size());
  return DatabaseObject::DecodeRefs(&dec, refs);
}

}  // namespace

HeapStore::HeapStore(BufferPool* pool) : pool_(pool) {
  page_misses_.BindGlobal(GlobalMetrics().GetCounter("storage.heap.page_misses"));
}

void HeapStore::CountMiss(IoStats* io, bool missed) const {
  if (!missed) return;
  if (io != nullptr) ++io->page_misses;
  page_misses_.Add();
}

Result<std::unique_ptr<HeapStore>> HeapStore::Open(BufferPool* pool,
                                                   PageId data_page_count) {
  auto store = std::unique_ptr<HeapStore>(new HeapStore(pool));
  // The references of each OID's newest image so far: a page scanned later
  // may hold a newer image of an OID, which replaces its directory entry
  // and its references alike.
  std::unordered_map<Oid, std::vector<ObjectRef>> refs_of;
  for (PageId p = 0; p < data_page_count; ++p) {
    IDBA_ASSIGN_OR_RETURN(PageGuard guard, pool->FetchPage(p));
    SlottedPage page(guard.data());
    for (const auto& [slot, bytes] : page.LiveRecords()) {
      Decoder dec(bytes.data(), bytes.size());
      DatabaseObject obj;
      IDBA_RETURN_NOT_OK(DatabaseObject::DecodeFrom(&dec, &obj));
      store->directory_[obj.oid()] = ObjectLocation{p, slot, obj.class_id()};
      obj.Refs(&refs_of[obj.oid()]);
    }
    if (page.FreeSpaceAfterCompaction() >= kPageSize / 4) {
      store->pages_with_space_.push_back(p);
    }
  }
  // Built from the finished directory, so each OID lands in exactly one
  // extent, and its references under one class, even if a page scanned
  // later held a newer image of it.
  for (const auto& [oid, loc] : store->directory_) {
    store->extents_[loc.cls].push_back(oid);
    for (const ObjectRef& ref : refs_of[oid]) {
      store->referrers_[{loc.cls, ref.slot, ref.target}].push_back(oid);
    }
  }
  for (auto& [cls, oids] : store->extents_) std::sort(oids.begin(), oids.end());
  for (auto& [key, oids] : store->referrers_) std::sort(oids.begin(), oids.end());
  store->next_page_ = data_page_count;
  return store;
}

void HeapStore::AddToExtent(ClassId cls, Oid oid) {
  std::vector<Oid>& oids = extents_[cls];
  oids.insert(std::upper_bound(oids.begin(), oids.end(), oid), oid);
}

void HeapStore::RemoveFromExtent(ClassId cls, Oid oid) {
  auto it = extents_.find(cls);
  if (it == extents_.end()) return;
  std::vector<Oid>& oids = it->second;
  auto pos = std::lower_bound(oids.begin(), oids.end(), oid);
  if (pos != oids.end() && *pos == oid) oids.erase(pos);
  if (oids.empty()) extents_.erase(it);
}

void HeapStore::AddRefs(ClassId cls, Oid oid, const std::vector<ObjectRef>& refs) {
  for (const ObjectRef& ref : refs) {
    std::vector<Oid>& oids = referrers_[{cls, ref.slot, ref.target}];
    oids.insert(std::upper_bound(oids.begin(), oids.end(), oid), oid);
  }
}

void HeapStore::RemoveRefs(ClassId cls, Oid oid, const std::vector<ObjectRef>& refs) {
  for (const ObjectRef& ref : refs) {
    auto it = referrers_.find({cls, ref.slot, ref.target});
    if (it == referrers_.end()) continue;
    std::vector<Oid>& oids = it->second;
    auto pos = std::lower_bound(oids.begin(), oids.end(), oid);
    if (pos != oids.end() && *pos == oid) oids.erase(pos);
    if (oids.empty()) referrers_.erase(it);
  }
}

Status HeapStore::Insert(const DatabaseObject& obj, IoStats* io) {
  std::lock_guard<std::mutex> lock(mu_);
  if (directory_.count(obj.oid())) {
    return Status::AlreadyExists(obj.oid().ToString());
  }
  IDBA_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, EncodeRecord(obj));
  IDBA_RETURN_NOT_OK(PlaceLocked(obj.oid(), obj.class_id(), bytes, io));
  AddToExtent(obj.class_id(), obj.oid());
  obj.Refs(&new_refs_);
  AddRefs(obj.class_id(), obj.oid(), new_refs_);
  return Status::OK();
}

Status HeapStore::PlaceLocked(Oid oid, ClassId cls,
                              const std::vector<uint8_t>& bytes, IoStats* io) {
  // Try candidate pages with free space, newest first.
  while (!pages_with_space_.empty()) {
    PageId pid = pages_with_space_.back();
    bool missed = false;
    IDBA_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(pid, &missed));
    CountMiss(io, missed);
    SlottedPage page(guard.data());
    auto slot = page.Insert(bytes.data(), bytes.size());
    if (slot.ok()) {
      guard.MarkDirty();
      directory_[oid] = ObjectLocation{pid, slot.value(), cls};
      if (page.FreeSpaceAfterCompaction() < kPageSize / 4) pages_with_space_.pop_back();
      return Status::OK();
    }
    pages_with_space_.pop_back();  // full; stop considering it
  }
  // Allocate a fresh page.
  PageId pid = next_page_++;
  IDBA_ASSIGN_OR_RETURN(PageGuard guard, pool_->NewPage(pid));
  SlottedPage page(guard.data());
  page.Init();
  IDBA_ASSIGN_OR_RETURN(SlotId slot, page.Insert(bytes.data(), bytes.size()));
  guard.MarkDirty();
  directory_[oid] = ObjectLocation{pid, slot, cls};
  if (page.FreeSpaceAfterCompaction() >= kPageSize / 4) pages_with_space_.push_back(pid);
  return Status::OK();
}

template <typename T>
Result<T> HeapStore::DecodeStored(Oid oid, IoStats* io,
                                  Status (*decode)(Decoder*, T*)) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = directory_.find(oid);
  if (it == directory_.end()) return Status::NotFound(oid.ToString());
  bool missed = false;
  IDBA_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(it->second.page, &missed));
  CountMiss(io, missed);
  SlottedPage page(guard.data());
  IDBA_ASSIGN_OR_RETURN(std::span<const uint8_t> bytes, page.Read(it->second.slot));
  Decoder dec(bytes.data(), bytes.size());
  T out;
  IDBA_RETURN_NOT_OK(decode(&dec, &out));
  return out;
}

Result<DatabaseObject> HeapStore::Read(Oid oid, IoStats* io) const {
  return DecodeStored(oid, io, &DatabaseObject::DecodeFrom);
}

Result<uint64_t> HeapStore::ReadVersion(Oid oid, IoStats* io) const {
  IDBA_ASSIGN_OR_RETURN(ObjectHeader header,
                        DecodeStored(oid, io, &DatabaseObject::DecodeHeader));
  return header.version;
}

Status HeapStore::Update(const DatabaseObject& obj, IoStats* io) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = directory_.find(obj.oid());
  if (it == directory_.end()) return Status::NotFound(obj.oid().ToString());
  IDBA_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, EncodeRecord(obj));
  bool missed = false;
  IDBA_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(it->second.page, &missed));
  CountMiss(io, missed);
  SlottedPage page(guard.data());
  const ClassId old_cls = it->second.cls;
  // The old image's references, read while it is still on the page.
  IDBA_RETURN_NOT_OK(DecodeRefsAt(page, it->second.slot, &old_refs_));
  Status st = page.Update(it->second.slot, bytes.data(), bytes.size());
  if (st.ok()) {
    guard.MarkDirty();
    it->second.cls = obj.class_id();
  } else {
    if (!st.IsBusy()) return st;
    // Doesn't fit in place: relocate to another page.
    IDBA_RETURN_NOT_OK(page.Erase(it->second.slot));
    guard.MarkDirty();
    guard.Release();
    directory_.erase(it);
    st = PlaceLocked(obj.oid(), obj.class_id(), bytes, io);
    if (!st.ok()) {
      // The old image is gone too: keep the extent and the reference
      // index in step with the directory.
      RemoveFromExtent(old_cls, obj.oid());
      RemoveRefs(old_cls, obj.oid(), old_refs_);
      return st;
    }
  }
  if (old_cls != obj.class_id()) {
    RemoveFromExtent(old_cls, obj.oid());
    AddToExtent(obj.class_id(), obj.oid());
  }
  obj.Refs(&new_refs_);
  if (old_cls != obj.class_id() || old_refs_ != new_refs_) {
    RemoveRefs(old_cls, obj.oid(), old_refs_);
    AddRefs(obj.class_id(), obj.oid(), new_refs_);
  }
  return Status::OK();
}

Status HeapStore::Erase(Oid oid, IoStats* io) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = directory_.find(oid);
  if (it == directory_.end()) return Status::NotFound(oid.ToString());
  bool missed = false;
  IDBA_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(it->second.page, &missed));
  CountMiss(io, missed);
  SlottedPage page(guard.data());
  IDBA_RETURN_NOT_OK(DecodeRefsAt(page, it->second.slot, &old_refs_));
  IDBA_RETURN_NOT_OK(page.Erase(it->second.slot));
  guard.MarkDirty();
  // The page regained space; make it an insert candidate again.
  if (std::find(pages_with_space_.begin(), pages_with_space_.end(),
                it->second.page) == pages_with_space_.end() &&
      page.FreeSpaceAfterCompaction() >= kPageSize / 4) {
    pages_with_space_.push_back(it->second.page);
  }
  RemoveFromExtent(it->second.cls, oid);
  RemoveRefs(it->second.cls, oid, old_refs_);
  directory_.erase(it);
  return Status::OK();
}

bool HeapStore::Contains(Oid oid) const {
  std::lock_guard<std::mutex> lock(mu_);
  return directory_.count(oid) != 0;
}

size_t HeapStore::object_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return directory_.size();
}

PageId HeapStore::data_page_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_page_;
}

Result<std::vector<Oid>> HeapStore::ScanClass(ClassId cls) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = extents_.find(cls);
  if (it == extents_.end()) return std::vector<Oid>{};
  return it->second;
}

std::vector<Oid> HeapStore::Referrers(ClassId cls, uint32_t slot, Oid target) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = referrers_.find({cls, slot, target});
  if (it == referrers_.end()) return {};
  return it->second;
}

std::vector<Oid> HeapStore::AllOids() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Oid> out;
  out.reserve(directory_.size());
  for (const auto& [oid, loc] : directory_) out.push_back(oid);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace idba
