#include "client/object_cache.h"

namespace idba {

ObjectCache::ObjectCache(ObjectCacheOptions opts) : opts_(opts) {
  // Canonical "client database cache" level: the registry sums over every
  // in-process client; per-instance accessors stay exact.
  MetricsRegistry& reg = GlobalMetrics();
  hits_.BindGlobal(reg.GetCounter("cache.object.hits"));
  misses_.BindGlobal(reg.GetCounter("cache.object.misses"));
  invalidations_.BindGlobal(reg.GetCounter("cache.object.invalidations"));
  evictions_.BindGlobal(reg.GetCounter("cache.object.evictions"));
  entries_gauge_ = ScopedGauge(&reg, "cache.object.entries",
                               [this] { return double(entry_count()); });
  bytes_gauge_ = ScopedGauge(&reg, "cache.object.bytes_used",
                             [this] { return double(bytes_used()); });
}

std::optional<DatabaseObject> ObjectCache::Get(Oid oid) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(oid);
  if (it == entries_.end()) {
    misses_.Add();
    return std::nullopt;
  }
  hits_.Add();
  lru_.erase(it->second.lru_pos);
  lru_.push_back(oid);
  it->second.lru_pos = std::prev(lru_.end());
  return it->second.obj;
}

void ObjectCache::Put(const DatabaseObject& obj) {
  std::vector<Oid> evicted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    PutLocked(obj, &evicted);
  }
  if (on_evict_) {
    for (Oid oid : evicted) on_evict_(oid);
  }
}

void ObjectCache::PutAll(const std::vector<DatabaseObject>& objs) {
  std::vector<Oid> evicted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Oid>* report = on_evict_ ? &evicted : nullptr;
    for (const DatabaseObject& obj : objs) PutLocked(obj, report);
    std::erase_if(evicted, [this](Oid oid) { return entries_.count(oid); });
  }
  for (Oid oid : evicted) on_evict_(oid);
}

void ObjectCache::PutLocked(const DatabaseObject& obj,
                            std::vector<Oid>* evicted) {
  size_t bytes = obj.MemoryBytes();
  auto it = entries_.find(obj.oid());
  if (it != entries_.end()) {
    bytes_used_ -= it->second.bytes;
    lru_.erase(it->second.lru_pos);
    entries_.erase(it);
  }
  lru_.push_back(obj.oid());
  entries_[obj.oid()] = Entry{obj, bytes, std::prev(lru_.end())};
  bytes_used_ += bytes;
  EvictIfNeededLocked(evicted);
}

void ObjectCache::EvictIfNeededLocked(std::vector<Oid>* evicted) {
  while (bytes_used_ > opts_.capacity_bytes && lru_.size() > 1) {
    Oid victim = lru_.front();
    lru_.pop_front();
    auto it = entries_.find(victim);
    bytes_used_ -= it->second.bytes;
    entries_.erase(it);
    evictions_.Add();
    if (evicted != nullptr) evicted->push_back(victim);
  }
}

void ObjectCache::InvalidateCached(Oid oid, uint64_t /*new_version*/) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(oid);
  if (it == entries_.end()) return;
  bytes_used_ -= it->second.bytes;
  lru_.erase(it->second.lru_pos);
  entries_.erase(it);
  invalidations_.Add();
}

void ObjectCache::Drop(Oid oid) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(oid);
  if (it == entries_.end()) return;
  bytes_used_ -= it->second.bytes;
  lru_.erase(it->second.lru_pos);
  entries_.erase(it);
}

void ObjectCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  lru_.clear();
  bytes_used_ = 0;
}

bool ObjectCache::Contains(Oid oid) const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.count(oid) != 0;
}

size_t ObjectCache::entry_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

size_t ObjectCache::bytes_used() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_used_;
}

}  // namespace idba
