// Client database cache (the paper's "client database caching", §2.2).
//
// Caches whole DatabaseObjects across transaction boundaries under the
// avoidance-based protocol: entries are guaranteed valid because the server
// calls back (InvalidateCached) before any update commit completes.
// Replacement is LRU over a byte budget — deliberately *not* controllable
// by the GUI, which is exactly the drawback (§2.2) the display cache fixes.

#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "objectmodel/object.h"
#include "server/callback_manager.h"

namespace idba {

struct ObjectCacheOptions {
  size_t capacity_bytes = 4 * 1024 * 1024;
};

/// Eviction observer (the client runtime reports drops to the server so
/// the callback registry stays tight).
using EvictionCallback = std::function<void(Oid)>;

/// Thread-safe LRU object cache implementing the server's callback
/// interface.
class ObjectCache : public CacheCallbackHandler {
 public:
  explicit ObjectCache(ObjectCacheOptions opts = {});

  /// Returns the cached copy if present (valid by protocol).
  std::optional<DatabaseObject> Get(Oid oid);

  /// Inserts/overwrites a copy, evicting LRU entries over budget.
  void Put(const DatabaseObject& obj);
  /// Puts a whole scan/query result, reporting evictions only once every
  /// copy is in — and only for OIDs the batch did not re-cache. The server
  /// registered every result copy before returning it, so reporting an
  /// older copy of a later member would unregister the new copy and later
  /// commits would skip this client.
  void PutAll(const std::vector<DatabaseObject>& objs);

  /// Server callback: drop the copy (a newer version committed).
  void InvalidateCached(Oid oid, uint64_t new_version) override;

  /// Drops an entry locally (no server involvement).
  void Drop(Oid oid);
  void Clear();

  void set_eviction_callback(EvictionCallback cb) { on_evict_ = std::move(cb); }

  bool Contains(Oid oid) const;
  size_t entry_count() const;
  size_t bytes_used() const;
  size_t capacity_bytes() const { return opts_.capacity_bytes; }

  uint64_t hits() const { return hits_.Get(); }
  uint64_t misses() const { return misses_.Get(); }
  uint64_t invalidations() const { return invalidations_.Get(); }
  uint64_t evictions() const { return evictions_.Get(); }

 private:
  struct Entry {
    DatabaseObject obj;
    size_t bytes;
    std::list<Oid>::iterator lru_pos;
  };
  /// Inserts under mu_; evicted OIDs are appended to `evicted` when non-null.
  void PutLocked(const DatabaseObject& obj, std::vector<Oid>* evicted);
  void EvictIfNeededLocked(std::vector<Oid>* evicted);

  ObjectCacheOptions opts_;
  mutable std::mutex mu_;
  std::unordered_map<Oid, Entry> entries_;
  std::list<Oid> lru_;  // front = least recently used
  size_t bytes_used_ = 0;
  EvictionCallback on_evict_;
  MirroredCounter hits_, misses_, invalidations_, evictions_;
  // Declared last so the gauges unregister before the cache state they read.
  ScopedGauge entries_gauge_, bytes_gauge_;
};

}  // namespace idba
