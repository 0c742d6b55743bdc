// Object heap store: places serialized DatabaseObjects on slotted pages via
// the buffer pool and maintains an in-memory OID -> (page, slot, class)
// directory, per-class extents and an inverse-reference index (all rebuilt
// by scanning pages on open, i.e. after a restart).

#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "objectmodel/object.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace idba {

/// Physical location of an object.
struct ObjectLocation {
  PageId page = 0;
  SlotId slot = 0;
  ClassId cls = 0;  ///< class of the stored image: the extent holding the OID
};

/// Per-operation physical I/O accounting, fed into the virtual cost chain.
/// The same misses also accumulate in the registered counter
/// storage.heap.page_misses (and per-store HeapStore::page_misses()), so
/// exporters see them without threading IoStats through every call site.
struct IoStats {
  int page_misses = 0;  ///< pages that required a physical read
};

/// Thread-safe heap of objects over a buffer pool.
class HeapStore {
 public:
  /// Opens a heap over `pool`, reading (and so verifying) every page in
  /// [0, data_page_count) to rebuild the OID directory, the class extents
  /// and the reference index. Pass 0 for an empty/new heap.
  static Result<std::unique_ptr<HeapStore>> Open(BufferPool* pool,
                                                 PageId data_page_count);

  /// Inserts a new object (fails with AlreadyExists on a duplicate OID).
  Status Insert(const DatabaseObject& obj, IoStats* io = nullptr);

  /// Reads the current image of `oid`.
  Result<DatabaseObject> Read(Oid oid, IoStats* io = nullptr) const;

  /// The version of the current image of `oid` (NotFound if absent). Fetches
  /// the same page as Read but decodes only the object's header.
  Result<uint64_t> ReadVersion(Oid oid, IoStats* io = nullptr) const;

  /// Replaces the image of an existing object (relocating it if it grew).
  Status Update(const DatabaseObject& obj, IoStats* io = nullptr);

  /// Removes the object.
  Status Erase(Oid oid, IoStats* io = nullptr);

  bool Contains(Oid oid) const;
  size_t object_count() const;
  PageId data_page_count() const;

  /// All OIDs of objects whose class equals `cls`, ascending (no
  /// inheritance walk; callers with hierarchies expand class ids first).
  /// A copy of the class's extent taken under the store's lock: it touches
  /// no page, so it neither misses nor disturbs the buffer pool's LRU.
  Result<std::vector<Oid>> ScanClass(ClassId cls) const;

  /// OIDs of the objects of class `cls` (exact, like ScanClass) whose
  /// attribute slot `slot` holds the single OID `target` (a kOid value;
  /// `target` may be null), ascending. A copy taken under the store's lock;
  /// like ScanClass it touches no page.
  std::vector<Oid> Referrers(ClassId cls, uint32_t slot, Oid target) const;

  /// Every OID in the heap.
  std::vector<Oid> AllOids() const;

  uint64_t page_misses() const { return page_misses_.Get(); }

 private:
  explicit HeapStore(BufferPool* pool);
  /// Writes the encoded image of `oid` to a page with room (or a fresh one)
  /// and points the directory at it. Leaves the extents alone.
  Status PlaceLocked(Oid oid, ClassId cls, const std::vector<uint8_t>& bytes,
                     IoStats* io);
  void AddToExtent(ClassId cls, Oid oid);
  void RemoveFromExtent(ClassId cls, Oid oid);
  void AddRefs(ClassId cls, Oid oid, const std::vector<ObjectRef>& refs);
  void RemoveRefs(ClassId cls, Oid oid, const std::vector<ObjectRef>& refs);
  /// Fetches the page holding `oid` and runs `decode` on its record, under
  /// mu_ with the page pinned (the record is read in place, not copied).
  template <typename T>
  Result<T> DecodeStored(Oid oid, IoStats* io, Status (*decode)(Decoder*, T*)) const;
  /// Charges a miss to the per-op IoStats (if any) and the counters.
  void CountMiss(IoStats* io, bool missed) const;

  BufferPool* pool_;
  mutable std::mutex mu_;
  std::unordered_map<Oid, ObjectLocation> directory_;
  // Class extents: the OIDs of directory_ grouped by ObjectLocation::cls,
  // each sorted ascending. OIDs are allocated in increasing order, so
  // inserts append; an erase shifts the OIDs after it (8 bytes each).
  std::unordered_map<ClassId, std::vector<Oid>> extents_;
  // Reference index: (class, slot, target) -> the OIDs of that class whose
  // slot holds the OID `target`, sorted ascending like an extent. Every
  // kOid slot of every stored object is indexed, null targets included.
  struct RefKey {
    ClassId cls;
    uint32_t slot;
    Oid target;
    bool operator==(const RefKey& other) const = default;
  };
  struct RefKeyHash {
    size_t operator()(const RefKey& k) const noexcept {
      return std::hash<Oid>()(k.target) ^ (size_t{k.cls} << 32 | k.slot);
    }
  };
  std::unordered_map<RefKey, std::vector<Oid>, RefKeyHash> referrers_;
  // Scratch for the references of the image being replaced or erased and
  // of its replacement, reused so updates allocate nothing for them.
  std::vector<ObjectRef> old_refs_, new_refs_;
  // Pages with at least ~25% free space, candidates for inserts.
  std::vector<PageId> pages_with_space_;
  PageId next_page_ = 0;
  mutable MirroredCounter page_misses_;  ///< mirrors storage.heap.page_misses
};

}  // namespace idba
