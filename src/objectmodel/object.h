// Database objects: an OID, a class, a version counter and attribute values.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/status.h"
#include "objectmodel/oid.h"
#include "objectmodel/schema.h"
#include "objectmodel/value.h"

namespace idba {

/// The fixed fields that open an encoded DatabaseObject, before its values.
struct ObjectHeader {
  Oid oid;
  ClassId class_id = 0;
  uint64_t version = 0;
  uint64_t attr_count = 0;
};

/// One reference an object holds: an attribute slot whose value is a
/// single OID (kOid), and that OID (possibly null). kOidList elements are
/// not references in this sense.
struct ObjectRef {
  uint32_t slot = 0;
  Oid target;
  bool operator==(const ObjectRef& other) const = default;
};

/// A materialized database object. Attribute slots are positional, matching
/// SchemaCatalog::AllAttributes(class_id) order.
class DatabaseObject {
 public:
  DatabaseObject() = default;
  DatabaseObject(Oid oid, ClassId class_id, size_t attr_count)
      : oid_(oid), class_id_(class_id), values_(attr_count) {}

  Oid oid() const { return oid_; }
  ClassId class_id() const { return class_id_; }

  /// Version, incremented on every committed update. Lets clients and
  /// display objects detect stale copies cheaply.
  uint64_t version() const { return version_; }
  void set_version(uint64_t v) { version_ = v; }
  void BumpVersion() { ++version_; }

  size_t attr_count() const { return values_.size(); }

  const Value& Get(size_t slot) const { return values_[slot]; }
  void Set(size_t slot, Value v) { values_[slot] = std::move(v); }

  /// Named access via the catalog. Returns NotFound for unknown attributes.
  Result<Value> GetByName(const SchemaCatalog& catalog, const std::string& name) const;
  Status SetByName(const SchemaCatalog& catalog, const std::string& name, Value v);

  /// Approximate in-memory footprint (for client DB-cache accounting).
  size_t MemoryBytes() const;
  /// Serialized size in bytes (for pages and message payloads).
  size_t WireBytes() const;

  void EncodeTo(Encoder* enc) const;
  static Status DecodeFrom(Decoder* dec, DatabaseObject* out);
  /// Decodes only the header of an encoded object (DecodeFrom reads the
  /// same fields first), leaving `dec` at the first value.
  static Status DecodeHeader(Decoder* dec, ObjectHeader* out);

  /// This object's references, in slot order (replaces `*out`).
  void Refs(std::vector<ObjectRef>* out) const;
  /// The references of an encoded object, in slot order (replaces `*out`),
  /// without materializing its other values.
  static Status DecodeRefs(Decoder* dec, std::vector<ObjectRef>* out);

  std::string ToString(const SchemaCatalog& catalog) const;

  bool operator==(const DatabaseObject& other) const = default;

 private:
  Oid oid_;
  ClassId class_id_ = 0;
  uint64_t version_ = 0;
  std::vector<Value> values_;
};

}  // namespace idba
