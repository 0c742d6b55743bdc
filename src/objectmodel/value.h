// Typed attribute values stored in database and display objects.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "common/codec.h"
#include "common/status.h"
#include "objectmodel/oid.h"

namespace idba {

/// Attribute type tags. Wire-stable: values are persisted.
enum class ValueType : uint8_t {
  kNull = 0,
  kInt = 1,
  kDouble = 2,
  kBool = 3,
  kString = 4,
  kOid = 5,
  kOidList = 6,  ///< relationships: ordered list of target OIDs
};

std::string_view ValueTypeName(ValueType t);

/// A dynamically typed attribute value.
class Value {
 public:
  Value() : var_(std::monostate{}) {}
  Value(int64_t v) : var_(v) {}                    // NOLINT
  Value(int v) : var_(static_cast<int64_t>(v)) {}  // NOLINT
  Value(double v) : var_(v) {}                     // NOLINT
  Value(bool v) : var_(v) {}                       // NOLINT
  Value(std::string v) : var_(std::move(v)) {}     // NOLINT
  Value(const char* v) : var_(std::string(v)) {}   // NOLINT
  Value(Oid v) : var_(v) {}                        // NOLINT
  Value(std::vector<Oid> v) : var_(std::move(v)) {}  // NOLINT

  ValueType type() const {
    return static_cast<ValueType>(var_.index());
  }
  bool is_null() const { return type() == ValueType::kNull; }

  int64_t AsInt() const { return std::get<int64_t>(var_); }
  double AsDouble() const { return std::get<double>(var_); }
  bool AsBool() const { return std::get<bool>(var_); }
  const std::string& AsString() const { return std::get<std::string>(var_); }
  Oid AsOid() const { return std::get<Oid>(var_); }
  const std::vector<Oid>& AsOidList() const {
    return std::get<std::vector<Oid>>(var_);
  }

  /// Numeric view: int or double widened to double; 0 otherwise.
  double AsNumber() const;

  bool operator==(const Value& other) const = default;

  /// Approximate in-memory footprint in bytes (for cache accounting).
  size_t MemoryBytes() const;

  /// Serialized wire/page size in bytes.
  size_t WireBytes() const;

  void EncodeTo(Encoder* enc) const;
  static Status DecodeFrom(Decoder* dec, Value* out);
  /// Consumes one encoded value like DecodeFrom, but materializes only an
  /// OID: sets `*oid` to it for a kOid value and to nullopt for any other
  /// type, whose body is skipped without allocating.
  static Status DecodeOid(Decoder* dec, std::optional<Oid>* oid);

  std::string ToString() const;

 private:
  // Variant index order must match ValueType values.
  std::variant<std::monostate, int64_t, double, bool, std::string, Oid,
               std::vector<Oid>>
      var_;
};

}  // namespace idba
