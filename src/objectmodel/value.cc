#include "objectmodel/value.h"

#include <cstdio>

namespace idba {

std::string_view ValueTypeName(ValueType t) {
  switch (t) {
    case ValueType::kNull: return "null";
    case ValueType::kInt: return "int";
    case ValueType::kDouble: return "double";
    case ValueType::kBool: return "bool";
    case ValueType::kString: return "string";
    case ValueType::kOid: return "oid";
    case ValueType::kOidList: return "oid_list";
  }
  return "?";
}

double Value::AsNumber() const {
  switch (type()) {
    case ValueType::kInt: return static_cast<double>(AsInt());
    case ValueType::kDouble: return AsDouble();
    case ValueType::kBool: return AsBool() ? 1.0 : 0.0;
    default: return 0.0;
  }
}

size_t Value::MemoryBytes() const {
  switch (type()) {
    case ValueType::kNull: return sizeof(Value);
    case ValueType::kInt:
    case ValueType::kDouble:
    case ValueType::kBool:
    case ValueType::kOid:
      return sizeof(Value);
    case ValueType::kString:
      return sizeof(Value) + AsString().capacity();
    case ValueType::kOidList:
      return sizeof(Value) + AsOidList().capacity() * sizeof(Oid);
  }
  return sizeof(Value);
}

size_t Value::WireBytes() const {
  switch (type()) {
    case ValueType::kNull: return 1;
    case ValueType::kBool: return 2;
    case ValueType::kInt:
    case ValueType::kDouble:
    case ValueType::kOid:
      return 1 + 8;
    case ValueType::kString:
      return 1 + 5 + AsString().size();  // tag + varint bound + bytes
    case ValueType::kOidList:
      return 1 + 5 + AsOidList().size() * 8;
  }
  return 1;
}

void Value::EncodeTo(Encoder* enc) const {
  enc->PutU8(static_cast<uint8_t>(type()));
  switch (type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt:
      enc->PutI64(AsInt());
      break;
    case ValueType::kDouble:
      enc->PutDouble(AsDouble());
      break;
    case ValueType::kBool:
      enc->PutU8(AsBool() ? 1 : 0);
      break;
    case ValueType::kString:
      enc->PutString(AsString());
      break;
    case ValueType::kOid:
      enc->PutU64(AsOid().value);
      break;
    case ValueType::kOidList: {
      const auto& list = AsOidList();
      enc->PutVarint(list.size());
      for (Oid oid : list) enc->PutU64(oid.value);
      break;
    }
  }
}

Status Value::DecodeFrom(Decoder* dec, Value* out) {
  uint8_t tag;
  IDBA_RETURN_NOT_OK(dec->GetU8(&tag));
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      *out = Value();
      return Status::OK();
    case ValueType::kInt: {
      int64_t v;
      IDBA_RETURN_NOT_OK(dec->GetI64(&v));
      *out = Value(v);
      return Status::OK();
    }
    case ValueType::kDouble: {
      double v;
      IDBA_RETURN_NOT_OK(dec->GetDouble(&v));
      *out = Value(v);
      return Status::OK();
    }
    case ValueType::kBool: {
      uint8_t v;
      IDBA_RETURN_NOT_OK(dec->GetU8(&v));
      *out = Value(v != 0);
      return Status::OK();
    }
    case ValueType::kString: {
      std::string s;
      IDBA_RETURN_NOT_OK(dec->GetString(&s));
      *out = Value(std::move(s));
      return Status::OK();
    }
    case ValueType::kOid: {
      uint64_t v;
      IDBA_RETURN_NOT_OK(dec->GetU64(&v));
      *out = Value(Oid(v));
      return Status::OK();
    }
    case ValueType::kOidList: {
      uint64_t n;
      IDBA_RETURN_NOT_OK(dec->GetVarint(&n));
      // Checked before reserving: a hostile count would throw from reserve.
      if (n > dec->remaining() / 8) return Status::Corruption("oid list body");
      std::vector<Oid> list;
      list.reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        uint64_t v;
        IDBA_RETURN_NOT_OK(dec->GetU64(&v));
        list.emplace_back(v);
      }
      *out = Value(std::move(list));
      return Status::OK();
    }
  }
  return Status::Corruption("unknown value tag " + std::to_string(tag));
}

Status Value::DecodeOid(Decoder* dec, std::optional<Oid>* oid) {
  uint8_t tag;
  IDBA_RETURN_NOT_OK(dec->GetU8(&tag));
  *oid = std::nullopt;
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      return Status::OK();
    case ValueType::kBool:
      return dec->Skip(1);
    case ValueType::kInt:
    case ValueType::kDouble:
      return dec->Skip(8);
    case ValueType::kString: {
      uint64_t len;
      IDBA_RETURN_NOT_OK(dec->GetVarint(&len));
      return dec->Skip(static_cast<size_t>(len));
    }
    case ValueType::kOid: {
      uint64_t v;
      IDBA_RETURN_NOT_OK(dec->GetU64(&v));
      *oid = Oid(v);
      return Status::OK();
    }
    case ValueType::kOidList: {
      uint64_t n;
      IDBA_RETURN_NOT_OK(dec->GetVarint(&n));
      if (n > dec->remaining() / 8) return Status::Corruption("oid list body");
      return dec->Skip(static_cast<size_t>(n) * 8);
    }
  }
  return Status::Corruption("unknown value tag " + std::to_string(tag));
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull: return "null";
    case ValueType::kInt: return std::to_string(AsInt());
    case ValueType::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", AsDouble());
      return buf;
    }
    case ValueType::kBool: return AsBool() ? "true" : "false";
    case ValueType::kString: return "\"" + AsString() + "\"";
    case ValueType::kOid: return AsOid().ToString();
    case ValueType::kOidList: {
      std::string out = "[";
      for (size_t i = 0; i < AsOidList().size(); ++i) {
        if (i) out += ",";
        out += std::to_string(AsOidList()[i].value);
      }
      return out + "]";
    }
  }
  return "?";
}

}  // namespace idba
