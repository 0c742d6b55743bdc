#include "objectmodel/object.h"

namespace idba {

Result<Value> DatabaseObject::GetByName(const SchemaCatalog& catalog,
                                        const std::string& name) const {
  auto slot = catalog.ResolveAttribute(class_id_, name);
  if (!slot.has_value()) {
    return Status::NotFound("attribute " + name + " on class " +
                            std::to_string(class_id_));
  }
  if (*slot >= values_.size()) {
    return Status::Internal("slot out of range for " + name);
  }
  return values_[*slot];
}

Status DatabaseObject::SetByName(const SchemaCatalog& catalog,
                                 const std::string& name, Value v) {
  auto slot = catalog.ResolveAttribute(class_id_, name);
  if (!slot.has_value()) {
    return Status::NotFound("attribute " + name + " on class " +
                            std::to_string(class_id_));
  }
  if (*slot >= values_.size()) {
    return Status::Internal("slot out of range for " + name);
  }
  values_[*slot] = std::move(v);
  return Status::OK();
}

size_t DatabaseObject::MemoryBytes() const {
  size_t bytes = sizeof(DatabaseObject);
  for (const auto& v : values_) bytes += v.MemoryBytes();
  return bytes;
}

size_t DatabaseObject::WireBytes() const {
  size_t bytes = 8 /*oid*/ + 4 /*class*/ + 8 /*version*/ + 5 /*count*/;
  for (const auto& v : values_) bytes += v.WireBytes();
  return bytes;
}

void DatabaseObject::EncodeTo(Encoder* enc) const {
  enc->PutU64(oid_.value);
  enc->PutU32(class_id_);
  enc->PutU64(version_);
  enc->PutVarint(values_.size());
  for (const auto& v : values_) v.EncodeTo(enc);
}

Status DatabaseObject::DecodeHeader(Decoder* dec, ObjectHeader* out) {
  IDBA_RETURN_NOT_OK(dec->GetU64(&out->oid.value));
  IDBA_RETURN_NOT_OK(dec->GetU32(&out->class_id));
  IDBA_RETURN_NOT_OK(dec->GetU64(&out->version));
  return dec->GetVarint(&out->attr_count);
}

Status DatabaseObject::DecodeFrom(Decoder* dec, DatabaseObject* out) {
  ObjectHeader h;
  IDBA_RETURN_NOT_OK(DecodeHeader(dec, &h));
  *out = DatabaseObject(h.oid, h.class_id, h.attr_count);
  out->set_version(h.version);
  for (uint64_t i = 0; i < h.attr_count; ++i) {
    Value v;
    IDBA_RETURN_NOT_OK(Value::DecodeFrom(dec, &v));
    out->Set(i, std::move(v));
  }
  return Status::OK();
}

void DatabaseObject::Refs(std::vector<ObjectRef>* out) const {
  out->clear();
  for (size_t i = 0; i < values_.size(); ++i) {
    if (values_[i].type() == ValueType::kOid) {
      out->push_back({static_cast<uint32_t>(i), values_[i].AsOid()});
    }
  }
}

Status DatabaseObject::DecodeRefs(Decoder* dec, std::vector<ObjectRef>* out) {
  out->clear();
  ObjectHeader h;
  IDBA_RETURN_NOT_OK(DecodeHeader(dec, &h));
  for (uint64_t i = 0; i < h.attr_count; ++i) {
    std::optional<Oid> oid;
    IDBA_RETURN_NOT_OK(Value::DecodeOid(dec, &oid));
    if (oid) out->push_back({static_cast<uint32_t>(i), *oid});
  }
  return Status::OK();
}

std::string DatabaseObject::ToString(const SchemaCatalog& catalog) const {
  const ClassDef* cls = catalog.Find(class_id_);
  std::string out = (cls ? cls->name() : "class" + std::to_string(class_id_)) +
                    "(" + oid_.ToString() + ", v" + std::to_string(version_) + "){";
  auto attrs = catalog.AllAttributes(class_id_);
  for (size_t i = 0; i < values_.size(); ++i) {
    if (i) out += ", ";
    out += (i < attrs.size() ? attrs[i]->name : "a" + std::to_string(i));
    out += "=" + values_[i].ToString();
  }
  return out + "}";
}

}  // namespace idba
