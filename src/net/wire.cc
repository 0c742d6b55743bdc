#include "net/wire.h"

namespace idba {
namespace wire {

std::string_view MethodName(Method m) {
  switch (m) {
    case Method::kHello: return "Hello";
    case Method::kBegin: return "Begin";
    case Method::kCommit: return "Commit";
    case Method::kCommitValidated: return "CommitValidated";
    case Method::kAbort: return "Abort";
    case Method::kFetch: return "Fetch";
    case Method::kFetchCurrent: return "FetchCurrent";
    case Method::kLockForRead: return "LockForRead";
    case Method::kPut: return "Put";
    case Method::kInsert: return "Insert";
    case Method::kErase: return "Erase";
    case Method::kScanClass: return "ScanClass";
    case Method::kQuery: return "Query";
    case Method::kAllocateOid: return "AllocateOid";
    case Method::kGetVersion: return "GetVersion";
    case Method::kDefineClass: return "DefineClass";
    case Method::kAddAttribute: return "AddAttribute";
    case Method::kNoteEvicted: return "NoteEvicted";
    case Method::kDlmLock: return "DlmLock";
    case Method::kDlmUnlock: return "DlmUnlock";
    case Method::kDlmLockBatch: return "DlmLockBatch";
    case Method::kDlmUnlockBatch: return "DlmUnlockBatch";
    case Method::kPing: return "Ping";
    case Method::kAdmin: return "Admin";
    case Method::kDlmReregister: return "DlmReregister";
  }
  return "Unknown";
}

void EncodeHeader(const FrameHeader& h, uint8_t out[kHeaderBytes]) {
  std::vector<uint8_t> buf;
  buf.reserve(kHeaderBytes);
  Encoder enc(&buf);
  enc.PutU32(h.payload_len);
  enc.PutU8(static_cast<uint8_t>(h.type) | (h.traced ? kTracedBit : 0));
  enc.PutU64(h.seq);
  std::memcpy(out, buf.data(), kHeaderBytes);
}

Status DecodeHeader(const uint8_t in[kHeaderBytes], FrameHeader* out) {
  Decoder dec(in, kHeaderBytes);
  uint8_t type = 0;
  IDBA_RETURN_NOT_OK(dec.GetU32(&out->payload_len));
  IDBA_RETURN_NOT_OK(dec.GetU8(&type));
  IDBA_RETURN_NOT_OK(dec.GetU64(&out->seq));
  out->traced = (type & kTracedBit) != 0;
  type &= static_cast<uint8_t>(~kTracedBit);
  if (type < static_cast<uint8_t>(FrameType::kRequest) ||
      type > static_cast<uint8_t>(FrameType::kResyncAck)) {
    return Status::Corruption("unknown frame type " + std::to_string(type));
  }
  if (out->payload_len > kMaxPayloadBytes) {
    return Status::Corruption("frame payload " +
                              std::to_string(out->payload_len) +
                              " exceeds limit");
  }
  out->type = static_cast<FrameType>(type);
  return Status::OK();
}

void EncodeTraceInfo(const TraceInfo& t, Encoder* enc) {
  enc->PutU64(t.trace_id);
  enc->PutU64(t.span_id);
  enc->PutU32(t.queue_us);
  enc->PutU32(t.exec_us);
}

Status DecodeTraceInfo(Decoder* dec, TraceInfo* out) {
  IDBA_RETURN_NOT_OK(dec->GetU64(&out->trace_id));
  IDBA_RETURN_NOT_OK(dec->GetU64(&out->span_id));
  IDBA_RETURN_NOT_OK(dec->GetU32(&out->queue_us));
  IDBA_RETURN_NOT_OK(dec->GetU32(&out->exec_us));
  return Status::OK();
}

void EncodeStatus(const Status& st, Encoder* enc) {
  enc->PutU8(static_cast<uint8_t>(st.code()));
  enc->PutString(st.message());
}

Status DecodeStatus(Decoder* dec, Status* out) {
  uint8_t code = 0;
  std::string message;
  IDBA_RETURN_NOT_OK(dec->GetU8(&code));
  IDBA_RETURN_NOT_OK(dec->GetString(&message));
  if (code > static_cast<uint8_t>(StatusCode::kOverloaded)) {
    return Status::Corruption("unknown status code " + std::to_string(code));
  }
  *out = Status(static_cast<StatusCode>(code), std::move(message));
  return Status::OK();
}

void EncodeOidVector(const std::vector<Oid>& oids, Encoder* enc) {
  enc->PutVarint(oids.size());
  for (Oid oid : oids) enc->PutU64(oid.value);
}

Status DecodeOidVector(Decoder* dec, std::vector<Oid>* out) {
  uint64_t n = 0;
  IDBA_RETURN_NOT_OK(dec->GetVarint(&n));
  out->clear();
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t oid = 0;
    IDBA_RETURN_NOT_OK(dec->GetU64(&oid));
    out->emplace_back(oid);
  }
  return Status::OK();
}

void EncodeObjectVector(const std::vector<DatabaseObject>& objs, Encoder* enc) {
  enc->PutVarint(objs.size());
  for (const DatabaseObject& obj : objs) obj.EncodeTo(enc);
}

Status DecodeObjectVector(Decoder* dec, std::vector<DatabaseObject>* out) {
  uint64_t n = 0;
  IDBA_RETURN_NOT_OK(dec->GetVarint(&n));
  out->clear();
  for (uint64_t i = 0; i < n; ++i) {
    DatabaseObject obj;
    IDBA_RETURN_NOT_OK(DatabaseObject::DecodeFrom(dec, &obj));
    out->push_back(std::move(obj));
  }
  return Status::OK();
}

void EncodeCommitResult(const CommitResult& result, Encoder* enc) {
  enc->PutU64(result.txn);
  EncodeObjectVector(result.updated, enc);
  EncodeOidVector(result.erased, enc);
  enc->PutVarint(static_cast<uint64_t>(result.page_misses));
}

Status DecodeCommitResult(Decoder* dec, CommitResult* out) {
  IDBA_RETURN_NOT_OK(dec->GetU64(&out->txn));
  IDBA_RETURN_NOT_OK(DecodeObjectVector(dec, &out->updated));
  IDBA_RETURN_NOT_OK(DecodeOidVector(dec, &out->erased));
  uint64_t misses = 0;
  IDBA_RETURN_NOT_OK(dec->GetVarint(&misses));
  out->page_misses = static_cast<int>(misses);
  return Status::OK();
}

void EncodeReadSet(const std::vector<std::pair<Oid, uint64_t>>& reads,
                   Encoder* enc) {
  enc->PutVarint(reads.size());
  for (const auto& [oid, version] : reads) {
    enc->PutU64(oid.value);
    enc->PutU64(version);
  }
}

Status DecodeReadSet(Decoder* dec,
                     std::vector<std::pair<Oid, uint64_t>>* out) {
  uint64_t n = 0;
  IDBA_RETURN_NOT_OK(dec->GetVarint(&n));
  out->clear();
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t oid = 0, version = 0;
    IDBA_RETURN_NOT_OK(dec->GetU64(&oid));
    IDBA_RETURN_NOT_OK(dec->GetU64(&version));
    out->emplace_back(Oid(oid), version);
  }
  return Status::OK();
}

void EncodeNotifyMeta(const NotifyFrame& f, Encoder* enc) {
  enc->PutU32(f.from);
  enc->PutU32(f.to);
  enc->PutI64(f.sent_at);
  enc->PutI64(f.arrives_at);
  enc->PutVarint(f.virtual_wire_bytes);
  enc->PutU8(static_cast<uint8_t>(f.kind));
}

Status DecodeNotifyMeta(Decoder* dec, NotifyFrame* out) {
  IDBA_RETURN_NOT_OK(dec->GetU32(&out->from));
  IDBA_RETURN_NOT_OK(dec->GetU32(&out->to));
  IDBA_RETURN_NOT_OK(dec->GetI64(&out->sent_at));
  IDBA_RETURN_NOT_OK(dec->GetI64(&out->arrives_at));
  IDBA_RETURN_NOT_OK(dec->GetVarint(&out->virtual_wire_bytes));
  uint8_t kind = 0;
  IDBA_RETURN_NOT_OK(dec->GetU8(&kind));
  if (kind < static_cast<uint8_t>(NotifyKind::kUpdate) ||
      kind > static_cast<uint8_t>(NotifyKind::kResync)) {
    return Status::Corruption("unknown notify kind " + std::to_string(kind));
  }
  out->kind = static_cast<NotifyKind>(kind);
  return Status::OK();
}

}  // namespace wire
}  // namespace idba
