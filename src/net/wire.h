// Length-prefixed binary wire protocol for the client-server transport.
//
// Every frame on the socket is:
//
//   header (13 bytes, little-endian):
//     u32  payload_len          length of everything after the header
//     u8   frame type           FrameType below
//     u64  seq                  correlation id (sender-assigned per direction)
//   payload (payload_len bytes), by frame type:
//     REQUEST / ONEWAY:  u8 method | i64 client_vtime | method body
//     RESPONSE:          u8 status code | string message |
//                        i64 completion_vtime | method body
//     NOTIFY:            u32 from | u32 to | i64 sent_at | i64 arrives_at |
//                        varint virtual_wire_bytes | u8 kind | message body
//     CALLBACK:          u64 oid | u64 new_version
//     CALLBACK_ACK:      (empty)
//
// REQUEST expects exactly one RESPONSE with the same seq on the same
// connection. ONEWAY frames are requests without responses (eviction
// notices and — per the paper §4.1, "display lock requests are not
// acknowledged" in virtual cost terms — they still use REQUEST on the wire
// so a client can order its lock registration before dependent commits).
// NOTIFY and CALLBACK flow server->client over the same connection; a
// CALLBACK (cache invalidation) must be answered with CALLBACK_ACK carrying
// the same seq before the triggering commit completes, reproducing
// callback-locking's invalidate-before-commit guarantee over real sockets.
//
// A session opens with Hello, whose body ends with the client's
// kWireVersion; the server refuses any other revision. Operator calls
// (stats, metrics, traces, locks, caches, flight, profile, audit) share one
// ADMIN method whose body starts with a verb byte (net/admin.h).
//
// All integers little-endian via Encoder/Decoder (common/codec.h); the
// Decoder is hardened against truncated/malformed payloads, so a corrupt or
// hostile peer produces Status::Corruption and a dropped connection, never
// out-of-bounds reads.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/status.h"
#include "common/vtime.h"
#include "net/message.h"
#include "objectmodel/object.h"
#include "objectmodel/query.h"
#include "txn/txn_manager.h"

namespace idba {

namespace wire {

constexpr size_t kHeaderBytes = 13;
/// Upper bound on a single frame payload; a peer announcing more is corrupt
/// (or hostile) and gets disconnected.
constexpr uint32_t kMaxPayloadBytes = 64u << 20;

/// Protocol revision this build speaks. A client sends it as the last byte
/// of its Hello body; the server refuses a Hello that carries any other
/// value (or none), so both ends of a session always speak this revision.
constexpr uint8_t kWireVersion = 3;

/// High bit of the frame-type byte: when set, the payload begins with an
/// encoded TraceInfo (trace header). The low 7 bits are the FrameType.
constexpr uint8_t kTracedBit = 0x80;

enum class FrameType : uint8_t {
  kRequest = 1,
  kResponse = 2,
  kNotify = 3,
  kCallback = 4,
  kCallbackAck = 5,
  kOneWay = 6,
  /// Client -> server: "I processed the RESYNC notification with this seq
  /// and cleared my cache" — the server keeps eliding the client's
  /// invalidation callbacks until this arrives.
  kResyncAck = 7,
};

/// RPC method selectors. Wire-stable: append only.
enum class Method : uint8_t {
  kHello = 1,
  kBegin = 2,
  kCommit = 3,
  kCommitValidated = 4,
  kAbort = 5,
  kFetch = 6,
  kFetchCurrent = 7,
  kLockForRead = 8,
  kPut = 9,
  kInsert = 10,
  kErase = 11,
  kScanClass = 12,
  kQuery = 13,
  kAllocateOid = 14,
  kGetVersion = 15,
  kDefineClass = 16,
  kAddAttribute = 17,
  kNoteEvicted = 18,
  kDlmLock = 19,
  kDlmUnlock = 20,
  kDlmLockBatch = 21,
  kDlmUnlockBatch = 22,
  kPing = 23,
  /// Operator introspection: body is a u8 admin::Verb followed by that
  /// verb's arguments (net/admin.h); response: string. Like kPing it is
  /// callable before Hello, and admission control never sheds it.
  kAdmin = 24,
  // 25-30 and 32 are retired; the server answers them as unknown methods.
  kDlmReregister = 31,  ///< body: i64 sent_at, u64 holder, oid vector —
                        ///< idempotent bulk replay of held display locks
                        ///< after a reconnect to a restarted server
};

std::string_view MethodName(Method m);

/// Asynchronous message kinds carried by NOTIFY frames.
enum class NotifyKind : uint8_t {
  kUpdate = 1,
  kIntent = 2,
  /// Server -> client: notifications for this client were shed under
  /// overload; the client must treat its whole view state as stale and
  /// refetch (ResyncNotifyMessage body).
  kResync = 3,
};

struct FrameHeader {
  uint32_t payload_len = 0;
  FrameType type = FrameType::kRequest;
  uint64_t seq = 0;
  bool traced = false;  ///< payload starts with a TraceInfo
};

/// Encodes `h` into exactly kHeaderBytes at out[0..12].
void EncodeHeader(const FrameHeader& h, uint8_t out[kHeaderBytes]);
/// Decodes a header; rejects unknown frame types and oversized payloads.
/// Accepts the traced bit (sets out->traced).
Status DecodeHeader(const uint8_t in[kHeaderBytes], FrameHeader* out);

/// Trace header carried at the front of a traced frame's payload.
/// On REQUEST/ONEWAY/NOTIFY/CALLBACK it propagates the sender's context;
/// on RESPONSE it echoes the request's context and reports where the
/// server spent the call's time, letting the client decompose its measured
/// round-trip into network vs queue-wait vs execution without cross-process
/// trace merging.
struct TraceInfo {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;   ///< sender's span (the receiver's parent)
  uint32_t queue_us = 0;  ///< RESPONSE only: server queue wait
  uint32_t exec_us = 0;   ///< RESPONSE only: server execution time
};

void EncodeTraceInfo(const TraceInfo& t, Encoder* enc);
Status DecodeTraceInfo(Decoder* dec, TraceInfo* out);

// --- Status ------------------------------------------------------------
void EncodeStatus(const Status& st, Encoder* enc);
Status DecodeStatus(Decoder* dec, Status* out);

// --- Oid vectors -------------------------------------------------------
void EncodeOidVector(const std::vector<Oid>& oids, Encoder* enc);
Status DecodeOidVector(Decoder* dec, std::vector<Oid>* out);

// --- Object vectors ----------------------------------------------------
void EncodeObjectVector(const std::vector<DatabaseObject>& objs, Encoder* enc);
Status DecodeObjectVector(Decoder* dec, std::vector<DatabaseObject>* out);

// --- CommitResult ------------------------------------------------------
void EncodeCommitResult(const CommitResult& result, Encoder* enc);
Status DecodeCommitResult(Decoder* dec, CommitResult* out);

// --- Read sets (detection-mode validation) -----------------------------
void EncodeReadSet(const std::vector<std::pair<Oid, uint64_t>>& reads,
                   Encoder* enc);
Status DecodeReadSet(Decoder* dec,
                     std::vector<std::pair<Oid, uint64_t>>* out);

/// Envelope metadata + payload of a NOTIFY frame, wire form of net/message.h
/// Envelope. `kind` selects the body decoder (UpdateNotifyMessage /
/// IntentNotifyMessage from core/notification.h, which own their codecs).
struct NotifyFrame {
  uint32_t from = 0;
  uint32_t to = 0;
  VTime sent_at = 0;
  VTime arrives_at = 0;
  uint64_t virtual_wire_bytes = 0;
  NotifyKind kind = NotifyKind::kUpdate;
  std::vector<uint8_t> body;
};

void EncodeNotifyMeta(const NotifyFrame& f, Encoder* enc);
/// Decodes the metadata; leaves `dec` positioned at the message body.
Status DecodeNotifyMeta(Decoder* dec, NotifyFrame* out);

}  // namespace wire

}  // namespace idba
