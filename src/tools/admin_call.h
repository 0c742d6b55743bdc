// Shared ADMIN-call helper for the operator CLIs (idba_stat, idba_top).
//
// ADMIN (net/admin.h) carries every operator verb: STATS, TRACE_DUMP,
// METRICS, LOCKS, CACHES, FLIGHT, PROFILE and AUDIT. It is callable on a
// fresh connection without a Hello handshake and exempt from
// admission-control shedding, so these tools can be pointed at a loaded
// production server without perturbing session state.

#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "net/admin.h"
#include "net/socket.h"
#include "net/wire.h"

namespace idba {
namespace tools {

/// One ADMIN call on `sock`: request payload is ADMIN | client_vtime |
/// verb | args; response is [TraceInfo] status | completion | string.
/// `seq` must be unique per in-flight request on the connection; callers
/// issuing repeated calls (watch loops) should increment it.
inline Status AdminCall(Socket& sock, admin::Verb verb,
                        const std::vector<uint8_t>& args, std::string* out,
                        uint64_t seq = 1) {
  std::vector<uint8_t> payload;
  Encoder enc(&payload);
  enc.PutU8(static_cast<uint8_t>(wire::Method::kAdmin));
  enc.PutI64(0);  // client vtime: admin calls are unmetered
  enc.PutU8(static_cast<uint8_t>(verb));
  payload.insert(payload.end(), args.begin(), args.end());
  std::mutex write_mu;
  IDBA_RETURN_NOT_OK(
      sock.WriteFrame(write_mu, wire::FrameType::kRequest, seq, payload));
  wire::FrameHeader header;
  std::vector<uint8_t> resp;
  // Skip any NOTIFY/CALLBACK frames the server might interleave (none are
  // expected pre-Hello, but be robust).
  for (;;) {
    IDBA_RETURN_NOT_OK(sock.ReadFrame(&header, &resp));
    if (header.type == wire::FrameType::kResponse) break;
  }
  Decoder dec(resp.data(), resp.size());
  if (header.traced) {
    wire::TraceInfo ignored;
    IDBA_RETURN_NOT_OK(wire::DecodeTraceInfo(&dec, &ignored));
  }
  Status st;
  IDBA_RETURN_NOT_OK(wire::DecodeStatus(&dec, &st));
  IDBA_RETURN_NOT_OK(st);
  int64_t completion = 0;
  IDBA_RETURN_NOT_OK(dec.GetI64(&completion));
  return dec.GetString(out);
}

/// Splits "host:port" (port mandatory). Returns false on malformed input.
inline bool SplitHostPort(const std::string& connect, std::string* host,
                          uint16_t* port) {
  auto colon = connect.rfind(':');
  if (connect.empty() || colon == std::string::npos) return false;
  *host = connect.substr(0, colon);
  *port = static_cast<uint16_t>(std::atoi(connect.c_str() + colon + 1));
  return true;
}

}  // namespace tools
}  // namespace idba
