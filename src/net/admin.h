// Operator surface of a TransportServer: the verbs of the ADMIN wire method
// and the JSON documents they return.
//
// An ADMIN request body is one verb byte followed by that verb's arguments;
// the response body is one string. The transport treats every verb alike:
// callable on a fresh connection before Hello and never shed by admission
// control, so an operator can look into an overloaded server without
// perturbing session state (DESIGN.md §10). Verbs and their arguments:
//
//   kStats      -                     STATS JSON (StatsJson below)
//   kTraceDump  u8 format, u8 clear   span ring; format 0 = Chrome trace,
//                                     1 = JSONL; clear != 0 empties it
//   kMetrics    u8 format             0 = Prometheus text, 1 = registry JSON
//   kLocks      u8 top_k              LOCKS JSON; 0 = the default 10
//   kCaches     -                     CACHES JSON
//   kFlight     -                     flight-recorder dump
//   kProfile    u8 action [u32 hz]    0 = status, 1 = start at hz (0 = 99),
//                                     2 = stop, 3 = folded stacks
//   kAudit      -                     consistency auditor report JSON
//
// Trailing argument bytes may be omitted; each defaults to 0.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/codec.h"
#include "common/status.h"

namespace idba {

class TransportServer;

namespace admin {

enum class Verb : uint8_t {
  kStats = 1,
  kTraceDump = 2,
  kMetrics = 3,
  kLocks = 4,
  kCaches = 5,
  kFlight = 6,
  kProfile = 7,
  kAudit = 8,
};

/// Stable verb name ("Stats", "Metrics", ...), or nullptr for a byte that
/// names no verb. The server times and traces admin calls under it
/// (rpc.<name>.*, server.execute notes).
const char* VerbName(uint8_t verb);

/// Decodes one ADMIN body (verb byte and arguments) from `dec` and runs it
/// against `transport`. An unknown verb is InvalidArgument.
Status Execute(const TransportServer& transport, Decoder* dec,
               std::string* out);

/// Full server state as one JSON object: transport and overload counters,
/// sessions, the DLM table, WAL and checkpoint progress, slow RPCs, trace
/// ring occupancy, and every GlobalMetrics metric.
std::string StatsJson(const TransportServer& transport);
/// The server lock manager's table (holders, waiters, wait-for edges, the
/// `top_k` most contended OIDs, counters) plus the DLM display-lock table.
std::string LocksJson(const TransportServer& transport, size_t top_k = 10);
/// Cache hierarchy: buffer-pool occupancy and hit rate, per-client
/// registered object copies, per-client display subscriptions, and every
/// cache.* registry series.
std::string CachesJson(const TransportServer& transport);

}  // namespace admin
}  // namespace idba
