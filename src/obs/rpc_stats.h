// Per-opcode RPC latency decomposition.
//
// For each wire method the client records where a call's wall time went:
//
//   rpc.<method>.serialize_us    encode request payload
//   rpc.<method>.network_us      send -> response received, minus the
//                                server-reported queue + execute time
//   rpc.<method>.queue_us        server-side wait reader -> worker
//   rpc.<method>.execute_us      server-side ExecuteMethod
//   rpc.<method>.deserialize_us  decode response payload
//   rpc.<method>.total_us        end-to-end at the caller
//
// Server-side parts arrive in the response frame's TraceInfo; on an
// untraced call queue/execute are unknown and network_us absorbs them. Histograms live in GlobalMetrics; this table exists so the per-call
// hot path costs an array index, not six registry map lookups.

#pragma once

#include <cstdint>

#include "common/metrics.h"

namespace idba {
namespace obs {

/// Cached histogram pointers for one method.
struct RpcPartHistograms {
  Histogram* serialize_us = nullptr;
  Histogram* network_us = nullptr;
  Histogram* queue_us = nullptr;
  Histogram* execute_us = nullptr;
  Histogram* deserialize_us = nullptr;
  Histogram* total_us = nullptr;
};

/// Lazily-built table of RpcPartHistograms indexed by wire method id.
class RpcStats {
 public:
  static constexpr int kMaxMethods = 64;

  /// Histograms for `method` (registered in GlobalMetrics on first use as
  /// rpc.<name>.<part>_us). `name` must be the stable method name; out of
  /// range ids share a single "other" slot.
  RpcPartHistograms& HandleFor(int method, const char* name);

 private:
  std::mutex mu_;  ///< guards slot initialization only
  std::atomic<RpcPartHistograms*> slots_[kMaxMethods + 1] = {};
};

/// Process-wide table used by the remote client (and anything else that
/// wants per-method decomposition).
RpcStats& GlobalRpcStats();

}  // namespace obs
}  // namespace idba
