// E11 — Concurrent-user scalability (extension of §4.3's 4-user test).
//
// The paper tested "up to 4 concurrent users" and noted that was too small
// a scale to separate effects. Two parts:
//
//   1. The paper's workload at 2-16 threaded operators — throughput, abort
//      rate and notification traffic; display-lock handling is never the
//      bottleneck and displays stay exact at every scale.
//
//   2. A transport fan-out sweep: 100 → 5000 concurrent raw subscriber
//      connections, each holding one display lock on a hot object, against
//      the event-driven server (epoll reactor + worker pool). The old
//      3-threads-per-connection transport could not be measured at this
//      scale — 5000 connections would have needed ~15000 server threads;
//      the reactor serves them with a handful. Each update's NOTIFY body is
//      serialized exactly once (fanout encode/reuse counters prove it) and
//      fanned out to every subscriber via shared-buffer writev.
//
// Flags: --max-subscribers N caps part 2's sweep (CI smoke uses 500);
//        --fanout-only skips part 1.

#include <chrono>
#include <cstring>

#include "bench/exp_common.h"
#include "net/remote_client.h"
#include "net/tcp_server.h"
#include "nms/workload.h"
#include "obs/rpc_stats.h"

namespace idba {
namespace bench {
namespace {

void RunRow(int operators, NotifyProtocol protocol, Table* table) {
  WorkloadConfig config;
  config.network.num_nodes = 32;
  config.deployment.dlm.protocol = protocol;
  config.operators = operators;
  config.operator_options.update_probability = 0.5;
  config.operator_options.view_size = 16;
  config.operator_options.honor_update_marks =
      protocol == NotifyProtocol::kEarlyNotify;
  config.operator_options.links_per_update = 2;
  config.steps_per_operator = 120;
  config.threaded = true;
  config.monitor_steps_per_round = 1;

  auto runner = WorkloadRunner::Create(config).value();
  auto start = std::chrono::steady_clock::now();
  auto report = runner->Run().value();
  double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  double actions_per_s =
      (report.monitor_actions + report.updates_attempted) / seconds;
  table->AddRow(
      {protocol == NotifyProtocol::kEarlyNotify ? "early-notify" : "post-commit",
       FmtInt(operators), Fmt("%.0f", actions_per_s),
       FmtInt(report.updates_committed), Fmt("%.1f%%", report.abort_rate() * 100),
       FmtInt(report.deployment_stats.update_notifications),
       FmtInt(report.refreshes), FmtInt(report.stale_display_objects)});
}

void RunOperators() {
  Banner("E11a", "concurrent-user scalability (extension)",
         "the paper tested only 4 users; scaling the same workload shows "
         "display-lock handling is never the bottleneck and displays stay "
         "exact at every scale");
  Table table({"protocol", "operators", "actions/s", "commits", "abort %",
               "notifications", "refreshes", "stale"});
  for (NotifyProtocol protocol :
       {NotifyProtocol::kPostCommit, NotifyProtocol::kEarlyNotify}) {
    for (int operators : {2, 4, 8, 16}) {
      RunRow(operators, protocol, &table);
    }
  }
  table.Print();
  std::printf(
      "\nexpected shape: aggregate action throughput grows with operators\n"
      "(real host parallelism permitting); post-commit abort rates climb\n"
      "with contention while early-notify stays near zero; the stale column\n"
      "is 0 at EVERY scale — consistency does not degrade with users.\n");
}

// --- part 2: transport fan-out sweep ---------------------------------------

/// Raw subscriber: Hello + one display lock on `hot`, then the
/// socket just accumulates NOTIFY frames until drained.
bool Subscribe(Socket* sock, std::mutex* write_mu, uint64_t id, Oid hot) {
  {
    std::vector<uint8_t> payload;
    Encoder enc(&payload);
    enc.PutU8(static_cast<uint8_t>(wire::Method::kHello));
    enc.PutI64(0);
    enc.PutU64(id);
    enc.PutU8(0);  // kAvoidance
    enc.PutU8(wire::kWireVersion);
    if (!sock->WriteFrame(*write_mu, wire::FrameType::kRequest, 1, payload)
             .ok()) {
      return false;
    }
    wire::FrameHeader header;
    std::vector<uint8_t> reply;
    if (!sock->ReadFrame(&header, &reply).ok()) return false;
  }
  std::vector<uint8_t> payload;
  Encoder enc(&payload);
  enc.PutU8(static_cast<uint8_t>(wire::Method::kDlmLock));
  enc.PutI64(0);
  enc.PutI64(0);  // sent_at
  enc.PutU64(id);
  enc.PutU64(hot.value);
  if (!sock->WriteFrame(*write_mu, wire::FrameType::kRequest, 2, payload)
           .ok()) {
    return false;
  }
  wire::FrameHeader header;
  std::vector<uint8_t> reply;
  return sock->ReadFrame(&header, &reply).ok();
}

void RunFanoutRow(int subscribers, int commits, Table* table) {
  DeploymentOptions dep_opts;
  auto deployment = std::make_unique<Deployment>(dep_opts);
  NmsConfig net_config;
  net_config.num_nodes = 8;
  net_config.sites = 1;
  net_config.buildings_per_site = 1;
  net_config.racks_per_building = 1;
  net_config.devices_per_rack = 1;
  NmsDatabase db = PopulateNms(&deployment->server(), net_config).value();
  TransportServer transport(&deployment->server(), &deployment->dlm(),
                            &deployment->bus(), &deployment->meter());
  if (!transport.Start().ok()) {
    std::printf("  !! transport failed to start\n");
    return;
  }
  Oid hot = db.link_oids[0];

  std::mutex write_mu;
  std::vector<Socket> subs;
  subs.reserve(subscribers);
  auto connect_start = std::chrono::steady_clock::now();
  for (int i = 0; i < subscribers; ++i) {
    Result<Socket> raw = Socket::ConnectTo("127.0.0.1", transport.port());
    if (!raw.ok() ||
        !Subscribe(&raw.value(), &write_mu, 10000 + i, hot)) {
      std::printf("  !! subscriber %d failed (fd limit? see ulimit -n)\n", i);
      return;
    }
    subs.push_back(std::move(raw).value());
  }
  double connect_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    connect_start)
          .count();

  auto writer = RemoteDatabaseClient::Connect("127.0.0.1", transport.port(),
                                              999)
                    .value();
  const uint64_t encodes_before = transport.fanout_encodes();
  const uint64_t reuses_before = transport.fanout_reuses();
  auto notify_start = std::chrono::steady_clock::now();
  for (int c = 0; c < commits; ++c) {
    Status st = UpdateUtilization(writer.get(), hot, 0.10 + 0.01 * c);
    if (!st.ok()) {
      std::printf("  !! commit failed: %s\n", st.ToString().c_str());
      return;
    }
  }
  // Drain every subscriber: commits × subscribers NOTIFY frames total.
  uint64_t received = 0;
  for (Socket& sock : subs) {
    (void)sock.SetRecvTimeout(30000);
    for (int c = 0; c < commits; ++c) {
      wire::FrameHeader header;
      std::vector<uint8_t> frame;
      if (!sock.ReadFrame(&header, &frame).ok()) break;
      if (header.type == wire::FrameType::kNotify) ++received;
    }
  }
  double notify_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    notify_start)
          .count();

  const uint64_t encodes = transport.fanout_encodes() - encodes_before;
  const uint64_t reuses = transport.fanout_reuses() - reuses_before;
  const uint64_t expected = uint64_t(subscribers) * commits;
  table->AddRow({FmtInt(subscribers), FmtInt(transport.io_threads()),
                 FmtInt(transport.worker_threads()),
                 Fmt("%.2fs", connect_s),
                 FmtInt(received) + "/" + FmtInt(expected),
                 Fmt("%.0f", received / notify_s), FmtInt(encodes),
                 FmtInt(reuses)});
}

void RunFanout(int max_subscribers) {
  Banner("E11b", "NOTIFY fan-out connection sweep",
         "the event-driven transport (epoll reactor + worker pool) carries "
         "thousands of concurrent subscribers; each update's NOTIFY body is "
         "serialized once and reused for every other subscriber");
  Table table({"subscribers", "io_thr", "workers", "connect", "delivered",
               "notify/s", "encodes", "reuses"});
  for (int subscribers : {100, 500, 1000, 2500, 5000}) {
    if (subscribers > max_subscribers) break;
    RunFanoutRow(subscribers, /*commits=*/5, &table);
  }
  table.Print();
  // Server-side per-opcode latency split for the subscriber-facing calls
  // (global across the sweep; bounded tails show admission + strand
  // scheduling keep per-request work constant as connections grow).
  obs::RpcPartHistograms& lock = obs::GlobalRpcStats().HandleFor(
      static_cast<int>(wire::Method::kDlmLock), "DlmLock");
  obs::RpcPartHistograms& hello = obs::GlobalRpcStats().HandleFor(
      static_cast<int>(wire::Method::kHello), "Hello");
  std::printf(
      "\nper-opcode server p99 across the sweep: Hello %.0f us, DlmLock %.0f "
      "us\n",
      hello.total_us->Percentile(99), lock.total_us->Percentile(99));
  std::printf(
      "expected shape: delivered == subscribers x commits at every scale;\n"
      "encodes == commits and reuses == commits x (subscribers-1) — the\n"
      "single-serialization invariant; notify/s grows with subscribers.\n"
      "(the former 3-threads-per-connection transport would have needed\n"
      "~15000 server threads for the 5000-subscriber row)\n");
}

}  // namespace
}  // namespace bench
}  // namespace idba

int main(int argc, char** argv) {
  int max_subscribers = 5000;
  bool fanout_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--max-subscribers") == 0 && i + 1 < argc) {
      max_subscribers = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--fanout-only") == 0) {
      fanout_only = true;
    }
  }
  if (!fanout_only) idba::bench::RunOperators();
  idba::bench::RunFanout(max_subscribers);
  return 0;
}
