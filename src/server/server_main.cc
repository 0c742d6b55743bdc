// idba_serve: standalone database server process.
//
// Hosts one deployment (DatabaseServer + Display Lock Manager + shared
// notification bus / RPC meter) behind the TCP wire protocol so client
// applications (examples, NMS workload, tests) can run out-of-process:
//
//   ./idba_serve --port 7450
//   ./quickstart --connect 127.0.0.1:7450    # in another process
//
// Flags:
//   --port N          listen port (default 0 = ephemeral; the bound port is
//                     printed on stdout either way)
//   --bind ADDR       numeric IPv4 address to bind (default 127.0.0.1;
//                     "0.0.0.0" serves non-local clients)
//   --idle-timeout N  drop connections silent for N ms (default 0 = never;
//                     only safe when clients heartbeat faster than this)
//   --eager           DLM ships new object images inside notifications
//   --early-notify    DLM sends update-intention notices at X-lock time
//   --integrated      integrated DLM deployment (no agent hops between the
//                     server's commit hooks and the DLM)
//   --trace [N]       record server-side trace spans (sample 1-in-N roots,
//                     default every root); dump via `idba_stat --trace`
//   --slow-rpc-ms N   log + ring-buffer RPCs slower than N ms (default 250,
//                     0 disables)
//   --metrics-interval SECS
//                     print a STATS JSON document to stdout every SECS
//                     seconds (one document per line)
//   --prom-port N     serve Prometheus text exposition on
//                     http://<bind>:N/metrics (0 = ephemeral, printed on
//                     stdout; omit the flag for no HTTP endpoint)
//   --max-queue N     per-connection request-queue bound; beyond it the
//                     reader rejects REQUESTs with Status::Overloaded and
//                     a retry-after hint (default 256, 0 = unbounded)
//   --max-inflight N  server-wide cap on admitted-but-unfinished requests
//                     (default 1024, 0 = unlimited)
//   --io-threads N    epoll reactor threads (default 0 = auto: half the
//                     cores, clamped to [1, 8]); echoed in STATS
//   --worker-threads N
//                     request-execution pool size (default 0 = auto:
//                     max(cores, 4)); echoed in STATS
//   --wal-group-commit-us N
//                     group-commit window: the WAL flush leader lingers up
//                     to N microseconds for more committers before paying
//                     the fsync (default 0 = sync immediately; batching
//                     then comes only from fsync backpressure). Trades a
//                     bounded bump in commit latency for fewer fsyncs —
//                     see DESIGN.md §12
//   --profile-hz N    start the sampling profiler at N Hz on boot (it can
//                     also be started per-run via `idba_stat --profile`,
//                     which also dumps the folded stacks; DESIGN.md §13)
//   --watchdog-ms N   stall-watchdog threshold: a loop/worker thread stuck
//                     in one dispatch longer than N ms is reported with its
//                     stack and a flight dump (default 1000, 0 disables)
//   --flight-dump PATH
//                     where crash/stall flight-recorder dumps are written
//                     (default idba_flight.<pid>.dump in the cwd)
//   --audit off|track|strict
//                     online consistency auditor (DESIGN.md §15): track
//                     records violations of the monotonicity / visibility
//                     / coherence invariants into consistency.* metrics
//                     and `idba_stat --audit`; strict additionally aborts
//                     with a flight dump on the first violation (chaos
//                     harness / CI smoke). Default off
//   --staleness-slo-ms N
//                     per-view staleness SLO: a commit touching a
//                     display-locked object must be reflected by the
//                     subscriber's view within N virtual milliseconds
//                     (default 100; 0 disables the visibility deadline)
//   --data-dir PATH   durable mode: heap pages and WAL live in PATH
//                     (data.idb / wal.idb, created on first boot). Boot
//                     replays the WAL — committed transactions survive a
//                     crash, replay is bounded by WAL-since-last-checkpoint.
//                     Without the flag everything is in-memory (default)
//   --checkpoint-interval-ms N
//                     run an online fuzzy checkpoint every N ms (0 =
//                     no time trigger). Transactions keep committing
//                     throughout; each checkpoint truncates the WAL up to
//                     its fence so recovery stays bounded — DESIGN.md §14
//   --checkpoint-wal-bytes N
//                     also checkpoint whenever the WAL has grown N bytes
//                     since the last one (0 = no byte trigger)
//
// The process runs until SIGINT/SIGTERM, then checkpoints and exits.
// SIGPIPE is ignored process-wide (peers closing mid-write surface as
// EPIPE); SIGSEGV/SIGBUS/SIGABRT write a flight dump before re-raising.

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <semaphore.h>
#include <unistd.h>

#include "core/session.h"
#include "net/admin.h"
#include "net/tcp_server.h"
#include "server/checkpointer.h"
#include "server/durable.h"
#include "obs/audit.h"
#include "obs/flight.h"
#include "obs/profiler.h"
#include "obs/prom_http.h"
#include "obs/trace.h"
#include "obs/watchdog.h"

namespace {

sem_t g_stop_sem;

void HandleStop(int) { sem_post(&g_stop_sem); }

}  // namespace

int main(int argc, char** argv) {
  uint16_t port = 0;
  std::string bind_host = "127.0.0.1";
  long idle_timeout_ms = 0;
  long metrics_interval_s = 0;
  long prom_port = -1;  // -1 = no HTTP endpoint
  long slow_rpc_ms = 250;
  bool trace = false;
  long trace_every = 1;
  long max_queue = -1;     // -1 = keep the TransportServerOptions default
  long max_inflight = -1;
  long io_threads = 0;      // 0 = auto-size from hardware_concurrency
  long worker_threads = 0;
  long profile_hz = 0;      // 0 = profiler idle until idba_stat --profile
  long watchdog_ms = 1000;  // 0 = watchdog off
  std::string audit_mode_text = "off";
  long staleness_slo_ms = 100;  // visibility SLO window (virtual ms)
  std::string flight_dump_path;
  std::string data_dir;
  long checkpoint_interval_ms = 0;
  long long checkpoint_wal_bytes = 0;
  idba::DeploymentOptions dep_opts;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      port = static_cast<uint16_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--bind") == 0 && i + 1 < argc) {
      bind_host = argv[++i];
    } else if (std::strcmp(argv[i], "--idle-timeout") == 0 && i + 1 < argc) {
      idle_timeout_ms = std::atol(argv[++i]);
    } else if (std::strcmp(argv[i], "--eager") == 0) {
      dep_opts.dlm.eager_shipping = true;
    } else if (std::strcmp(argv[i], "--early-notify") == 0) {
      dep_opts.dlm.protocol = idba::NotifyProtocol::kEarlyNotify;
    } else if (std::strcmp(argv[i], "--integrated") == 0) {
      dep_opts.dlm.integrated = true;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      trace = true;
      // Optional 1-in-N sample rate; bare --trace records every root.
      if (i + 1 < argc && std::atol(argv[i + 1]) > 0) {
        trace_every = std::atol(argv[++i]);
      }
    } else if (std::strcmp(argv[i], "--slow-rpc-ms") == 0 && i + 1 < argc) {
      slow_rpc_ms = std::atol(argv[++i]);
    } else if (std::strcmp(argv[i], "--metrics-interval") == 0 && i + 1 < argc) {
      metrics_interval_s = std::atol(argv[++i]);
    } else if (std::strcmp(argv[i], "--prom-port") == 0 && i + 1 < argc) {
      prom_port = std::atol(argv[++i]);
    } else if (std::strcmp(argv[i], "--max-queue") == 0 && i + 1 < argc) {
      max_queue = std::atol(argv[++i]);
    } else if (std::strcmp(argv[i], "--max-inflight") == 0 && i + 1 < argc) {
      max_inflight = std::atol(argv[++i]);
    } else if (std::strcmp(argv[i], "--io-threads") == 0 && i + 1 < argc) {
      io_threads = std::atol(argv[++i]);
    } else if (std::strcmp(argv[i], "--worker-threads") == 0 && i + 1 < argc) {
      worker_threads = std::atol(argv[++i]);
    } else if (std::strcmp(argv[i], "--profile-hz") == 0 && i + 1 < argc) {
      profile_hz = std::atol(argv[++i]);
    } else if (std::strcmp(argv[i], "--watchdog-ms") == 0 && i + 1 < argc) {
      watchdog_ms = std::atol(argv[++i]);
    } else if (std::strcmp(argv[i], "--flight-dump") == 0 && i + 1 < argc) {
      flight_dump_path = argv[++i];
    } else if (std::strcmp(argv[i], "--data-dir") == 0 && i + 1 < argc) {
      data_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--checkpoint-interval-ms") == 0 &&
               i + 1 < argc) {
      checkpoint_interval_ms = std::atol(argv[++i]);
    } else if (std::strcmp(argv[i], "--checkpoint-wal-bytes") == 0 &&
               i + 1 < argc) {
      checkpoint_wal_bytes = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--wal-group-commit-us") == 0 &&
               i + 1 < argc) {
      dep_opts.server.txn.group_commit_window_us = std::atol(argv[++i]);
    } else if (std::strcmp(argv[i], "--audit") == 0 && i + 1 < argc) {
      audit_mode_text = argv[++i];
    } else if (std::strncmp(argv[i], "--audit=", 8) == 0) {
      audit_mode_text = argv[i] + 8;
    } else if (std::strcmp(argv[i], "--staleness-slo-ms") == 0 &&
               i + 1 < argc) {
      staleness_slo_ms = std::atol(argv[++i]);
    } else if (std::strncmp(argv[i], "--staleness-slo-ms=", 19) == 0) {
      staleness_slo_ms = std::atol(argv[i] + 19);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--port N] [--bind ADDR] [--idle-timeout MS] "
                   "[--eager] [--early-notify] [--integrated] [--trace [N]] "
                   "[--slow-rpc-ms N] [--metrics-interval SECS] "
                   "[--prom-port N] [--max-queue N] [--max-inflight N] "
                   "[--io-threads N] [--worker-threads N] "
                   "[--wal-group-commit-us N] [--profile-hz N] "
                   "[--watchdog-ms N] [--flight-dump PATH] "
                   "[--data-dir PATH] [--checkpoint-interval-ms N] "
                   "[--checkpoint-wal-bytes N] "
                   "[--audit off|track|strict] [--staleness-slo-ms N]\n",
                   argv[0]);
      return 2;
    }
  }
  if (trace) {
    idba::obs::SetTraceSampleEvery(static_cast<uint32_t>(trace_every));
    idba::obs::SetTraceSampling(true);
  }
  // Touch the auditor unconditionally so its consistency.* series exist in
  // the registry (and therefore in Prometheus output) even in off mode.
  idba::obs::ConsistencyAuditor& auditor = idba::obs::GlobalAuditor();
  idba::obs::AuditMode audit_mode = idba::obs::AuditMode::kOff;
  if (!idba::obs::ParseAuditMode(audit_mode_text, &audit_mode)) {
    std::fprintf(stderr, "--audit must be off, track or strict (got \"%s\")\n",
                 audit_mode_text.c_str());
    return 2;
  }
  auditor.set_staleness_slo_us(staleness_slo_ms * idba::kVMillisecond);
  auditor.SetMode(audit_mode);

  // Crash evidence: fatal signals dump the flight rings + raw profiler
  // samples before re-raising. SIGPIPE is ignored here as well as in
  // TransportServer::Start so even pre-Start writes can't kill the process.
  if (flight_dump_path.empty()) {
    flight_dump_path =
        "idba_flight." + std::to_string(::getpid()) + ".dump";
  }
  idba::obs::InstallCrashHandler(flight_dump_path);
  std::signal(SIGPIPE, SIG_IGN);

  // Durable mode builds the deployment pieces around a file-backed
  // DurableDatabase (Deployment owns its server by value over MemDisks, so
  // it cannot host one); in-memory mode keeps using Deployment.
  std::unique_ptr<idba::Deployment> deployment;
  std::unique_ptr<idba::DurableDatabase> durable;
  std::unique_ptr<idba::NotificationBus> durable_bus;
  std::unique_ptr<idba::RpcMeter> durable_meter;
  std::unique_ptr<idba::DisplayLockManager> durable_dlm;
  idba::DatabaseServer* server = nullptr;
  idba::NotificationBus* bus = nullptr;
  idba::RpcMeter* meter = nullptr;
  idba::DisplayLockManager* dlm = nullptr;
  if (!data_dir.empty()) {
    auto opened = idba::DurableDatabase::Open(data_dir, dep_opts.server);
    if (!opened.ok()) {
      std::fprintf(stderr, "idba_serve: open %s: %s\n", data_dir.c_str(),
                   opened.status().ToString().c_str());
      return 1;
    }
    durable = std::move(opened).value();
    server = &durable->server();
    durable_bus =
        std::make_unique<idba::NotificationBus>(idba::CostModel(dep_opts.cost));
    durable_meter =
        std::make_unique<idba::RpcMeter>(idba::CostModel(dep_opts.cost));
    durable_dlm = std::make_unique<idba::DisplayLockManager>(
        server, durable_bus.get(), dep_opts.dlm);
    bus = durable_bus.get();
    meter = durable_meter.get();
    dlm = durable_dlm.get();
    const idba::RecoveryStats& rs = durable->recovery_stats();
    std::printf(
        "idba_serve recovered %s (records_scanned=%zu committed_txns=%zu "
        "redone_writes=%zu)\n",
        data_dir.c_str(), rs.records_scanned, rs.committed_txns,
        rs.redone_writes);
    std::fflush(stdout);
  } else {
    deployment = std::make_unique<idba::Deployment>(dep_opts);
    server = &deployment->server();
    bus = &deployment->bus();
    meter = &deployment->meter();
    dlm = &deployment->dlm();
  }

  idba::Checkpointer checkpointer(
      server,
      idba::CheckpointerOptions{
          .interval_ms = checkpoint_interval_ms,
          .wal_bytes = static_cast<uint64_t>(
              checkpoint_wal_bytes > 0 ? checkpoint_wal_bytes : 0)});

  idba::TransportServerOptions transport_opts;
  transport_opts.port = port;
  transport_opts.bind_host = bind_host;
  transport_opts.idle_timeout_ms = idle_timeout_ms;
  transport_opts.slow_rpc_threshold_ms = slow_rpc_ms;
  if (max_queue >= 0) {
    transport_opts.max_request_queue = static_cast<size_t>(max_queue);
  }
  if (max_inflight >= 0) {
    transport_opts.max_inflight = static_cast<size_t>(max_inflight);
  }
  if (io_threads > 0) {
    transport_opts.io_threads = static_cast<int>(io_threads);
  }
  if (worker_threads > 0) {
    transport_opts.worker_threads = static_cast<int>(worker_threads);
  }
  idba::TransportServer transport(server, dlm, bus, meter, transport_opts);
  transport.set_checkpointer(&checkpointer);
  checkpointer.Start();
  idba::Status st = transport.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "idba_serve: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf(
      "idba_serve listening on %s:%u (io_threads=%d worker_threads=%d "
      "wal_group_commit_us=%lld)\n",
      bind_host.c_str(), transport.port(), transport.io_threads(),
      transport.worker_threads(),
      static_cast<long long>(dep_opts.server.txn.group_commit_window_us));
  std::fflush(stdout);

  idba::obs::Watchdog watchdog(idba::obs::WatchdogOptions{
      .threshold_ms = watchdog_ms, .flight_dump_path = flight_dump_path});
  if (watchdog_ms > 0) watchdog.Start();
  if (profile_hz > 0) {
    idba::obs::GlobalProfiler().Start(static_cast<int>(profile_hz));
    std::printf("idba_serve profiler sampling at %ld Hz\n", profile_hz);
    std::fflush(stdout);
  }

  idba::obs::PromHttpServer prom_server;
  if (prom_port >= 0) {
    st = prom_server.Start(static_cast<uint16_t>(prom_port), bind_host);
    if (!st.ok()) {
      std::fprintf(stderr, "idba_serve: %s\n", st.ToString().c_str());
      transport.Stop();
      return 1;
    }
    std::printf("idba_serve prometheus on http://%s:%u/metrics\n",
                bind_host.c_str(), prom_server.port());
    std::fflush(stdout);
  }

  std::atomic<bool> dump_stop{false};
  std::thread dump_thread;
  if (metrics_interval_s > 0) {
    dump_thread = std::thread([&] {
      // Sleep in short slices so shutdown is not delayed a full interval.
      int64_t elapsed_ms = 0;
      while (!dump_stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        elapsed_ms += 50;
        if (elapsed_ms < metrics_interval_s * 1000) continue;
        elapsed_ms = 0;
        std::printf("%s\n", idba::admin::StatsJson(transport).c_str());
        std::fflush(stdout);
      }
    });
  }

  sem_init(&g_stop_sem, 0, 0);
  std::signal(SIGINT, HandleStop);
  std::signal(SIGTERM, HandleStop);
  while (sem_wait(&g_stop_sem) != 0 && errno == EINTR) {
  }

  if (dump_thread.joinable()) {
    dump_stop.store(true, std::memory_order_relaxed);
    dump_thread.join();
  }
  idba::obs::GlobalProfiler().Stop();
  watchdog.Stop();
  prom_server.Stop();

  std::printf("idba_serve: shutting down (%llu requests, %llu bytes in, "
              "%llu bytes out)\n",
              static_cast<unsigned long long>(transport.requests_served()),
              static_cast<unsigned long long>(transport.bytes_received()),
              static_cast<unsigned long long>(transport.bytes_sent()));
  transport.Stop();
  checkpointer.Stop();
  st = server->Checkpoint();
  if (!st.ok()) {
    std::fprintf(stderr, "idba_serve: checkpoint failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  return 0;
}
