// Kill-loop chaos harness: a real idba_serve process under a live
// workload, SIGKILLed at seeded random points mid-commit, restarted on
// the same data directory. After every restart the harness asserts the
// full crash-survivability contract end to end:
//
//   - every acknowledged commit is still present with the right value;
//   - no aborted (or never-committed) transaction is resurrected;
//   - commits whose acknowledgement was lost to the crash are either
//     fully present or fully absent — never partial;
//   - no page-checksum failure is ever observed;
//   - a subscriber's display locks survive via session recovery: after
//     the final restart, an update to a watched object still produces a
//     notification on the reconnected subscriber;
//   - the consistency auditor stays green in STRICT mode on both sides:
//     the server runs --audit=strict (any fan-out vtime regression aborts
//     it, which the harness would see as a failed restart/scan), and the
//     client process audits its own notify stream, with Reconnect()
//     resetting watermarks so post-restart vtimes don't false-positive.
//
// The server binary comes from IDBA_SERVE_BIN (injected by CMake); the
// cycle count and seed are overridable via IDBA_CHAOS_CYCLES and
// IDBA_CHAOS_SEED so CI can run longer sweeps than the default.

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/codec.h"
#include "net/remote_client.h"
#include "net/socket.h"
#include "net/wire.h"
#include "nms/network_model.h"
#include "objectmodel/object.h"
#include "objectmodel/oid.h"
#include "obs/audit.h"
#include "tools/admin_call.h"

namespace idba {
namespace {

using namespace std::chrono_literals;

int64_t EnvInt(const char* name, int64_t fallback) {
  const char* v = std::getenv(name);
  return v ? std::atoll(v) : fallback;
}

/// Spins (real time) until `pred` holds or ~5 s elapse.
template <typename Pred>
bool WaitFor(Pred pred) {
  for (int i = 0; i < 500; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(10ms);
  }
  return pred();
}

/// One idba_serve child process. Start() parses the startup banner for
/// the bound port and the recovery line for the replay size, so the
/// harness can assert recovery stays bounded as history grows.
class ServerProcess {
 public:
  ~ServerProcess() { Kill(); }

  bool Start(const std::string& bin, const std::string& data_dir,
             uint16_t port) {
    int fds[2];
    if (pipe(fds) != 0) return false;
    pid_ = fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      ::dup2(fds[1], STDOUT_FILENO);
      ::dup2(fds[1], STDERR_FILENO);
      ::close(fds[0]);
      ::close(fds[1]);
      std::vector<std::string> args = {bin,        "--port",
                                       std::to_string(port), "--data-dir",
                                       data_dir,   "--checkpoint-interval-ms",
                                       "50",       "--audit",
                                       "strict"};
      // CI sets IDBA_CHAOS_FLIGHT_DUMP so a server that dies on its own
      // (not by our SIGKILL) leaves a flight-recorder dump to upload.
      if (const char* dump = std::getenv("IDBA_CHAOS_FLIGHT_DUMP")) {
        args.push_back("--flight-dump");
        args.push_back(dump);
      }
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(bin.c_str(), argv.data());
      ::_exit(127);
    }
    ::close(fds[1]);
    out_ = fds[0];
    // The banner ("idba_serve listening on host:port") is flushed right
    // after bind; the recovery line precedes it on the same stream. If
    // the child dies first (e.g. port still in TIME_WAIT), read sees EOF.
    std::string buf;
    char tmp[512];
    while (buf.find("listening on") == std::string::npos) {
      ssize_t n = ::read(out_, tmp, sizeof(tmp));
      if (n <= 0) {
        Kill();
        return false;
      }
      buf.append(tmp, static_cast<size_t>(n));
    }
    size_t at = buf.find("listening on ");
    size_t colon = buf.find(':', at);
    if (colon == std::string::npos) return false;
    port_ = static_cast<uint16_t>(std::atoi(buf.c_str() + colon + 1));
    records_scanned_ = 0;
    size_t rec = buf.find("records_scanned=");
    if (rec != std::string::npos) {
      records_scanned_ =
          std::atoll(buf.c_str() + rec + std::strlen("records_scanned="));
    }
    return port_ != 0;
  }

  void Kill() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
    if (out_ >= 0) {
      ::close(out_);
      out_ = -1;
    }
  }

  uint16_t port() const { return port_; }
  int64_t records_scanned() const { return records_scanned_; }

 private:
  pid_t pid_ = -1;
  int out_ = -1;
  uint16_t port_ = 0;
  int64_t records_scanned_ = 0;
};

class CrashChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* bin = std::getenv("IDBA_SERVE_BIN");
    if (bin == nullptr || ::access(bin, X_OK) != 0) {
      GTEST_SKIP() << "IDBA_SERVE_BIN not set or not executable; run via "
                      "ctest (CMake injects the idba_serve path)";
    }
    bin_ = bin;
    dir_ = testing::TempDir() + "idba_chaos_" + std::to_string(::getpid()) +
           "_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::remove((dir_ + "/data.idb").c_str());
    std::remove((dir_ + "/wal.idb").c_str());
    // This process is the subscriber side: audit its notify stream in
    // strict mode too (a vtime regression crashes the test, loudly).
    obs::GlobalAuditor().ResetForTest();
    obs::GlobalAuditor().SetMode(obs::AuditMode::kStrict);
  }

  void TearDown() override {
    server_.Kill();
    obs::GlobalAuditor().ResetForTest();
  }

  std::unique_ptr<RemoteDatabaseClient> Connect(ClientId id) {
    RemoteClientOptions opts;
    opts.rpc_deadline_ms = 5000;
    for (int attempt = 0; attempt < 100; ++attempt) {
      auto client =
          RemoteDatabaseClient::Connect("127.0.0.1", server_.port(), id, opts);
      if (client.ok()) return std::move(client).value();
      std::this_thread::sleep_for(20ms);
    }
    return nullptr;
  }

  /// Schema is not persisted: every restarted server needs the DDL re-run.
  /// Identical definition order yields identical ClassIds, so objects
  /// recovered from the WAL stay interpretable.
  ClassId DefineSchema(RemoteDatabaseClient& client) {
    Result<ClassId> cls = client.DefineClass("ChaosItem");
    if (!cls.ok()) return 0;
    if (!client.AddAttribute(cls.value(), "Value", ValueType::kInt).ok())
      return 0;
    return cls.value();
  }

  /// SIGKILL, restart on the same data dir + port, and re-establish both
  /// client sessions (writer first so the schema exists before the
  /// subscriber's Hello snapshots the catalog).
  void RestartAndRecover(RemoteDatabaseClient* writer,
                         RemoteDatabaseClient* subscriber, ClassId cls) {
    server_.Kill();
    uint16_t port = server_.port();
    bool up = false;
    for (int attempt = 0; attempt < 100 && !up; ++attempt) {
      up = server_.Start(bin_, dir_, port);
      if (!up) std::this_thread::sleep_for(50ms);
    }
    ASSERT_TRUE(up) << "server failed to restart on port " << port;
    ASSERT_TRUE(WaitFor([&] { return !writer->connected(); }));
    ASSERT_TRUE(writer->Reconnect(10).ok());
    ASSERT_EQ(DefineSchema(*writer), cls)
        << "schema redefinition diverged across restart";
    if (subscriber != nullptr) {
      ASSERT_TRUE(WaitFor([&] { return !subscriber->connected(); }));
      ASSERT_TRUE(subscriber->Reconnect(10).ok());
    }
  }

  /// Server-side auditor field scraped from the ADMIN AUDIT verb's JSON
  /// report (no Hello needed; shed-exempt).
  int64_t AuditField(const std::string& key) {
    auto sock = Socket::ConnectTo("127.0.0.1", server_.port(),
                                  /*connect_timeout_ms=*/5000);
    if (!sock.ok()) return -1;
    std::vector<uint8_t> body;
    std::string report;
    if (!tools::AdminCall(sock.value(), admin::Verb::kAudit, body, &report)
             .ok()) {
      return -1;
    }
    size_t at = report.find("\"" + key + "\":");
    if (at == std::string::npos) return -1;
    return std::atoll(report.c_str() + at + key.size() + 3);
  }

  /// Counter value scraped from the ADMIN STATS JSON (no Hello needed).
  int64_t StatsCounter(const std::string& key) {
    auto sock = Socket::ConnectTo("127.0.0.1", server_.port(),
                                  /*connect_timeout_ms=*/5000);
    if (!sock.ok()) return -1;
    std::string stats;
    if (!tools::AdminCall(sock.value(), admin::Verb::kStats, {}, &stats)
             .ok()) {
      return -1;
    }
    size_t at = stats.find("\"" + key + "\":");
    if (at == std::string::npos) return -1;
    return std::atoll(stats.c_str() + at + key.size() + 3);
  }

  std::string bin_;
  std::string dir_;
  ServerProcess server_;
};

TEST_F(CrashChaosTest, KillLoopLosesNoCommittedWork) {
  const int cycles = static_cast<int>(EnvInt("IDBA_CHAOS_CYCLES", 25));
  const uint64_t seed = static_cast<uint64_t>(EnvInt("IDBA_CHAOS_SEED", 1996));
  std::mt19937_64 rng(seed);

  ASSERT_TRUE(server_.Start(bin_, dir_, 0));
  auto writer = Connect(100);
  ASSERT_NE(writer, nullptr);
  ClassId cls = DefineSchema(*writer);
  ASSERT_NE(cls, 0);

  // The acked-commit ledger: what the server MUST still have after any
  // number of crashes. `unknown` holds commits whose reply was lost to a
  // kill (possibly applied); `uncommitted` holds aborted or abandoned
  // transactions (must never surface).
  std::map<uint64_t, int64_t> committed;
  std::vector<std::pair<uint64_t, int64_t>> unknown;
  std::vector<uint64_t> uncommitted;
  // Updates whose ack was lost: the object must hold the old OR the new
  // value after recovery — anything else is a torn write.
  std::vector<std::tuple<uint64_t, int64_t, int64_t>> unknown_updates;
  int64_t next_value = 1;

  auto commit_insert = [&](int64_t value) -> Oid {
    Result<Oid> oid = writer->NewOid();
    if (!oid.ok()) return kNullOid;
    Result<TxnId> txn = writer->BeginTxn();
    if (!txn.ok()) {
      uncommitted.push_back(oid.value().value);
      return kNullOid;
    }
    DatabaseObject obj = NewObject(writer->schema(), cls, oid.value());
    EXPECT_TRUE(
        obj.SetByName(writer->schema(), "Value", Value(value)).ok());
    if (!writer->Insert(txn.value(), obj).ok()) {
      uncommitted.push_back(oid.value().value);
      return kNullOid;
    }
    if (!writer->Commit(txn.value()).ok()) {
      unknown.push_back({oid.value().value, value});
      return kNullOid;
    }
    committed[oid.value().value] = value;
    return oid.value();
  };

  // Cycle 0 (no kill): seed watched objects and a subscriber holding
  // display locks on them — the session-recovery payload every later
  // restart must replay.
  std::vector<Oid> watched;
  for (int i = 0; i < 4; ++i) {
    Oid oid = commit_insert(next_value);
    ASSERT_FALSE(oid.IsNull());
    watched.push_back(oid);
    ++next_value;
  }
  auto subscriber = Connect(200);
  ASSERT_NE(subscriber, nullptr);
  ASSERT_TRUE(
      subscriber->LockBatch(200, watched, subscriber->clock().Now()).ok());
  ASSERT_EQ(subscriber->held_display_locks(), watched.size());

  int64_t total_commits_acked = 0;
  for (int cycle = 1; cycle <= cycles; ++cycle) {
    // Arm a seeded kill somewhere inside the write burst.
    const int64_t kill_after_ms = 15 + static_cast<int64_t>(rng() % 120);
    std::thread killer([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(kill_after_ms));
      server_.Kill();
    });

    // Write until the crash interrupts us (capped so ledger verification
    // stays linear in cycles). Every 5th transaction aborts on purpose;
    // every 7th is a read-modify-write on a display-locked object, so
    // the DLM notify fan-out is live when the kill lands.
    size_t committed_before = committed.size();
    for (int op = 1; op <= 120 && writer->connected(); ++op) {
      if (op % 7 == 0) {
        Oid target = watched[rng() % watched.size()];
        int64_t old_value = committed[target.value];
        Result<TxnId> txn = writer->BeginTxn();
        if (!txn.ok()) break;
        Result<DatabaseObject> obj = writer->Read(txn.value(), target);
        if (!obj.ok()) break;
        DatabaseObject updated = std::move(obj).value();
        EXPECT_TRUE(updated
                        .SetByName(writer->schema(), "Value",
                                   Value(next_value))
                        .ok());
        if (!writer->Write(txn.value(), std::move(updated)).ok()) break;
        if (writer->Commit(txn.value()).ok()) {
          committed[target.value] = next_value;
        } else {
          unknown_updates.emplace_back(target.value, old_value, next_value);
        }
      } else if (op % 5 == 0) {
        Result<Oid> oid = writer->NewOid();
        if (!oid.ok()) break;
        Result<TxnId> txn = writer->BeginTxn();
        if (!txn.ok()) {
          uncommitted.push_back(oid.value().value);
          break;
        }
        DatabaseObject obj = NewObject(writer->schema(), cls, oid.value());
        EXPECT_TRUE(
            obj.SetByName(writer->schema(), "Value", Value(next_value)).ok());
        uncommitted.push_back(oid.value().value);
        if (writer->Insert(txn.value(), obj).ok()) {
          (void)writer->Abort(txn.value());  // crash may beat the abort: both
                                             // ways the txn never committed
        }
      } else {
        if (commit_insert(next_value).IsNull() && !writer->connected()) break;
      }
      ++next_value;
    }
    // If the cap was hit before the kill fired, idle until it does.
    while (writer->connected()) std::this_thread::sleep_for(2ms);
    killer.join();
    total_commits_acked +=
        static_cast<int64_t>(committed.size() - committed_before);

    RestartAndRecover(writer.get(), subscriber.get(), cls);

    // One scan gives the server's complete post-recovery view of the
    // class; verify the entire ledger against it.
    Result<std::vector<DatabaseObject>> scan = writer->ScanClass(cls);
    ASSERT_TRUE(scan.ok()) << scan.status().ToString();
    std::map<uint64_t, int64_t> present;
    for (const DatabaseObject& obj : scan.value()) {
      Result<Value> v = obj.GetByName(writer->schema(), "Value");
      ASSERT_TRUE(v.ok());
      present[obj.oid().value] = v.value().AsInt();
    }
    // Lost-ack commits: applied-or-absent, never partial or mangled.
    for (const auto& [oid, value] : unknown) {
      auto it = present.find(oid);
      if (it != present.end()) {
        EXPECT_EQ(it->second, value)
            << "cycle " << cycle << ": oid " << oid
            << " recovered with the wrong value";
        committed[oid] = value;
      }
    }
    unknown.clear();
    for (const auto& [oid, old_value, new_value] : unknown_updates) {
      auto it = present.find(oid);
      ASSERT_NE(it, present.end())
          << "cycle " << cycle << ": updated oid " << oid << " vanished";
      if (it->second == new_value) {
        committed[oid] = new_value;  // the lost-ack update did apply
      } else {
        EXPECT_EQ(it->second, committed[oid])
            << "cycle " << cycle << ": oid " << oid
            << " holds neither the old nor the attempted value";
      }
    }
    unknown_updates.clear();
    // Aborted / never-committed transactions must not be resurrected.
    // (Checked only on the restart right after they ran: recovery reseeds
    // the oid allocator from surviving objects, so an oid burned by an
    // aborted transaction is legitimately reused by later cycles.)
    for (uint64_t oid : uncommitted) {
      EXPECT_EQ(present.count(oid), 0u)
          << "cycle " << cycle << ": aborted txn resurrected as oid " << oid;
    }
    uncommitted.clear();
    // Exactly the acked commits survive — nothing lost, nothing invented.
    EXPECT_EQ(present.size(), committed.size()) << "cycle " << cycle;
    for (const auto& [oid, value] : committed) {
      auto it = present.find(oid);
      ASSERT_NE(it, present.end())
          << "cycle " << cycle << ": lost committed oid " << oid;
      EXPECT_EQ(it->second, value) << "cycle " << cycle << ": oid " << oid;
    }
    // Checksums validated on every page read during recovery and scans.
    EXPECT_EQ(StatsCounter("checksum_failures"), 0) << "cycle " << cycle;
  }
  ASSERT_GT(total_commits_acked, cycles)
      << "workload too slow to exercise the kill loop";

  // Session recovery end to end: the subscriber's display locks were
  // replayed across every restart, so an update to a watched object must
  // still notify it — and both sides must agree on the value.
  ASSERT_EQ(subscriber->held_display_locks(), watched.size());
  uint64_t notified_before = subscriber->notifications_received();
  const int64_t final_value = next_value + 1000000;
  {
    Result<TxnId> txn = writer->BeginTxn();
    ASSERT_TRUE(txn.ok());
    Result<DatabaseObject> obj = writer->Read(txn.value(), watched[0]);
    ASSERT_TRUE(obj.ok()) << obj.status().ToString();
    DatabaseObject updated = std::move(obj).value();
    ASSERT_TRUE(
        updated.SetByName(writer->schema(), "Value", Value(final_value)).ok());
    ASSERT_TRUE(writer->Write(txn.value(), std::move(updated)).ok());
    ASSERT_TRUE(writer->Commit(txn.value()).ok());
    committed[watched[0].value] = final_value;
  }
  EXPECT_TRUE(WaitFor(
      [&] { return subscriber->notifications_received() > notified_before; }))
      << "display-lock replay lost: no notification after " << cycles
      << " restarts";
  Result<DatabaseObject> seen = subscriber->ReadCurrent(watched[0]);
  ASSERT_TRUE(seen.ok());
  EXPECT_EQ(seen.value().GetByName(subscriber->schema(), "Value").value(),
            Value(final_value));

  // Server-side strict audit: this server just fanned that update out, so
  // its auditor demonstrably ran — and found nothing.
  EXPECT_GT(AuditField("checks_total"), 0);
  EXPECT_EQ(AuditField("violations_total"), 0);

  // Bounded recovery: give the background checkpointer (50 ms interval)
  // time to truncate, then crash an idle server. Replay must be a handful
  // of records regardless of how much history the loop accumulated.
  std::this_thread::sleep_for(300ms);
  RestartAndRecover(writer.get(), subscriber.get(), cls);
  EXPECT_LE(server_.records_scanned(), 64)
      << "checkpointing failed to bound recovery";
  EXPECT_EQ(StatsCounter("checksum_failures"), 0);
  Result<std::vector<DatabaseObject>> final_scan = writer->ScanClass(cls);
  ASSERT_TRUE(final_scan.ok());
  EXPECT_EQ(final_scan.value().size(), committed.size());

  // Client-side strict audit: this process watched every notification it
  // received across all restarts (a violation would have aborted us long
  // before this line — the counters make the pass explicit).
  EXPECT_GT(obs::GlobalAuditor().checks_total(), 0u)
      << "chaos loop never exercised the client-side auditor";
  EXPECT_EQ(obs::GlobalAuditor().violations_total(), 0u);
}

}  // namespace
}  // namespace idba
