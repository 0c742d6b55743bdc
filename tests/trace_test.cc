// End-to-end tests of the observability layer: trace context propagation
// across the TCP transport (including reconnect + injected faults), the
// lock-striped span ring buffer, Chrome trace / JSONL export
// well-formedness, and the display.staleness_vtime telemetry on a scripted
// two-client notify scenario.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/session.h"
#include "net/fault_injector.h"
#include "net/remote_client.h"
#include "net/tcp_server.h"
#include "nms/display_classes.h"
#include "nms/network_model.h"
#include "obs/trace.h"

namespace idba {
namespace {

using namespace std::chrono_literals;

// --- Minimal JSON well-formedness checker ----------------------------------
// Strict enough for export validation: balanced structure, legal strings
// (escapes, no raw control characters), legal numbers, true/false/null.

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }
  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') { ++pos_; return true; }
    for (;;) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') { ++pos_; return true; }
    for (;;) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      unsigned char c = static_cast<unsigned char>(s_[pos_]);
      if (c == '"') { ++pos_; return true; }
      if (c < 0x20) return false;  // raw control character: invalid JSON
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        char e = s_[pos_];
        if (e == 'u') {
          if (pos_ + 4 >= s_.size()) return false;
          for (int i = 1; i <= 4; ++i) {
            if (!std::isxdigit(static_cast<unsigned char>(s_[pos_ + i]))) {
              return false;
            }
          }
          pos_ += 4;
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;  // unterminated
  }
  bool Number() {
    size_t digits_at = pos_ + (Peek() == '-' ? 1 : 0);
    if (Peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    if (pos_ == digits_at) return false;  // "-" alone, or not a number
    if (Peek() == '.') {
      ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(Peek()))) return false;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(Peek()))) return false;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    return true;
  }
  bool Literal(const char* lit) {
    size_t n = std::strlen(lit);
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

/// Spins (real time) until `pred` holds or ~5 s elapse.
template <typename Pred>
bool WaitFor(Pred pred) {
  for (int i = 0; i < 500; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(10ms);
  }
  return pred();
}

std::vector<obs::SpanRecord> SpansNamed(
    const std::vector<obs::SpanRecord>& spans, const std::string& name) {
  std::vector<obs::SpanRecord> out;
  for (const auto& s : spans) {
    if (s.name == name) out.push_back(s);
  }
  return out;
}

// --- Recorder unit tests ----------------------------------------------------

TEST(TraceRecorderTest, RingWrapsOverwritingOldestAndCountsDrops) {
  obs::TraceRecorder rec(/*capacity=*/64);
  const int kTotal = 1000;
  for (int i = 0; i < kTotal; ++i) {
    obs::SpanRecord s;
    s.trace_id = 1;
    s.span_id = static_cast<uint64_t>(i + 1);
    s.start_us = i;
    s.dur_us = 1;
    s.name = "filler";
    rec.Record(std::move(s));
  }
  auto spans = rec.Snapshot();
  EXPECT_LE(spans.size(), rec.capacity());
  EXPECT_GT(spans.size(), 0u);
  EXPECT_EQ(rec.dropped(), static_cast<uint64_t>(kTotal) - spans.size());
  // Ring semantics: the survivors are the newest records, in start order.
  EXPECT_TRUE(std::is_sorted(spans.begin(), spans.end(),
                             [](const obs::SpanRecord& a,
                                const obs::SpanRecord& b) {
                               return a.start_us < b.start_us;
                             }));
  // All writes happened on one thread -> one stripe -> exact per-stripe cap.
  EXPECT_GE(spans.back().start_us, kTotal - 1 - static_cast<int>(rec.capacity()));

  rec.Clear();
  EXPECT_TRUE(rec.Snapshot().empty());
}

TEST(TraceRecorderTest, ConcurrentRecordingKeepsEveryStripeConsistent) {
  obs::TraceRecorder rec(/*capacity=*/4096);
  const int kThreads = 8, kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec, t] {
      for (int i = 0; i < kPerThread; ++i) {
        obs::SpanRecord s;
        s.trace_id = static_cast<uint64_t>(t + 1);
        s.span_id = static_cast<uint64_t>(i + 1);
        s.start_us = obs::NowUs();
        s.name = "worker";
        rec.Record(std::move(s));
      }
    });
  }
  for (auto& th : threads) th.join();
  auto spans = rec.Snapshot();
  EXPECT_EQ(spans.size() + rec.dropped(),
            static_cast<size_t>(kThreads * kPerThread));
}

TEST(TraceRecorderTest, ExportsAreWellFormedWithHostileNames) {
  obs::TraceRecorder rec(/*capacity=*/64);
  obs::SpanRecord s;
  s.trace_id = 0xdeadbeef;
  s.span_id = 42;
  s.parent_id = 41;
  s.start_us = 10;
  s.dur_us = 5;
  s.name = "evil \"name\" with \\ and \n newline \t tab";
  s.note = std::string("nul\0byte", 8);  // embedded NUL must not break JSON
  rec.Record(std::move(s));
  obs::SpanRecord plain;
  plain.trace_id = 7;
  plain.span_id = 1;
  plain.name = "server.execute";
  plain.note = "Commit";
  rec.Record(std::move(plain));

  std::string chrome = rec.DumpChromeTrace();
  EXPECT_EQ(chrome.rfind("{\"traceEvents\":[", 0), 0u) << chrome;
  EXPECT_TRUE(JsonChecker(chrome).Valid()) << chrome;
  EXPECT_NE(chrome.find("server.execute"), std::string::npos);

  std::string jsonl = rec.DumpJsonl();
  size_t lines = 0;
  size_t at = 0;
  while (at < jsonl.size()) {
    size_t nl = jsonl.find('\n', at);
    if (nl == std::string::npos) nl = jsonl.size();
    std::string line = jsonl.substr(at, nl - at);
    if (!line.empty()) {
      ++lines;
      EXPECT_TRUE(JsonChecker(line).Valid()) << line;
    }
    at = nl + 1;
  }
  EXPECT_EQ(lines, 2u);
}

TEST(TraceSpanTest, InactiveWithoutSamplingAndNestedWhenForced) {
  obs::SetTraceSampling(false);
  {
    obs::Span off = obs::Span::StartRoot("should.not.record");
    EXPECT_FALSE(off.active());
    obs::Span child = obs::Span::Start("child.of.nothing");
    EXPECT_FALSE(child.active());
  }

  obs::TraceRecorder& rec = obs::GlobalRecorder();
  rec.Clear();
  {
    obs::Span root = obs::Span::StartRoot("test.root", /*force=*/true);
    ASSERT_TRUE(root.active());
    obs::Span child = obs::Span::Start("test.child");
    ASSERT_TRUE(child.active());
    EXPECT_EQ(child.context().trace_id, root.context().trace_id);
  }
  auto spans = rec.Snapshot();
  auto roots = SpansNamed(spans, "test.root");
  auto children = SpansNamed(spans, "test.child");
  ASSERT_EQ(roots.size(), 1u);
  ASSERT_EQ(children.size(), 1u);
  EXPECT_EQ(children[0].parent_id, roots[0].span_id);
  EXPECT_EQ(children[0].trace_id, roots[0].trace_id);
  rec.Clear();
}

// --- Transport propagation --------------------------------------------------

class TraceTransportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SetTraceSampleEvery(1);
    obs::SetTraceSampling(true);
    obs::GlobalRecorder().Clear();
  }

  void StartServer(DeploymentOptions opts = {}) {
    deployment_ = std::make_unique<Deployment>(opts);
    transport_ = std::make_unique<TransportServer>(
        &deployment_->server(), &deployment_->dlm(), &deployment_->bus(),
        &deployment_->meter());
    ASSERT_TRUE(transport_->Start().ok());
    ASSERT_NE(transport_->port(), 0);
  }

  std::unique_ptr<RemoteDatabaseClient> Connect(
      ClientId id, RemoteClientOptions opts = {}) {
    auto client =
        RemoteDatabaseClient::Connect("127.0.0.1", transport_->port(), id, opts);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  /// Kills the transport and brings a fresh one up on the same port — a
  /// server restart from the client's point of view.
  void RestartTransport() {
    uint16_t port = transport_->port();
    transport_->Stop();
    TransportServerOptions opts;
    opts.port = port;
    transport_ = std::make_unique<TransportServer>(
        &deployment_->server(), &deployment_->dlm(), &deployment_->bus(),
        &deployment_->meter(), opts);
    ASSERT_TRUE(transport_->Start().ok());
  }

  void TearDown() override {
    transport_.reset();  // stops threads before the deployment dies
    deployment_.reset();
    obs::SetTraceSampling(false);
    obs::GlobalRecorder().Clear();
  }

  std::unique_ptr<Deployment> deployment_;
  std::unique_ptr<TransportServer> transport_;
};

TEST_F(TraceTransportTest, RpcCarriesContextAndDecomposesLatency) {
  StartServer();
  auto client = Connect(100);
  ASSERT_NE(client, nullptr);

  ClassId cls = client->DefineClass("Traced").value();
  ASSERT_TRUE(client->AddAttribute(cls, "N", ValueType::kInt).ok());
  Oid oid = client->AllocateOid();
  TxnId t = client->Begin();
  DatabaseObject obj = NewObject(client->schema(), cls, oid);
  ASSERT_TRUE(obj.SetByName(client->schema(), "N", Value(int64_t{1})).ok());
  ASSERT_TRUE(client->Insert(t, obj).ok());
  ASSERT_TRUE(client->Commit(t).ok());

  auto spans = obs::GlobalRecorder().Snapshot();
  // Client-side decomposition spans exist for the traced RPCs.
  auto roots = SpansNamed(spans, "Commit");
  ASSERT_FALSE(roots.empty());
  const obs::SpanRecord root = roots.back();
  auto within_trace = [&](const std::string& name) {
    for (const auto& s : SpansNamed(spans, name)) {
      if (s.trace_id == root.trace_id) return true;
    }
    return false;
  };
  EXPECT_TRUE(within_trace("client.serialize"));
  EXPECT_TRUE(within_trace("client.network"));
  EXPECT_TRUE(within_trace("client.deserialize"));
  // The server adopted the same trace id for its own child spans (both
  // processes share this test's recorder, so both sides are visible): the
  // full client -> network -> server queue -> execute chain is stitched.
  EXPECT_TRUE(within_trace("server.queue"));
  EXPECT_TRUE(within_trace("server.execute"));
  // Commit instrumentation deeper in the server stack joins the same trace.
  EXPECT_TRUE(within_trace("server.commit"));

  // Parentage: server.execute nests under the RPC root's context.
  bool execute_parented = false;
  for (const auto& s : SpansNamed(spans, "server.execute")) {
    if (s.trace_id == root.trace_id && s.parent_id == root.span_id) {
      execute_parented = true;
    }
  }
  EXPECT_TRUE(execute_parented);

  // The RPC latency decomposition histograms registered and recorded.
  auto counters = GlobalMetrics().CounterSnapshot();
  Histogram* total = GlobalMetrics().GetHistogram("rpc.Commit.total_us");
  Histogram* network = GlobalMetrics().GetHistogram("rpc.Commit.network_us");
  EXPECT_GE(total->Snapshot().count, 1u);
  EXPECT_GE(network->Snapshot().count, 1u);
  (void)counters;
}

TEST_F(TraceTransportTest, UntracedRpcsSendNoTraceHeader) {
  obs::SetTraceSampling(false);  // compiled in, sampling off
  StartServer();
  auto client = Connect(100);
  ASSERT_NE(client, nullptr);
  obs::GlobalRecorder().Clear();
  TxnId t = client->Begin();
  ASSERT_TRUE(client->Abort(t).ok());
  // No spans recorded anywhere: the hot path stayed dark.
  EXPECT_TRUE(obs::GlobalRecorder().Snapshot().empty());
}

TEST_F(TraceTransportTest, TracingSurvivesFaultsAndReconnect) {
  StartServer();
  RemoteClientOptions opts;
  opts.rpc_deadline_ms = 200;
  auto client = Connect(100, opts);
  ASSERT_NE(client, nullptr);

  // Drop the next inbound frame on the floor: the traced call times out
  // (its Span ends cleanly on the error path).
  auto faults = std::make_shared<FaultInjector>();
  faults->Inject({FaultDirection::kRead, FaultKind::kDrop, /*nth=*/0,
                  /*times=*/1, /*delay_ms=*/0});
  client->set_fault_injector(faults);
  Status st = client->BeginTxn().status();
  EXPECT_TRUE(st.IsTimedOut()) << st.ToString();
  ASSERT_GE(faults->faults_fired(), 1u);
  faults->Reset();

  // Kill the transport: the client observes a dead connection; Reconnect
  // against the restarted server repeats the Hello from scratch.
  RestartTransport();
  ASSERT_TRUE(WaitFor([&] { return !client->connected(); }));
  ASSERT_TRUE(client->Reconnect().ok());

  // Traced RPCs flow again end to end over the new connection.
  obs::GlobalRecorder().Clear();
  Result<TxnId> t = client->BeginTxn();
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_TRUE(client->Abort(t.value()).ok());
  auto spans = obs::GlobalRecorder().Snapshot();
  EXPECT_FALSE(SpansNamed(spans, "client.network").empty());
  EXPECT_FALSE(SpansNamed(spans, "server.execute").empty());
}

TEST_F(TraceTransportTest, TraceDumpRpcReturnsLoadableChromeTrace) {
  StartServer();
  auto client = Connect(100);
  ASSERT_NE(client, nullptr);
  TxnId t = client->Begin();
  ASSERT_TRUE(client->Abort(t).ok());

  std::string chrome = obs::GlobalRecorder().DumpChromeTrace();
  EXPECT_TRUE(JsonChecker(chrome).Valid());
  EXPECT_NE(chrome.find("client.network"), std::string::npos);
  EXPECT_NE(chrome.find("server.execute"), std::string::npos);
}

// --- Staleness telemetry ----------------------------------------------------

class StalenessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    staleness_ = GlobalMetrics().GetHistogram("display.staleness_vtime");
    refresh_lag_ = GlobalMetrics().GetHistogram("display.refresh_lag_vtime");
    base_ = staleness_->Snapshot().count;
    lag_base_ = refresh_lag_->Snapshot().count;
  }

  void Init() {
    deployment_ = std::make_unique<Deployment>(DeploymentOptions{});
    NmsConfig config;
    config.num_nodes = 8;
    config.sites = 1;
    config.buildings_per_site = 1;
    config.racks_per_building = 1;
    config.devices_per_rack = 1;
    db_ = PopulateNms(&deployment_->server(), config).value();
    dcs_ = RegisterNmsDisplayClasses(&deployment_->display_schema(),
                                     deployment_->server().schema(), db_.schema)
               .value();
  }

  void UpdateLink(ClientApi* writer, Oid oid, double util) {
    const SchemaCatalog& cat = writer->schema();
    TxnId t = writer->Begin();
    DatabaseObject link = writer->Read(t, oid).value();
    ASSERT_TRUE(link.SetByName(cat, "Utilization", Value(util)).ok());
    ASSERT_TRUE(writer->Write(t, std::move(link)).ok());
    ASSERT_TRUE(writer->Commit(t).ok());
  }

  std::unique_ptr<Deployment> deployment_;
  NmsDatabase db_;
  NmsDisplayClasses dcs_;
  Histogram* staleness_ = nullptr;
  Histogram* refresh_lag_ = nullptr;
  uint64_t base_ = 0;
  uint64_t lag_base_ = 0;
};

TEST_F(StalenessTest, OneSamplePerNotifiedSubscriber) {
  Init();
  auto viewer1 = deployment_->NewSession(100);
  auto viewer2 = deployment_->NewSession(101);
  auto writer = deployment_->NewSession(102);
  const DisplayClassDef* dc =
      deployment_->display_schema().Find(dcs_.color_coded_link);
  Oid oid = db_.link_oids[0];
  ASSERT_TRUE(viewer1->CreateView("v1")->Materialize(dc, {oid}).ok());
  ASSERT_TRUE(viewer2->CreateView("v2")->Materialize(dc, {oid}).ok());

  UpdateLink(&writer->client(), oid, 0.95);

  // One staleness sample per notified subscriber (two viewers; the writer
  // holds no display lock on the link).
  auto snap = staleness_->Snapshot();
  EXPECT_EQ(snap.count, base_ + 2);
  // Virtual staleness is strictly positive: the notification costs at
  // least one message flight (vtime ticks), so a subscriber's display can
  // never learn of the commit at the commit instant.
  EXPECT_GT(snap.min, 0.0);
}

TEST_F(StalenessTest, RefreshLagRecordedWhenViewRefreshes) {
  Init();
  auto viewer = deployment_->NewSession(100);
  auto writer = deployment_->NewSession(101);
  ActiveView* view = viewer->CreateView("links");
  const DisplayClassDef* dc =
      deployment_->display_schema().Find(dcs_.color_coded_link);
  Oid oid = db_.link_oids[0];
  ASSERT_TRUE(view->Materialize(dc, {oid}).ok());

  UpdateLink(&writer->client(), oid, 0.95);
  EXPECT_EQ(viewer->PumpOnce(), 1);
  EXPECT_EQ(view->refreshes(), 1u);

  // End-to-end lag (commit -> refreshed display) is at least the notify
  // staleness recorded at the DLM: the display cannot be fresher than the
  // notification that woke it.
  auto lag = refresh_lag_->Snapshot();
  ASSERT_EQ(lag.count, lag_base_ + 1);
  EXPECT_GT(lag.max, 0.0);
  EXPECT_GE(lag.max, staleness_->Snapshot().min);
}

TEST_F(StalenessTest, NotificationCarriesWriterTraceToSubscriberDispatch) {
  Init();
  obs::GlobalRecorder().Clear();
  auto viewer = deployment_->NewSession(100);
  auto writer = deployment_->NewSession(101);
  ActiveView* view = viewer->CreateView("links");
  const DisplayClassDef* dc =
      deployment_->display_schema().Find(dcs_.color_coded_link);
  Oid oid = db_.link_oids[0];
  ASSERT_TRUE(view->Materialize(dc, {oid}).ok());

  uint64_t writer_trace = 0;
  {
    obs::Span commit_root = obs::Span::StartRoot("test.commit", /*force=*/true);
    ASSERT_TRUE(commit_root.active());
    writer_trace = commit_root.context().trace_id;
    UpdateLink(&writer->client(), oid, 0.95);
  }
  EXPECT_EQ(viewer->PumpOnce(), 1);

  // The DLM stamped the writer's context on the notification envelope; the
  // subscriber's dispatch span joined the writer's trace.
  auto spans = obs::GlobalRecorder().Snapshot();
  bool stitched = false;
  for (const auto& s : SpansNamed(spans, "dlc.dispatch")) {
    if (s.trace_id == writer_trace) stitched = true;
  }
  EXPECT_TRUE(stitched);
  bool fanout_in_trace = false;
  for (const auto& s : SpansNamed(spans, "dlm.notify_fanout")) {
    if (s.trace_id == writer_trace) fanout_in_trace = true;
  }
  EXPECT_TRUE(fanout_in_trace);
  obs::GlobalRecorder().Clear();
}

}  // namespace
}  // namespace idba
