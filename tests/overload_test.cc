// End-to-end tests of the overload-protection ladder (DESIGN.md §9):
// slow-subscriber isolation (a stalled client must not inflate other
// clients' commit latency), admission control (Overloaded rejections with
// a retry-after hint the retry loop honors), notification coalescing, and
// the forced-resync escalation.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>

#include "client/txn_retry.h"
#include "common/codec.h"
#include "core/session.h"
#include "net/admin.h"
#include "net/fault_injector.h"
#include "net/remote_client.h"
#include "net/socket.h"
#include "net/tcp_server.h"
#include "nms/display_classes.h"
#include "nms/network_model.h"
#include "obs/audit.h"

namespace idba {
namespace {

using namespace std::chrono_literals;

/// Spins (real time) until `pred` holds or ~5 s elapse.
template <typename Pred>
bool WaitFor(Pred pred) {
  for (int i = 0; i < 500; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(10ms);
  }
  return pred();
}

int64_t ElapsedMs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - since)
      .count();
}

/// One read-modify-write commit bumping Utilization on `oid`.
Status CommitUtilization(ClientApi* client, Oid oid, double value) {
  Result<TxnId> begun = client->BeginTxn();
  IDBA_RETURN_NOT_OK(begun.status());
  TxnId t = begun.value();
  Result<DatabaseObject> link = client->Read(t, oid);
  IDBA_RETURN_NOT_OK(link.status());
  DatabaseObject obj = std::move(link).value();
  IDBA_RETURN_NOT_OK(
      obj.SetByName(client->schema(), "Utilization", Value(value)));
  IDBA_RETURN_NOT_OK(client->Write(t, std::move(obj)));
  return client->Commit(t).status();
}

class OverloadTest : public ::testing::Test {
 protected:
  void StartServer(TransportServerOptions transport_opts,
                   DeploymentOptions dep_opts = {}) {
    deployment_ = std::make_unique<Deployment>(dep_opts);
    transport_ = std::make_unique<TransportServer>(
        &deployment_->server(), &deployment_->dlm(), &deployment_->bus(),
        &deployment_->meter(), transport_opts);
    ASSERT_TRUE(transport_->Start().ok());
    ASSERT_NE(transport_->port(), 0);
  }

  void SeedNms() {
    NmsConfig config;
    config.num_nodes = 8;
    config.sites = 1;
    config.buildings_per_site = 1;
    config.racks_per_building = 1;
    config.devices_per_rack = 1;
    db_ = PopulateNms(&deployment_->server(), config).value();
  }

  std::unique_ptr<RemoteDatabaseClient> Connect(
      ClientId id, RemoteClientOptions opts = {}) {
    auto client =
        RemoteDatabaseClient::Connect("127.0.0.1", transport_->port(), id, opts);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  void TearDown() override {
    transport_.reset();  // stops threads before the deployment dies
    deployment_.reset();
  }

  std::unique_ptr<Deployment> deployment_;
  std::unique_ptr<TransportServer> transport_;
  NmsDatabase db_;
};

// --- Tentpole claim #1: slow-subscriber isolation -------------------------
//
// A subscriber whose reader is stalled (fault-injected read delay longer
// than every timeout involved) holds a cached copy. The first commit that
// must invalidate that copy pays the bounded callback-ack timeout once;
// the subscriber is then marked stale (forced resync queued) and every
// later commit elides the callback entirely — the stall never propagates
// to other writers.
TEST_F(OverloadTest, StalledSubscriberDoesNotBlockOtherWriters) {
  TransportServerOptions opts;
  opts.callback_ack_timeout_ms = 250;
  StartServer(opts);
  SeedNms();
  auto viewer = Connect(100);
  auto writer = Connect(101);
  auto bystander = Connect(102);
  ASSERT_NE(viewer, nullptr);
  ASSERT_NE(writer, nullptr);
  ASSERT_NE(bystander, nullptr);
  Oid first = db_.link_oids[0];
  Oid second = db_.link_oids[1];

  // The viewer registers cached copies of two links, then its reader
  // thread stalls: every read (CALLBACK frames included) is delayed well
  // past the server's callback-ack timeout.
  ASSERT_TRUE(viewer->ReadCurrent(first).ok());
  ASSERT_TRUE(viewer->ReadCurrent(second).ok());
  auto faults = std::make_shared<FaultInjector>();
  viewer->set_fault_injector(faults);
  faults->InjectAll(FaultDirection::kRead, FaultKind::kDelay, 2500);

  // First commit pays the ack timeout (~250 ms) — bounded, not the 2.5 s
  // the subscriber is actually stalled for.
  auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(CommitUtilization(writer.get(), first, 0.51).ok());
  int64_t first_ms = ElapsedMs(start);
  EXPECT_GE(first_ms, 200) << "commit should have waited for the ack timeout";
  EXPECT_LT(first_ms, 2000) << "commit must not wait out the full stall";
  EXPECT_GE(transport_->callback_ack_timeouts(), 1u);

  // The subscriber now owes a resync: a different writer touching the
  // *other* copy the viewer holds skips the callback wait entirely.
  start = std::chrono::steady_clock::now();
  ASSERT_TRUE(CommitUtilization(bystander.get(), second, 0.52).ok());
  EXPECT_LT(ElapsedMs(start), 1000);
  EXPECT_GE(transport_->callbacks_elided(), 1u);

  // The escalation queued a forced resync for the stalled subscriber.
  EXPECT_TRUE(WaitFor([&] { return transport_->forced_resyncs() >= 1; }));

  // Once the stall clears, the subscriber learns it must resync: its
  // cache drops every (possibly stale) copy and refetches current images.
  faults->Reset();
  EXPECT_TRUE(WaitFor([&] { return viewer->resyncs_received() >= 1; }));
  EXPECT_FALSE(viewer->cache().Contains(second));
  Result<DatabaseObject> fresh = viewer->ReadCurrent(second);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh.value().GetByName(viewer->schema(), "Utilization").value(),
            Value(0.52));
}

// --- Tentpole claim #2: admission control ---------------------------------
//
// With the in-flight cap at 1 and one request parked inside the server (a
// commit waiting on a stalled subscriber's ack), any further request is
// rejected from the reader thread with Status::Overloaded carrying the
// configured retry-after hint — and RunTransaction, floored by that hint,
// rides the rejections out until capacity frees up.
TEST_F(OverloadTest, OverloadedRejectionCarriesRetryAfterHint) {
  TransportServerOptions opts;
  opts.max_inflight = 1;
  opts.callback_ack_timeout_ms = 1500;
  opts.overload_retry_after_ms = 25;
  StartServer(opts);
  SeedNms();
  auto viewer = Connect(100);
  auto writer = Connect(101);
  auto victim = Connect(102);
  ASSERT_NE(viewer, nullptr);
  ASSERT_NE(writer, nullptr);
  ASSERT_NE(victim, nullptr);
  Oid held = db_.link_oids[0];
  Oid other = db_.link_oids[1];

  ASSERT_TRUE(viewer->ReadCurrent(held).ok());
  auto faults = std::make_shared<FaultInjector>();
  viewer->set_fault_injector(faults);
  faults->InjectAll(FaultDirection::kRead, FaultKind::kDelay, 2500);

  // Park the writer's commit inside the server: it waits ~1.5 s for the
  // stalled viewer's callback ack, pinning inflight at the cap.
  std::thread committer([&] {
    EXPECT_TRUE(CommitUtilization(writer.get(), held, 0.61).ok());
  });
  std::this_thread::sleep_for(400ms);

  // Direct rejection: status, client-side counter, and the hint.
  Result<TxnId> rejected = victim->BeginTxn();
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsOverloaded()) << rejected.status().ToString();
  EXPECT_EQ(victim->retry_after_hint_ms(), 25);
  EXPECT_GE(victim->overload_rejections(), 1u);
  EXPECT_GE(transport_->overload_rejections(), 1u);

  // The retry loop backs off (floored by the hint) and succeeds once the
  // parked commit finishes.
  TxnRetryOptions retry;
  retry.max_attempts = 40;
  retry.backoff = ExponentialBackoffWithJitter(/*seed=*/victim->id(),
                                               /*base_ms=*/20,
                                               /*cap_ms=*/200);
  TxnRetryResult result = RunTransaction(
      victim.get(),
      [&](ClientApi& c, TxnId t) {
        Result<DatabaseObject> link = c.Read(t, other);
        IDBA_RETURN_NOT_OK(link.status());
        DatabaseObject obj = std::move(link).value();
        IDBA_RETURN_NOT_OK(
            obj.SetByName(c.schema(), "Utilization", Value(0.62)));
        return c.Write(t, std::move(obj));
      },
      retry);
  committer.join();
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_GT(result.attempts, 1);

  // The shedding shows up in server introspection (STATS / idba_stat).
  EXPECT_NE(admin::StatsJson(*transport_).find("\"overload\""),
            std::string::npos);

  faults->Reset();
}

// --- In-process ladder rung 1: coalescing ---------------------------------
//
// A bounded in-process inbox with an aggressive coalesce watermark merges a
// burst of committed-update notifications into one envelope; one pump, one
// display refresh, final state current — no notification lost, none
// processed redundantly.
TEST(InProcessOverload, BoundedInboxCoalescesBurstIntoOneRefresh) {
  Deployment dep;
  NmsConfig config;
  config.num_nodes = 8;
  config.sites = 1;
  config.buildings_per_site = 1;
  config.racks_per_building = 1;
  config.devices_per_rack = 1;
  NmsDatabase db = PopulateNms(&dep.server(), config).value();
  NmsDisplayClasses dcs =
      RegisterNmsDisplayClasses(&dep.display_schema(), dep.server().schema(),
                                db.schema)
          .value();

  DatabaseClientOptions viewer_opts;
  viewer_opts.inbox.max_pending = 8;
  viewer_opts.inbox.coalesce_watermark = 1;
  auto viewer = dep.NewSession(100, viewer_opts);
  auto writer = dep.NewSession(101);

  ActiveView* view = viewer->CreateView("links");
  const DisplayClassDef* dc = dep.display_schema().Find(dcs.color_coded_link);
  ASSERT_NE(dc, nullptr);
  Oid oid = db.link_oids[0];
  ASSERT_TRUE(view->Materialize(dc, {oid}).ok());

  // Six commits land while the viewer's pump is not running.
  for (int i = 1; i <= 6; ++i) {
    ASSERT_TRUE(
        CommitUtilization(&writer->client(), oid, i / 10.0).ok());
  }
  Inbox& inbox = viewer->client().inbox();
  EXPECT_EQ(inbox.pending(), 1u);
  EXPECT_GE(inbox.coalesced(), 5u);
  EXPECT_EQ(inbox.overflows(), 0u);

  // One envelope, one refresh, current state.
  EXPECT_EQ(viewer->PumpOnce(), 1);
  EXPECT_EQ(view->refreshes(), 1u);
  auto dobs = view->display_objects();
  ASSERT_EQ(dobs.size(), 1u);
  EXPECT_EQ(dobs[0]->Get("Utilization").value(), Value(0.6));
}

// --- In-process ladder rung 2: overflow -> forced resync ------------------
//
// Early-notify interleaves intent and update notifications, which do not
// coalesce across kinds; a tiny bound therefore overflows, the backlog is
// shed, and the next pump answers the overflow with a full display resync
// that lands on current state.
TEST(InProcessOverload, InboxOverflowForcesViewResync) {
  DeploymentOptions dep_opts;
  dep_opts.dlm.protocol = NotifyProtocol::kEarlyNotify;
  Deployment dep(dep_opts);
  NmsConfig config;
  config.num_nodes = 8;
  config.sites = 1;
  config.buildings_per_site = 1;
  config.racks_per_building = 1;
  config.devices_per_rack = 1;
  NmsDatabase db = PopulateNms(&dep.server(), config).value();
  NmsDisplayClasses dcs =
      RegisterNmsDisplayClasses(&dep.display_schema(), dep.server().schema(),
                                db.schema)
          .value();

  DatabaseClientOptions viewer_opts;
  viewer_opts.inbox.max_pending = 2;
  auto viewer = dep.NewSession(100, viewer_opts);
  auto writer = dep.NewSession(101);

  ActiveView* view = viewer->CreateView("links");
  const DisplayClassDef* dc = dep.display_schema().Find(dcs.color_coded_link);
  ASSERT_NE(dc, nullptr);
  Oid oid = db.link_oids[0];
  ASSERT_TRUE(view->Materialize(dc, {oid}).ok());

  // Each commit delivers intent + update; the second commit's intent finds
  // the queue full behind a non-coalescible pair and trips the overflow.
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(
        CommitUtilization(&writer->client(), oid, i / 10.0).ok());
  }
  Inbox& inbox = viewer->client().inbox();
  EXPECT_GE(inbox.overflows(), 1u);
  EXPECT_GE(inbox.shed(), 3u);

  // The pump acknowledges the overflow with a full resync.
  viewer->PumpOnce();
  EXPECT_GE(viewer->dlc().resyncs(), 1u);
  EXPECT_GE(view->resyncs(), 1u);
  auto dobs = view->display_objects();
  ASSERT_EQ(dobs.size(), 1u);
  EXPECT_EQ(dobs[0]->Get("Utilization").value(), Value(0.3));
}

// --- Regression: the whole coalesce -> resync ladder under strict audit ---
//
// Both shedding rungs run with the consistency auditor in strict mode: the
// coalesce rung must hand the display a max-merged commit vtime (never an
// older one), and the overflow -> forced-resync rung must keep per-OID
// vtimes monotonic across the shed (OnResync drops obligations but KEEPS
// watermarks). Any regression aborts the process via the strict auditor;
// the explicit counter checks make the pass visible, not just survived.
TEST(InProcessOverload, CoalesceResyncLadderIsMonotoneUnderStrictAudit) {
  obs::ConsistencyAuditor& auditor = obs::GlobalAuditor();
  auditor.ResetForTest();
  auditor.set_staleness_slo_us(100 * kVMillisecond);
  auditor.SetMode(obs::AuditMode::kStrict);

  NmsConfig config;
  config.num_nodes = 8;
  config.sites = 1;
  config.buildings_per_site = 1;
  config.racks_per_building = 1;
  config.devices_per_rack = 1;

  // Rung 1: aggressive coalescing. Six commits merge into one envelope;
  // the dispatched vtime must be the max (a min- or first-merge would trip
  // the watermark the eager per-commit OnNotifySent hooks already set).
  {
    Deployment dep;
    NmsDatabase db = PopulateNms(&dep.server(), config).value();
    NmsDisplayClasses dcs =
        RegisterNmsDisplayClasses(&dep.display_schema(), dep.server().schema(),
                                  db.schema)
            .value();
    DatabaseClientOptions viewer_opts;
    viewer_opts.inbox.max_pending = 8;
    viewer_opts.inbox.coalesce_watermark = 1;
    auto viewer = dep.NewSession(100, viewer_opts);
    auto writer = dep.NewSession(101);
    ActiveView* view = viewer->CreateView("links");
    const DisplayClassDef* dc = dep.display_schema().Find(dcs.color_coded_link);
    ASSERT_NE(dc, nullptr);
    Oid oid = db.link_oids[0];
    ASSERT_TRUE(view->Materialize(dc, {oid}).ok());
    for (int i = 1; i <= 6; ++i) {
      ASSERT_TRUE(CommitUtilization(&writer->client(), oid, i / 10.0).ok());
    }
    EXPECT_GE(viewer->client().inbox().coalesced(), 5u);
    EXPECT_EQ(viewer->PumpOnce(), 1);
    EXPECT_EQ(view->refreshes(), 1u);
  }

  // The fresh Deployment below is a new server universe with fresh
  // (lower) virtual clocks — the same situation as reconnecting to a
  // restarted server — so apply the reconnect semantics: forget both
  // subscribers. Without this the rung-1 sent watermark would trip a
  // false monotonicity violation on rung 2's first commit.
  auditor.OnSessionReset(100);
  auditor.OnSessionReset(101);

  // Rung 2: overflow -> shed -> forced resync (early notify interleaves
  // non-coalescible kinds). The resync's full refetch must still observe
  // vtimes/versions at or above everything the subscriber already saw.
  {
    DeploymentOptions dep_opts;
    dep_opts.dlm.protocol = NotifyProtocol::kEarlyNotify;
    Deployment dep(dep_opts);
    NmsDatabase db = PopulateNms(&dep.server(), config).value();
    NmsDisplayClasses dcs =
        RegisterNmsDisplayClasses(&dep.display_schema(), dep.server().schema(),
                                  db.schema)
            .value();
    DatabaseClientOptions viewer_opts;
    viewer_opts.inbox.max_pending = 2;
    auto viewer = dep.NewSession(100, viewer_opts);
    auto writer = dep.NewSession(101);
    ActiveView* view = viewer->CreateView("links");
    const DisplayClassDef* dc = dep.display_schema().Find(dcs.color_coded_link);
    ASSERT_NE(dc, nullptr);
    Oid oid = db.link_oids[0];
    ASSERT_TRUE(view->Materialize(dc, {oid}).ok());
    for (int i = 1; i <= 3; ++i) {
      ASSERT_TRUE(CommitUtilization(&writer->client(), oid, i / 10.0).ok());
    }
    EXPECT_GE(viewer->client().inbox().overflows(), 1u);
    viewer->PumpOnce();
    EXPECT_GE(view->resyncs(), 1u);
    // A second pump cycle after the resync: later commits must dispatch
    // cleanly against the watermarks the pre-shed stream established.
    for (int i = 4; i <= 5; ++i) {
      ASSERT_TRUE(CommitUtilization(&writer->client(), oid, i / 10.0).ok());
      viewer->PumpOnce();
    }
  }

  EXPECT_GT(auditor.checks_total(), 0u);
  EXPECT_EQ(auditor.violations_total(), 0u);
  EXPECT_EQ(auditor.pending_obligations(), 0u);
  auditor.ResetForTest();
}

// --- Overflow hook contract ---------------------------------------------
//
// Every overflow reaches the overflow hook (TransportServer marks the
// client stale there), once per overflow, so a consumer that counts the
// calls can act once a threshold is reached.
TEST(InProcessOverload, OverflowHookEscalatesAtThreshold) {
  int disconnect_after = 2;
  int overflow_calls = 0;
  bool disconnected = false;
  InboxOptions opts;
  opts.max_pending = 1;
  opts.overflow_hook = [&] {
    if (++overflow_calls >= disconnect_after) disconnected = true;
  };
  Inbox inbox(opts);

  auto intent = std::make_shared<IntentNotifyMessage>();
  intent->oids.push_back(Oid(7));
  auto update = std::make_shared<UpdateNotifyMessage>();
  update->updated.push_back(Oid(7));

  auto deliver = [&](std::shared_ptr<const Message> msg) {
    Envelope e;
    e.from = 1;
    e.to = 2;
    e.msg = std::move(msg);
    return inbox.Deliver(std::move(e));
  };

  // Round one: intent queued, update cannot coalesce into it -> overflow.
  EXPECT_EQ(deliver(intent), DeliverOutcome::kQueued);
  EXPECT_EQ(deliver(update), DeliverOutcome::kOverflow);
  EXPECT_FALSE(disconnected);  // first overflow is below the threshold
  EXPECT_TRUE(inbox.TakeOverflow());

  // Round two: same pattern; the hook's second call escalates.
  EXPECT_EQ(deliver(intent), DeliverOutcome::kQueued);
  EXPECT_EQ(deliver(update), DeliverOutcome::kOverflow);
  EXPECT_TRUE(disconnected);
  EXPECT_EQ(inbox.overflows(), 2u);
}

}  // namespace
}  // namespace idba
