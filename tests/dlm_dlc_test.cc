#include <gtest/gtest.h>

#include "core/session.h"
#include "nms/display_classes.h"
#include "nms/network_model.h"

namespace idba {
namespace {

class DlmDlcTest : public ::testing::Test {
 protected:
  void Init(DlmOptions dlm_opts = {}) {
    DeploymentOptions opts;
    opts.dlm = dlm_opts;
    InitWith(opts);
  }

  void InitWith(const DeploymentOptions& opts) {
    deployment_ = std::make_unique<Deployment>(opts);
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

  /// Updates a link's utilization through a writer client.
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
};

TEST_F(DlmDlcTest, LockTableTracksHolders) {
  Init();
  auto s1 = deployment_->NewSession(100);
  auto s2 = deployment_->NewSession(101);
  Oid oid = db_.link_oids[0];
  ASSERT_TRUE(deployment_->dlm().Lock(100, oid, 0).ok());
  ASSERT_TRUE(deployment_->dlm().Lock(101, oid, 0).ok());
  EXPECT_EQ(deployment_->dlm().holder_count(oid), 2u);
  ASSERT_TRUE(deployment_->dlm().Unlock(100, oid, 0).ok());
  EXPECT_EQ(deployment_->dlm().holder_count(oid), 1u);
  deployment_->dlm().ReleaseClient(101);
  EXPECT_EQ(deployment_->dlm().holder_count(oid), 0u);
}

TEST_F(DlmDlcTest, PostCommitNotifyReachesHolder) {
  Init();
  auto viewer = deployment_->NewSession(100);
  auto writer = deployment_->NewSession(101);
  ActiveView* view = viewer->CreateView("links");
  const DisplayClassDef* dc =
      deployment_->display_schema().Find(dcs_.color_coded_link);
  Oid oid = db_.link_oids[0];
  ASSERT_TRUE(view->Materialize(dc, {oid}).ok());

  UpdateLink(&writer->client(), oid, 0.95);
  EXPECT_EQ(viewer->client().inbox().pending(), 1u);
  EXPECT_EQ(viewer->PumpOnce(), 1);
  EXPECT_EQ(view->refreshes(), 1u);
  EXPECT_EQ(deployment_->dlm().update_notifications(), 1u);

  auto dobs = view->display_objects();
  ASSERT_EQ(dobs.size(), 1u);
  EXPECT_EQ(dobs[0]->Get("Utilization").value(), Value(0.95));
  EXPECT_EQ(dobs[0]->Get("Color").value(), Value("red"));
}

TEST_F(DlmDlcTest, NonHoldersGetNoNotification) {
  Init();
  auto viewer = deployment_->NewSession(100);
  auto writer = deployment_->NewSession(101);
  ActiveView* view = viewer->CreateView("links");
  const DisplayClassDef* dc =
      deployment_->display_schema().Find(dcs_.color_coded_link);
  ASSERT_TRUE(view->Materialize(dc, {db_.link_oids[0]}).ok());

  // Update a DIFFERENT link: no display lock, no notification.
  UpdateLink(&writer->client(), db_.link_oids[1], 0.5);
  EXPECT_EQ(viewer->client().inbox().pending(), 0u);
}

TEST_F(DlmDlcTest, OneNotificationPerClientPerCommitRegardlessOfDisplays) {
  Init();
  auto viewer = deployment_->NewSession(100);
  auto writer = deployment_->NewSession(101);
  const DisplayClassDef* color =
      deployment_->display_schema().Find(dcs_.color_coded_link);
  const DisplayClassDef* width =
      deployment_->display_schema().Find(dcs_.width_coded_link);
  Oid oid = db_.link_oids[0];
  // Two displays of the same client show the same object (§4.2.1).
  ActiveView* v1 = viewer->CreateView("color");
  ActiveView* v2 = viewer->CreateView("width");
  ASSERT_TRUE(v1->Materialize(color, {oid}).ok());
  ASSERT_TRUE(v2->Materialize(width, {oid}).ok());

  // Only ONE remote lock request went to the DLM.
  EXPECT_EQ(viewer->dlc().remote_lock_requests(), 1u);
  EXPECT_EQ(viewer->dlc().local_lock_requests(), 2u);

  UpdateLink(&writer->client(), oid, 0.9);
  // ONE message arrived; the DLC fanned it out to both displays.
  EXPECT_EQ(viewer->client().inbox().pending(), 1u);
  viewer->PumpOnce();
  EXPECT_EQ(viewer->dlc().local_dispatches(), 2u);
  EXPECT_EQ(v1->refreshes(), 1u);
  EXPECT_EQ(v2->refreshes(), 1u);
}

TEST_F(DlmDlcTest, NonHierarchicalBaselineSendsPerDisplayMessages) {
  Init();
  auto writer = deployment_->NewSession(101);
  auto viewer = deployment_->NewSession(100, {}, DlcOptions{.hierarchical = false});
  const DisplayClassDef* color =
      deployment_->display_schema().Find(dcs_.color_coded_link);
  const DisplayClassDef* width =
      deployment_->display_schema().Find(dcs_.width_coded_link);
  Oid oid = db_.link_oids[0];
  ActiveView* v1 = viewer->CreateView("color");
  ActiveView* v2 = viewer->CreateView("width");
  ASSERT_TRUE(v1->Materialize(color, {oid}).ok());
  ASSERT_TRUE(v2->Materialize(width, {oid}).ok());

  // Every display registered separately at the DLM...
  EXPECT_EQ(viewer->dlc().remote_lock_requests(), 2u);
  UpdateLink(&writer->client(), oid, 0.9);
  // ...and each receives its own notification message.
  EXPECT_EQ(viewer->client().inbox().pending(), 2u);
  viewer->PumpOnce();
  EXPECT_EQ(v1->refreshes(), 1u);
  EXPECT_EQ(v2->refreshes(), 1u);
}

TEST_F(DlmDlcTest, ReleasingLastLocalLockReleasesRemote) {
  Init();
  auto viewer = deployment_->NewSession(100);
  const DisplayClassDef* dc =
      deployment_->display_schema().Find(dcs_.color_coded_link);
  Oid oid = db_.link_oids[0];
  ActiveView* v1 = viewer->CreateView("a");
  ActiveView* v2 = viewer->CreateView("b");
  auto d1 = v1->Materialize(dc, {oid});
  auto d2 = v2->Materialize(dc, {oid});
  ASSERT_TRUE(d1.ok());
  ASSERT_TRUE(d2.ok());
  EXPECT_EQ(deployment_->dlm().holder_count(oid), 1u);
  ASSERT_TRUE(v1->Dismiss(d1.value()->id()).ok());
  EXPECT_EQ(deployment_->dlm().holder_count(oid), 1u);  // v2 still needs it
  ASSERT_TRUE(v2->Dismiss(d2.value()->id()).ok());
  EXPECT_EQ(deployment_->dlm().holder_count(oid), 0u);
}

TEST_F(DlmDlcTest, EagerShippingRefreshesWithoutFetchRpc) {
  Init(DlmOptions{.eager_shipping = true});
  auto viewer = deployment_->NewSession(100);
  auto writer = deployment_->NewSession(101);
  ActiveView* view = viewer->CreateView("links");
  const DisplayClassDef* dc =
      deployment_->display_schema().Find(dcs_.color_coded_link);
  Oid oid = db_.link_oids[0];
  ASSERT_TRUE(view->Materialize(dc, {oid}).ok());

  uint64_t rpcs_before = viewer->client().rpcs_issued();
  UpdateLink(&writer->client(), oid, 0.88);
  viewer->PumpOnce();
  EXPECT_EQ(view->refreshes(), 1u);
  // The image rode along with the notification: no re-fetch round trip.
  EXPECT_EQ(viewer->client().rpcs_issued(), rpcs_before);
  auto dobs = view->display_objects();
  EXPECT_EQ(dobs[0]->Get("Utilization").value(), Value(0.88));
}

TEST_F(DlmDlcTest, LazyProtocolRefetches) {
  Init();
  auto viewer = deployment_->NewSession(100);
  auto writer = deployment_->NewSession(101);
  ActiveView* view = viewer->CreateView("links");
  const DisplayClassDef* dc =
      deployment_->display_schema().Find(dcs_.color_coded_link);
  Oid oid = db_.link_oids[0];
  ASSERT_TRUE(view->Materialize(dc, {oid}).ok());

  uint64_t rpcs_before = viewer->client().rpcs_issued();
  UpdateLink(&writer->client(), oid, 0.88);
  viewer->PumpOnce();
  // The cached copy was invalidated by the callback; the refresh needed a
  // fetch RPC — the paper's 3-message lazy path.
  EXPECT_EQ(viewer->client().rpcs_issued(), rpcs_before + 1);
}

TEST_F(DlmDlcTest, EarlyNotifyMarksAndResolves) {
  Init(DlmOptions{.protocol = NotifyProtocol::kEarlyNotify});
  auto viewer = deployment_->NewSession(100);
  auto writer = deployment_->NewSession(101);
  ActiveView* view = viewer->CreateView("links");
  const DisplayClassDef* dc =
      deployment_->display_schema().Find(dcs_.color_coded_link);
  Oid oid = db_.link_oids[0];
  ASSERT_TRUE(view->Materialize(dc, {oid}).ok());

  // Writer takes the X lock (intent) but has not committed yet.
  const SchemaCatalog& cat = writer->client().schema();
  TxnId t = writer->client().Begin();
  DatabaseObject link = writer->client().Read(t, oid).value();
  ASSERT_TRUE(link.SetByName(cat, "Utilization", Value(0.5)).ok());
  ASSERT_TRUE(writer->client().Write(t, std::move(link)).ok());

  viewer->PumpOnce();
  EXPECT_EQ(view->intent_marks(), 1u);
  EXPECT_TRUE(view->IsSourceMarked(oid));
  EXPECT_TRUE(view->display_objects()[0]->marked_in_update());

  // Commit resolves the mark and refreshes.
  ASSERT_TRUE(writer->client().Commit(t).ok());
  viewer->PumpOnce();
  EXPECT_FALSE(view->IsSourceMarked(oid));
  EXPECT_FALSE(view->display_objects()[0]->marked_in_update());
  EXPECT_EQ(view->refreshes(), 1u);
}

TEST_F(DlmDlcTest, EarlyNotifyAbortUnmarksWithoutRefresh) {
  Init(DlmOptions{.protocol = NotifyProtocol::kEarlyNotify});
  auto viewer = deployment_->NewSession(100);
  auto writer = deployment_->NewSession(101);
  ActiveView* view = viewer->CreateView("links");
  const DisplayClassDef* dc =
      deployment_->display_schema().Find(dcs_.color_coded_link);
  Oid oid = db_.link_oids[0];
  ASSERT_TRUE(view->Materialize(dc, {oid}).ok());

  const SchemaCatalog& cat = writer->client().schema();
  TxnId t = writer->client().Begin();
  DatabaseObject link = writer->client().Read(t, oid).value();
  ASSERT_TRUE(link.SetByName(cat, "Utilization", Value(0.5)).ok());
  ASSERT_TRUE(writer->client().Write(t, std::move(link)).ok());
  viewer->PumpOnce();
  EXPECT_TRUE(view->IsSourceMarked(oid));

  ASSERT_TRUE(writer->client().Abort(t).ok());
  viewer->PumpOnce();
  EXPECT_FALSE(view->display_objects()[0]->marked_in_update());
  EXPECT_EQ(view->refreshes(), 0u);  // nothing committed, nothing refreshed
}

TEST_F(DlmDlcTest, WriterDoesNotGetIntentNotifyForItself) {
  Init(DlmOptions{.protocol = NotifyProtocol::kEarlyNotify});
  auto writer = deployment_->NewSession(101);
  ActiveView* view = writer->CreateView("links");
  const DisplayClassDef* dc =
      deployment_->display_schema().Find(dcs_.color_coded_link);
  Oid oid = db_.link_oids[0];
  ASSERT_TRUE(view->Materialize(dc, {oid}).ok());

  const SchemaCatalog& cat = writer->client().schema();
  TxnId t = writer->client().Begin();
  DatabaseObject link = writer->client().Read(t, oid).value();
  ASSERT_TRUE(link.SetByName(cat, "Utilization", Value(0.5)).ok());
  ASSERT_TRUE(writer->client().Write(t, std::move(link)).ok());
  writer->PumpOnce();
  EXPECT_FALSE(view->IsSourceMarked(oid));  // you know about your own edit
  ASSERT_TRUE(writer->client().Commit(t).ok());
}

TEST_F(DlmDlcTest, IntegratedModeKeepsDLocksInTheDlmTable) {
  // The DLM switch alone selects the integrated deployment: no server
  // option has to agree with it.
  DeploymentOptions opts;
  opts.dlm.integrated = true;
  InitWith(opts);
  auto viewer = deployment_->NewSession(100);
  auto writer = deployment_->NewSession(101);
  ActiveView* view = viewer->CreateView("links");
  const DisplayClassDef* dc =
      deployment_->display_schema().Find(dcs_.color_coded_link);
  Oid oid = db_.link_oids[0];
  ASSERT_TRUE(view->Materialize(dc, {oid}).ok());
  EXPECT_EQ(deployment_->dlm().holder_count(oid), 1u);

  UpdateLink(&writer->client(), oid, 0.95);
  EXPECT_EQ(viewer->PumpOnce(), 1);
  EXPECT_EQ(view->refreshes(), 1u);
  EXPECT_EQ(deployment_->dlm().update_reports(), 0u);  // no agent hops

  // The DLM table is the one store of D locks: the lock manager holds no
  // copy, so LOCKS lists each display lock once.
  LockManager& locks = deployment_->server().lock_manager();
  EXPECT_TRUE(locks.DumpTable().entries.empty());
  view->Close();
  EXPECT_EQ(deployment_->dlm().holder_count(oid), 0u);
  EXPECT_TRUE(locks.DumpTable().entries.empty());
}

TEST_F(DlmDlcTest, BatchedCommitYieldsSingleNotification) {
  Init();
  auto viewer = deployment_->NewSession(100);
  auto writer = deployment_->NewSession(101);
  ActiveView* view = viewer->CreateView("links");
  const DisplayClassDef* dc =
      deployment_->display_schema().Find(dcs_.color_coded_link);
  ASSERT_TRUE(view->Materialize(dc, {db_.link_oids[0]}).ok());
  ASSERT_TRUE(view->Materialize(dc, {db_.link_oids[1]}).ok());

  // One transaction updates both displayed links.
  const SchemaCatalog& cat = writer->client().schema();
  TxnId t = writer->client().Begin();
  for (int i = 0; i < 2; ++i) {
    DatabaseObject link = writer->client().Read(t, db_.link_oids[i]).value();
    ASSERT_TRUE(link.SetByName(cat, "Utilization", Value(0.7)).ok());
    ASSERT_TRUE(writer->client().Write(t, std::move(link)).ok());
  }
  ASSERT_TRUE(writer->client().Commit(t).ok());

  EXPECT_EQ(viewer->client().inbox().pending(), 1u);  // batched
  viewer->PumpOnce();
  EXPECT_EQ(view->refreshes(), 2u);  // but both elements refreshed
}

}  // namespace
}  // namespace idba
