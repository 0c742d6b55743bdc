// Focused unit tests of the Display Lock Manager's internals: eager image
// contents, per-commit batching, client teardown, deployment-mode effects
// on the agent's virtual clock, and the stats report.

#include <gtest/gtest.h>

#include "core/stats_report.h"
#include "nms/display_classes.h"
#include "nms/network_model.h"

namespace idba {
namespace {

class DlmUnitTest : public ::testing::Test {
 protected:
  void Init(DlmOptions opts = {}) {
    DeploymentOptions dopts;
    dopts.dlm = opts;
    deployment_ = std::make_unique<Deployment>(dopts);
    NmsConfig config;
    config.num_nodes = 6;
    config.sites = 1;
    config.buildings_per_site = 1;
    config.racks_per_building = 1;
    config.devices_per_rack = 1;
    db_ = PopulateNms(&deployment_->server(), config).value();
  }

  void Update(ClientApi* writer, Oid oid, double util) {
    const SchemaCatalog& cat = writer->schema();
    TxnId t = writer->Begin();
    DatabaseObject link = writer->Read(t, oid).value();
    ASSERT_TRUE(link.SetByName(cat, "Utilization", Value(util)).ok());
    ASSERT_TRUE(writer->Write(t, std::move(link)).ok());
    ASSERT_TRUE(writer->Commit(t).ok());
  }

  std::unique_ptr<Deployment> deployment_;
  NmsDatabase db_;
};

TEST_F(DlmUnitTest, EagerNotificationCarriesExactImages) {
  Init(DlmOptions{.eager_shipping = true});
  auto holder = deployment_->NewSession(100);
  auto writer = deployment_->NewSession(101);
  Oid oid = db_.link_oids[0];
  ASSERT_TRUE(deployment_->dlm().Lock(100, oid, 0).ok());

  Update(&writer->client(), oid, 0.42);
  auto env = holder->client().inbox().Poll();
  ASSERT_TRUE(env.has_value());
  const auto* msg = dynamic_cast<const UpdateNotifyMessage*>(env->msg.get());
  ASSERT_NE(msg, nullptr);
  EXPECT_TRUE(msg->committed);
  ASSERT_EQ(msg->updated.size(), 1u);
  EXPECT_EQ(msg->updated[0], oid);
  ASSERT_EQ(msg->images.size(), 1u);
  EXPECT_EQ(msg->images[0].oid(), oid);
  EXPECT_EQ(msg->images[0]
                .GetByName(deployment_->server().schema(), "Utilization")
                .value(),
            Value(0.42));
  // Eager message is bigger on the wire than the oid list alone.
  EXPECT_GT(msg->WireBytes(), 32u + 8u);
}

TEST_F(DlmUnitTest, LazyNotificationCarriesOidsOnly) {
  Init();
  auto holder = deployment_->NewSession(100);
  auto writer = deployment_->NewSession(101);
  Oid oid = db_.link_oids[0];
  ASSERT_TRUE(deployment_->dlm().Lock(100, oid, 0).ok());
  Update(&writer->client(), oid, 0.5);
  auto env = holder->client().inbox().Poll();
  ASSERT_TRUE(env.has_value());
  const auto* msg = dynamic_cast<const UpdateNotifyMessage*>(env->msg.get());
  ASSERT_NE(msg, nullptr);
  EXPECT_TRUE(msg->images.empty());
  EXPECT_EQ(msg->commit_vtime > 0, true);
}

TEST_F(DlmUnitTest, MultiObjectCommitBatchesPerClient) {
  Init();
  auto holder1 = deployment_->NewSession(100);
  auto holder2 = deployment_->NewSession(101);
  auto writer = deployment_->NewSession(102);
  // holder1 watches links 0,1; holder2 watches link 1 only.
  ASSERT_TRUE(deployment_->dlm().Lock(100, db_.link_oids[0], 0).ok());
  ASSERT_TRUE(deployment_->dlm().Lock(100, db_.link_oids[1], 0).ok());
  ASSERT_TRUE(deployment_->dlm().Lock(101, db_.link_oids[1], 0).ok());

  // One transaction updates both links.
  const SchemaCatalog& cat = deployment_->server().schema();
  TxnId t = writer->client().Begin();
  for (int i = 0; i < 2; ++i) {
    DatabaseObject link = writer->client().Read(t, db_.link_oids[i]).value();
    ASSERT_TRUE(link.SetByName(cat, "Utilization", Value(0.6)).ok());
    ASSERT_TRUE(writer->client().Write(t, std::move(link)).ok());
  }
  ASSERT_TRUE(writer->client().Commit(t).ok());

  // holder1: ONE message naming both oids; holder2: one message, one oid.
  ASSERT_EQ(holder1->client().inbox().pending(), 1u);
  ASSERT_EQ(holder2->client().inbox().pending(), 1u);
  auto env1 = holder1->client().inbox().Poll();
  const auto* msg1 = dynamic_cast<const UpdateNotifyMessage*>(env1->msg.get());
  EXPECT_EQ(msg1->updated.size(), 2u);
  auto env2 = holder2->client().inbox().Poll();
  const auto* msg2 = dynamic_cast<const UpdateNotifyMessage*>(env2->msg.get());
  EXPECT_EQ(msg2->updated.size(), 1u);
  EXPECT_EQ(msg2->updated[0], db_.link_oids[1]);
}

TEST_F(DlmUnitTest, ErasedObjectsNotifyHolders) {
  Init();
  auto holder = deployment_->NewSession(100);
  auto writer = deployment_->NewSession(101);
  Oid oid = db_.link_oids[0];
  ASSERT_TRUE(deployment_->dlm().Lock(100, oid, 0).ok());

  TxnId t = writer->client().Begin();
  ASSERT_TRUE(writer->client().EraseObject(t, oid).ok());
  ASSERT_TRUE(writer->client().Commit(t).ok());

  auto env = holder->client().inbox().Poll();
  ASSERT_TRUE(env.has_value());
  const auto* msg = dynamic_cast<const UpdateNotifyMessage*>(env->msg.get());
  ASSERT_NE(msg, nullptr);
  ASSERT_EQ(msg->erased.size(), 1u);
  EXPECT_EQ(msg->erased[0], oid);
}

TEST_F(DlmUnitTest, ReleaseClientDropsEverything) {
  Init();
  auto writer = deployment_->NewSession(101);
  ASSERT_TRUE(deployment_->dlm().Lock(100, db_.link_oids[0], 0).ok());
  ASSERT_TRUE(deployment_->dlm().Lock(100, db_.link_oids[1], 0).ok());
  EXPECT_EQ(deployment_->dlm().locked_object_count(), 2u);
  deployment_->dlm().ReleaseClient(100);
  EXPECT_EQ(deployment_->dlm().locked_object_count(), 0u);
  // Releasing an unknown client is a no-op.
  deployment_->dlm().ReleaseClient(999);
}

TEST_F(DlmUnitTest, AgentModeChargesReportHops) {
  // The agent DLM's clock must run ahead of the integrated one for the
  // same event (two extra hops on the causal path — the §4.1 trade-off).
  VTime agent_clock = 0;
  {
    Init();
    auto holder = deployment_->NewSession(100);
    auto writer = deployment_->NewSession(101);
    ASSERT_TRUE(deployment_->dlm().Lock(100, db_.link_oids[0], 0).ok());
    Update(&writer->client(), db_.link_oids[0], 0.5);
    agent_clock = deployment_->dlm().clock().Now();
    EXPECT_GT(deployment_->dlm().update_reports(), 0u);
  }
  {
    Init(DlmOptions{.integrated = true});
    auto holder = deployment_->NewSession(100);
    auto writer = deployment_->NewSession(101);
    ASSERT_TRUE(deployment_->dlm().Lock(100, db_.link_oids[0], 0).ok());
    Update(&writer->client(), db_.link_oids[0], 0.5);
    VTime integrated_clock = deployment_->dlm().clock().Now();
    EXPECT_GT(agent_clock, integrated_clock);
    EXPECT_EQ(deployment_->dlm().update_reports(), 0u);
  }
}

TEST_F(DlmUnitTest, StatsReportCoversEveryComponent) {
  Init();
  auto holder = deployment_->NewSession(100);
  auto writer = deployment_->NewSession(101);
  ActiveView* view = holder->CreateView("v");
  NmsDisplayClasses dcs =
      RegisterNmsDisplayClasses(&deployment_->display_schema(),
                                deployment_->server().schema(), db_.schema)
          .value();
  ASSERT_TRUE(
      view->PopulateFromClass(deployment_->display_schema().Find(dcs.color_coded_link))
          .ok());
  Update(&writer->client(), db_.link_oids[0], 0.5);
  holder->PumpOnce();

  DeploymentStats stats = CollectStats(*deployment_);
  EXPECT_GT(stats.commits, 0u);
  EXPECT_GT(stats.heap_objects, 0u);
  EXPECT_EQ(stats.display_locked_objects, db_.link_oids.size());
  EXPECT_GT(stats.update_notifications, 0u);
  EXPECT_GT(stats.rpc_messages, 0u);
  EXPECT_GT(stats.notify_messages, 0u);
  std::string report = stats.ToString();
  EXPECT_NE(report.find("commits"), std::string::npos);
  EXPECT_NE(report.find("update notifications"), std::string::npos);

  SessionStats ss = CollectSessionStats(*holder);
  EXPECT_EQ(ss.display_objects, db_.link_oids.size());
  EXPECT_GT(ss.db_cache_objects, 0u);
  EXPECT_EQ(ss.notifications_received, 1u);
  EXPECT_NE(ss.ToString().find("display objects"), std::string::npos);
}

}  // namespace
}  // namespace idba
