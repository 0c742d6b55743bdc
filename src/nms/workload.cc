#include "nms/workload.h"

#include <cstdio>
#include <thread>

namespace idba {

Result<std::unique_ptr<WorkloadRunner>> WorkloadRunner::Create(
    WorkloadConfig config) {
  auto runner = std::unique_ptr<WorkloadRunner>(new WorkloadRunner(config));
  runner->deployment_ = std::make_unique<Deployment>(config.deployment);
  IDBA_ASSIGN_OR_RETURN(
      runner->db_, PopulateNms(&runner->deployment_->server(), config.network));
  IDBA_ASSIGN_OR_RETURN(
      runner->dcs_,
      RegisterNmsDisplayClasses(&runner->deployment_->display_schema(),
                                runner->deployment_->server().schema(),
                                runner->db_.schema));
  for (int i = 0; i < config.operators; ++i) {
    OperatorOptions oo = config.operator_options;
    oo.seed = config.seed + static_cast<uint64_t>(i) * 7919;
    IDBA_ASSIGN_OR_RETURN(
        auto op, OperatorSession::Create(runner->deployment_.get(), 100 + i,
                                         &runner->db_, &runner->dcs_, oo));
    runner->operators_.push_back(std::move(op));
  }
  if (config.monitor_steps_per_round > 0) {
    runner->monitor_session_ = runner->deployment_->NewSession(50);
    MonitorOptions mo = config.monitor_options;
    mo.seed = config.seed ^ 0xF00D;
    runner->monitor_ = std::make_unique<MonitorProcess>(
        &runner->monitor_session_->client(), &runner->db_, mo);
  }
  return runner;
}

std::vector<OperatorSession*> WorkloadRunner::operators() {
  std::vector<OperatorSession*> out;
  for (auto& op : operators_) out.push_back(op.get());
  return out;
}

Result<WorkloadReport> WorkloadRunner::Run() {
  if (ran_) return Status::InvalidArgument("workload already ran");
  ran_ = true;

  if (config_.threaded) {
    std::vector<std::thread> threads;
    for (auto& op : operators_) {
      threads.emplace_back([&, op = op.get()] {
        for (int s = 0; s < config_.steps_per_operator; ++s) {
          (void)op->StepOnce();
        }
      });
    }
    if (monitor_) {
      for (int s = 0;
           s < config_.steps_per_operator * config_.monitor_steps_per_round;
           ++s) {
        (void)monitor_->StepOnce();
      }
    }
    for (auto& t : threads) t.join();
  } else {
    for (int s = 0; s < config_.steps_per_operator; ++s) {
      if (monitor_) {
        for (int m = 0; m < config_.monitor_steps_per_round; ++m) {
          (void)monitor_->StepOnce();
        }
      }
      for (auto& op : operators_) {
        IDBA_RETURN_NOT_OK(op->StepOnce().status());
      }
    }
  }

  // Drain every session, then report.
  WorkloadReport report;
  double propagation_sum = 0;
  for (auto& op : operators_) {
    op->session().PumpOnce();
    report.monitor_actions += op->monitor_actions();
    report.updates_attempted += op->updates_attempted();
    report.updates_committed += op->updates_committed();
    report.updates_aborted += op->updates_aborted();
    report.marked_skips += op->marked_skips();
    ActiveView* view = op->view();
    report.refreshes += view->refreshes();
    report.intent_marks += view->intent_marks();
    propagation_sum += view->propagation_ms().mean();
    report.propagation_p95_ms =
        std::max(report.propagation_p95_ms, view->propagation_ms().Percentile(0.95));
    report.stale_display_objects += view->CountStaleObjects();
  }
  report.propagation_mean_ms =
      operators_.empty() ? 0 : propagation_sum / operators_.size();
  if (monitor_) report.monitor_commits = monitor_->updates_committed();
  report.deployment_stats = CollectStats(*deployment_);
  return report;
}

std::string WorkloadReport::Summary() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "ops: %llu monitor-actions, %llu/%llu updates committed (%.1f%% aborts, "
      "%llu mark-skips) | displays: %llu refreshes, %llu intent marks, "
      "propagation %.0f ms mean / %.0f ms p95, %llu stale | monitor: %llu "
      "commits",
      static_cast<unsigned long long>(monitor_actions),
      static_cast<unsigned long long>(updates_committed),
      static_cast<unsigned long long>(updates_attempted), abort_rate() * 100,
      static_cast<unsigned long long>(marked_skips),
      static_cast<unsigned long long>(refreshes),
      static_cast<unsigned long long>(intent_marks), propagation_mean_ms,
      propagation_p95_ms, static_cast<unsigned long long>(stale_display_objects),
      static_cast<unsigned long long>(monitor_commits));
  return buf;
}

}  // namespace idba
