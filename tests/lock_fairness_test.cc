// Lock manager fairness and bookkeeping details beyond the basic
// compatibility tests: FIFO waiting, counters, try-lock edge cases.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "txn/lock_manager.h"

namespace idba {
namespace {

TEST(LockFairnessTest, FifoOrderAmongConflictingWaiters) {
  LockManager lm;
  Oid oid(1);
  ASSERT_TRUE(lm.Lock(1, oid, LockMode::kX).ok());

  std::vector<int> grant_order;
  std::mutex order_mu;
  std::vector<std::thread> waiters;
  for (int i = 0; i < 4; ++i) {
    waiters.emplace_back([&, i] {
      // Stagger arrival so queue order is deterministic: waits() is bumped
      // under the manager mutex just before a waiter is queued, so waiter
      // i enqueues only after waiters 0..i-1 are in the queue.
      while (lm.waits() != static_cast<uint64_t>(i)) {
        std::this_thread::yield();
      }
      ASSERT_TRUE(lm.Lock(10 + i, oid, LockMode::kX).ok());
      {
        std::lock_guard<std::mutex> lock(order_mu);
        grant_order.push_back(i);
      }
      ASSERT_TRUE(lm.Unlock(10 + i, oid).ok());
    });
  }
  while (lm.waits() < 4) std::this_thread::yield();
  ASSERT_TRUE(lm.Unlock(1, oid).ok());
  for (auto& t : waiters) t.join();
  // X waiters are granted in arrival order.
  EXPECT_EQ(grant_order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(lm.waits(), 4u);
}

TEST(LockFairnessTest, EarlierExclusiveWaiterBlocksLaterSharedRequest) {
  // Without FIFO fairness, a stream of S requests could starve a queued X.
  LockManager lm;
  Oid oid(1);
  ASSERT_TRUE(lm.Lock(1, oid, LockMode::kS).ok());
  std::atomic<bool> x_granted{false};
  std::thread x_waiter([&] {
    ASSERT_TRUE(lm.Lock(2, oid, LockMode::kX).ok());
    x_granted = true;
    ASSERT_TRUE(lm.Unlock(2, oid).ok());
  });
  // Give the X request time to queue.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // A *new* S request must not jump the queued X (TryLock refuses).
  EXPECT_TRUE(lm.TryLock(3, oid, LockMode::kS).IsBusy());
  EXPECT_FALSE(x_granted.load());
  ASSERT_TRUE(lm.Unlock(1, oid).ok());
  x_waiter.join();
  EXPECT_TRUE(x_granted.load());
  // Queue empty now: S freely granted.
  EXPECT_TRUE(lm.TryLock(3, oid, LockMode::kS).ok());
}

TEST(LockFairnessTest, CountersTrackActivity) {
  LockManager lm;
  Oid oid(1);
  ASSERT_TRUE(lm.Lock(1, oid, LockMode::kS).ok());
  uint64_t grants_before = lm.grants();
  ASSERT_TRUE(lm.Lock(2, oid, LockMode::kS).ok());
  EXPECT_EQ(lm.grants(), grants_before + 1);
  EXPECT_EQ(lm.waits(), 0u);
  EXPECT_EQ(lm.deadlocks(), 0u);
  EXPECT_EQ(lm.timeouts(), 0u);
}

TEST(LockFairnessTest, TryLockNeverQueues) {
  LockManager lm;
  Oid oid(1);
  ASSERT_TRUE(lm.Lock(1, oid, LockMode::kX).ok());
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(lm.TryLock(2, oid, LockMode::kX).IsBusy());
  }
  EXPECT_EQ(lm.waits(), 0u);
  // The failed attempts left no residue: unlocking owner 1 frees the oid.
  ASSERT_TRUE(lm.Unlock(1, oid).ok());
  EXPECT_EQ(lm.LockedObjectCount(), 0u);
}

TEST(LockFairnessTest, UnlockErrorsAreDistinct) {
  LockManager lm;
  EXPECT_EQ(lm.Unlock(1, Oid(9)).code(), StatusCode::kNotFound);
  ASSERT_TRUE(lm.Lock(1, Oid(9), LockMode::kS).ok());
  EXPECT_EQ(lm.Unlock(2, Oid(9)).code(), StatusCode::kNotFound);
  EXPECT_TRUE(lm.Unlock(1, Oid(9)).ok());
}

TEST(LockFairnessTest, IntentionModesCompose) {
  LockManager lm;
  Oid table(100);
  // Classic hierarchy use: IS+IX coexist, S joins IS, X excluded.
  ASSERT_TRUE(lm.Lock(1, table, LockMode::kIS).ok());
  ASSERT_TRUE(lm.Lock(2, table, LockMode::kIX).ok());
  ASSERT_TRUE(lm.Lock(3, table, LockMode::kIS).ok());
  EXPECT_TRUE(lm.TryLock(4, table, LockMode::kX).IsBusy());
  // IS is compatible with SIX: owner 2 may upgrade IX -> SIX in place...
  EXPECT_TRUE(lm.TryLock(2, table, LockMode::kSIX).ok());
  EXPECT_EQ(lm.HeldMode(2, table), LockMode::kSIX);
  // ...but not to X while IS holders remain.
  EXPECT_TRUE(lm.TryLock(2, table, LockMode::kX).IsBusy());
  lm.ReleaseAll(1);
  lm.ReleaseAll(3);
  EXPECT_TRUE(lm.Lock(2, table, LockMode::kX).ok());
  EXPECT_EQ(lm.HeldMode(2, table), LockMode::kX);
}

TEST(LockFairnessTest, SupremumUpgradePreservedAcrossRequests) {
  LockManager lm;
  Oid oid(1);
  ASSERT_TRUE(lm.Lock(1, oid, LockMode::kIX).ok());
  ASSERT_TRUE(lm.Lock(1, oid, LockMode::kS).ok());  // sup = SIX
  EXPECT_EQ(lm.HeldMode(1, oid), LockMode::kSIX);
  // Downgrade requests are no-ops (sup(SIX, IS) = SIX).
  ASSERT_TRUE(lm.Lock(1, oid, LockMode::kIS).ok());
  EXPECT_EQ(lm.HeldMode(1, oid), LockMode::kSIX);
}

}  // namespace
}  // namespace idba
