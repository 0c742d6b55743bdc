#include "storage/heap_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>

#include "common/rng.h"

namespace idba {
namespace {

DatabaseObject MakeObj(uint64_t oid, ClassId cls, const std::string& payload) {
  DatabaseObject obj(Oid(oid), cls, 2);
  obj.Set(0, Value(payload));
  obj.Set(1, Value(static_cast<int64_t>(oid)));
  return obj;
}

class HeapStoreTest : public ::testing::Test {
 protected:
  HeapStoreTest() : pool_(&disk_, {.frame_count = 16}) {
    store_ = std::move(HeapStore::Open(&pool_, 0).value());
  }
  MemDisk disk_;
  BufferPool pool_;
  std::unique_ptr<HeapStore> store_;
};

TEST_F(HeapStoreTest, InsertReadRoundTrip) {
  ASSERT_TRUE(store_->Insert(MakeObj(1, 1, "hello")).ok());
  auto obj = store_->Read(Oid(1));
  ASSERT_TRUE(obj.ok());
  EXPECT_EQ(obj.value().Get(0), Value("hello"));
  EXPECT_TRUE(store_->Contains(Oid(1)));
  EXPECT_EQ(store_->object_count(), 1u);
}

TEST_F(HeapStoreTest, DuplicateInsertRejected) {
  ASSERT_TRUE(store_->Insert(MakeObj(1, 1, "a")).ok());
  EXPECT_EQ(store_->Insert(MakeObj(1, 1, "b")).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(HeapStoreTest, ReadMissingIsNotFound) {
  EXPECT_EQ(store_->Read(Oid(404)).status().code(), StatusCode::kNotFound);
}

TEST_F(HeapStoreTest, UpdateInPlace) {
  ASSERT_TRUE(store_->Insert(MakeObj(1, 1, "aaaa")).ok());
  ASSERT_TRUE(store_->Update(MakeObj(1, 1, "bbbb")).ok());
  EXPECT_EQ(store_->Read(Oid(1)).value().Get(0), Value("bbbb"));
}

TEST_F(HeapStoreTest, UpdateGrowingRelocates) {
  // Fill a page almost fully, then grow one object so it must relocate.
  std::string payload(900, 'p');
  for (uint64_t i = 1; i <= 4; ++i) {
    ASSERT_TRUE(store_->Insert(MakeObj(i, 1, payload)).ok());
  }
  std::string bigger(2000, 'q');
  ASSERT_TRUE(store_->Update(MakeObj(2, 1, bigger)).ok());
  EXPECT_EQ(store_->Read(Oid(2)).value().Get(0), Value(bigger));
  // Everything else unharmed.
  for (uint64_t i : {1, 3, 4}) {
    EXPECT_EQ(store_->Read(Oid(i)).value().Get(0), Value(payload));
  }
}

TEST_F(HeapStoreTest, EraseRemoves) {
  ASSERT_TRUE(store_->Insert(MakeObj(1, 1, "x")).ok());
  ASSERT_TRUE(store_->Erase(Oid(1)).ok());
  EXPECT_FALSE(store_->Contains(Oid(1)));
  EXPECT_EQ(store_->Erase(Oid(1)).code(), StatusCode::kNotFound);
  EXPECT_EQ(store_->object_count(), 0u);
}

TEST_F(HeapStoreTest, ScanClassFiltersExactClass) {
  ASSERT_TRUE(store_->Insert(MakeObj(1, 7, "a")).ok());
  ASSERT_TRUE(store_->Insert(MakeObj(2, 8, "b")).ok());
  ASSERT_TRUE(store_->Insert(MakeObj(3, 7, "c")).ok());
  auto oids = store_->ScanClass(7);
  ASSERT_TRUE(oids.ok());
  EXPECT_EQ(oids.value(), (std::vector<Oid>{Oid(1), Oid(3)}));
}

std::vector<Oid> Oids(std::initializer_list<uint64_t> ids) {
  std::vector<Oid> out;
  for (uint64_t id : ids) out.push_back(Oid(id));
  return out;
}

TEST_F(HeapStoreTest, ScanClassDropsErasedObjects) {
  for (uint64_t i = 1; i <= 4; ++i) {
    ASSERT_TRUE(store_->Insert(MakeObj(i, 7, "x")).ok());
  }
  ASSERT_TRUE(store_->Erase(Oid(2)).ok());
  EXPECT_EQ(store_->ScanClass(7).value(), Oids({1, 3, 4}));
  for (uint64_t i : {1, 3, 4}) ASSERT_TRUE(store_->Erase(Oid(i)).ok());
  EXPECT_TRUE(store_->ScanClass(7).value().empty());
}

TEST_F(HeapStoreTest, ScanClassKeepsMembersAcrossUpdates) {
  std::string payload(900, 'p');
  for (uint64_t i = 1; i <= 4; ++i) {
    ASSERT_TRUE(store_->Insert(MakeObj(i, 7, payload)).ok());
  }
  PageId pages = store_->data_page_count();
  ASSERT_TRUE(store_->Update(MakeObj(1, 7, "short")).ok());  // in place
  EXPECT_EQ(store_->data_page_count(), pages);
  ASSERT_TRUE(store_->Update(MakeObj(3, 7, std::string(3000, 'q'))).ok());
  EXPECT_GT(store_->data_page_count(), pages);  // relocated to a fresh page
  ASSERT_TRUE(store_->Insert(MakeObj(5, 8, "b")).ok());
  EXPECT_EQ(store_->ScanClass(7).value(), Oids({1, 2, 3, 4}));
  EXPECT_EQ(store_->ScanClass(8).value(), Oids({5}));
}

TEST_F(HeapStoreTest, ClassChangingUpdateMovesTheOid) {
  std::string payload(900, 'p');
  for (uint64_t i = 1; i <= 4; ++i) {
    ASSERT_TRUE(store_->Insert(MakeObj(i, 7, payload)).ok());
  }
  PageId pages = store_->data_page_count();
  ASSERT_TRUE(store_->Update(MakeObj(2, 8, "in place")).ok());
  ASSERT_TRUE(store_->Update(MakeObj(4, 9, std::string(3000, 'r'))).ok());
  EXPECT_GT(store_->data_page_count(), pages);  // 4 relocated
  EXPECT_EQ(store_->ScanClass(7).value(), Oids({1, 3}));
  EXPECT_EQ(store_->ScanClass(8).value(), Oids({2}));
  EXPECT_EQ(store_->ScanClass(9).value(), Oids({4}));
  ASSERT_TRUE(store_->Update(MakeObj(2, 7, "back")).ok());
  EXPECT_EQ(store_->ScanClass(7).value(), Oids({1, 2, 3}));
  EXPECT_TRUE(store_->ScanClass(8).value().empty());
}

TEST_F(HeapStoreTest, ScanClassTouchesNoPage) {
  std::string payload(600, 's');
  for (uint64_t i = 1; i <= 120; ++i) {
    ASSERT_TRUE(store_->Insert(MakeObj(i, 1 + i % 3, payload)).ok());
  }
  ASSERT_GT(store_->data_page_count(), 16u);  // more pages than frames
  const uint64_t hits = pool_.hits();
  const uint64_t misses = pool_.misses();
  const uint64_t reads = disk_.reads();
  for (ClassId cls = 1; cls <= 3; ++cls) {
    EXPECT_EQ(store_->ScanClass(cls).value().size(), 40u);
  }
  EXPECT_EQ(pool_.hits(), hits);
  EXPECT_EQ(pool_.misses(), misses);
  EXPECT_EQ(disk_.reads(), reads);
}

TEST_F(HeapStoreTest, ScanClassDuringInsertsAndErases) {
  // Class 1 holds a fixed set; a writer churns class 2 next to it. Every
  // scan sees all of class 1, and each class-2 scan is a sorted snapshot
  // with no OID of another class.
  for (uint64_t i = 1; i <= 50; ++i) {
    ASSERT_TRUE(store_->Insert(MakeObj(i, 1, "stable")).ok());
  }
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (uint64_t i = 1000; i < 1400; ++i) {
      EXPECT_TRUE(store_->Insert(MakeObj(i, 2, "churn")).ok());
      if (i % 2 == 1) {
        EXPECT_TRUE(store_->Erase(Oid(i - 1)).ok());
      }
    }
    done.store(true);
  });
  int scans = 0;
  while (!done.load() || scans < 10) {
    auto stable = store_->ScanClass(1);
    ASSERT_TRUE(stable.ok());
    EXPECT_EQ(stable.value().size(), 50u);
    auto churn = store_->ScanClass(2);
    ASSERT_TRUE(churn.ok());
    EXPECT_TRUE(std::is_sorted(churn.value().begin(), churn.value().end()));
    for (Oid oid : churn.value()) EXPECT_GE(oid.value, 1000u);
    ++scans;
  }
  writer.join();
  auto churn = store_->ScanClass(2).value();
  EXPECT_EQ(churn.size(), 200u);  // the odd OIDs survive
  for (Oid oid : churn) EXPECT_EQ(oid.value % 2, 1u);
}

TEST_F(HeapStoreTest, ManyObjectsSpanPages) {
  std::string payload(500, 'm');
  for (uint64_t i = 1; i <= 100; ++i) {
    ASSERT_TRUE(store_->Insert(MakeObj(i, 1, payload)).ok());
  }
  EXPECT_GT(store_->data_page_count(), 10u);
  for (uint64_t i = 1; i <= 100; ++i) {
    ASSERT_TRUE(store_->Read(Oid(i)).ok()) << i;
  }
}

TEST_F(HeapStoreTest, ReopenRebuildsDirectory) {
  std::string payload(300, 'd');
  for (uint64_t i = 1; i <= 50; ++i) {
    ASSERT_TRUE(store_->Insert(MakeObj(i, 1, payload)).ok());
  }
  ASSERT_TRUE(store_->Erase(Oid(25)).ok());
  PageId pages = store_->data_page_count();
  ASSERT_TRUE(pool_.FlushAll().ok());

  BufferPool pool2(&disk_, {.frame_count = 16});
  auto store2 = HeapStore::Open(&pool2, pages);
  ASSERT_TRUE(store2.ok());
  EXPECT_EQ(store2.value()->object_count(), 49u);
  EXPECT_FALSE(store2.value()->Contains(Oid(25)));
  EXPECT_EQ(store2.value()->Read(Oid(7)).value().Get(0), Value(payload));
}

TEST_F(HeapStoreTest, ReopenRebuildsClassExtents) {
  std::string payload(300, 'd');
  for (uint64_t i = 1; i <= 50; ++i) {
    ASSERT_TRUE(store_->Insert(MakeObj(i, 1 + i % 2, payload)).ok());
  }
  ASSERT_TRUE(store_->Erase(Oid(26)).ok());
  ASSERT_TRUE(store_->Update(MakeObj(7, 3, payload)).ok());
  ASSERT_TRUE(store_->Update(MakeObj(9, 3, std::string(2000, 'g'))).ok());
  ASSERT_TRUE(pool_.FlushAll().ok());

  BufferPool pool2(&disk_, {.frame_count = 16});
  auto store2 = HeapStore::Open(&pool2, store_->data_page_count());
  ASSERT_TRUE(store2.ok());
  for (ClassId cls = 1; cls <= 4; ++cls) {
    EXPECT_EQ(store2.value()->ScanClass(cls).value(),
              store_->ScanClass(cls).value())
        << "class " << cls;
  }
  EXPECT_EQ(store2.value()->ScanClass(3).value(), Oids({7, 9}));
}

TEST_F(HeapStoreTest, IoStatsCountMisses) {
  ASSERT_TRUE(store_->Insert(MakeObj(1, 1, "x")).ok());
  ASSERT_TRUE(pool_.FlushAll().ok());
  pool_.DropAllNoFlush();
  IoStats io;
  ASSERT_TRUE(store_->Read(Oid(1), &io).ok());
  EXPECT_EQ(io.page_misses, 1);
  io = IoStats{};
  ASSERT_TRUE(store_->Read(Oid(1), &io).ok());
  EXPECT_EQ(io.page_misses, 0);
}

TEST_F(HeapStoreTest, OversizedObjectRejected) {
  EXPECT_EQ(store_->Insert(MakeObj(1, 1, std::string(5000, 'x'))).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(HeapStoreTest, EraseMakesSpaceReusable) {
  std::string payload(1000, 'e');
  for (uint64_t i = 1; i <= 30; ++i) {
    ASSERT_TRUE(store_->Insert(MakeObj(i, 1, payload)).ok());
  }
  PageId pages_before = store_->data_page_count();
  for (uint64_t i = 1; i <= 30; ++i) ASSERT_TRUE(store_->Erase(Oid(i)).ok());
  for (uint64_t i = 31; i <= 60; ++i) {
    ASSERT_TRUE(store_->Insert(MakeObj(i, 1, payload)).ok());
  }
  // Space was reused: page count grew by at most a little.
  EXPECT_LE(store_->data_page_count(), pages_before + 2);
}

TEST(HeapStorePropertyTest, RandomWorkloadMatchesModel) {
  MemDisk disk;
  BufferPool pool(&disk, {.frame_count = 32});
  auto store = std::move(HeapStore::Open(&pool, 0).value());
  Rng rng(777);
  constexpr ClassId kClasses = 4;
  struct Entry {
    ClassId cls;
    std::string payload;
  };
  std::unordered_map<uint64_t, Entry> model;
  uint64_t next_oid = 1;
  for (int op = 0; op < 2000; ++op) {
    double dice = rng.NextDouble();
    // Updates draw a class too, so most of them change the object's class.
    ClassId cls = 1 + static_cast<ClassId>(rng.NextBelow(kClasses));
    if (dice < 0.5) {
      std::string payload(rng.NextBelow(600), static_cast<char>('a' + rng.NextBelow(26)));
      uint64_t oid = next_oid++;
      ASSERT_TRUE(store->Insert(MakeObj(oid, cls, payload)).ok());
      model[oid] = {cls, payload};
    } else if (dice < 0.8 && !model.empty()) {
      auto it = model.begin();
      std::advance(it, rng.NextBelow(model.size()));
      std::string payload(rng.NextBelow(900), 'U');
      ASSERT_TRUE(store->Update(MakeObj(it->first, cls, payload)).ok());
      it->second = {cls, payload};
    } else if (!model.empty()) {
      auto it = model.begin();
      std::advance(it, rng.NextBelow(model.size()));
      ASSERT_TRUE(store->Erase(Oid(it->first)).ok());
      model.erase(it);
    }
  }
  EXPECT_EQ(store->object_count(), model.size());
  std::map<ClassId, std::vector<Oid>> extents;
  for (const auto& [oid, entry] : model) {
    auto obj = store->Read(Oid(oid));
    ASSERT_TRUE(obj.ok()) << oid;
    EXPECT_EQ(obj.value().class_id(), entry.cls);
    EXPECT_EQ(obj.value().Get(0), Value(entry.payload));
    extents[entry.cls].push_back(Oid(oid));
  }
  for (ClassId cls = 1; cls <= kClasses; ++cls) {
    std::vector<Oid>& want = extents[cls];
    std::sort(want.begin(), want.end());
    EXPECT_EQ(store->ScanClass(cls).value(), want) << "class " << cls;
  }
}

}  // namespace
}  // namespace idba
