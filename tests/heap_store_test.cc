#include "storage/heap_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>
#include <tuple>

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

// Objects for the reference index: slot 0 a payload string, slot 1 the
// indexed Parent reference, slot 2 a reference list (never indexed).
DatabaseObject MakeRefObj(uint64_t oid, ClassId cls, uint64_t parent,
                          const std::string& payload = "r") {
  DatabaseObject obj(Oid(oid), cls, 3);
  obj.Set(0, Value(payload));
  obj.Set(1, Value(Oid(parent)));
  obj.Set(2, Value(std::vector<Oid>{Oid(parent), Oid(oid)}));
  return obj;
}

TEST_F(HeapStoreTest, ReferrersIndexInsertedReferences) {
  ASSERT_TRUE(store_->Insert(MakeRefObj(1, 7, 100)).ok());
  ASSERT_TRUE(store_->Insert(MakeRefObj(2, 7, 200)).ok());
  ASSERT_TRUE(store_->Insert(MakeRefObj(3, 7, 100)).ok());
  ASSERT_TRUE(store_->Insert(MakeRefObj(4, 8, 100)).ok());
  ASSERT_TRUE(store_->Insert(MakeRefObj(5, 7, 0)).ok());
  EXPECT_EQ(store_->Referrers(7, 1, Oid(100)), Oids({1, 3}));
  EXPECT_EQ(store_->Referrers(7, 1, Oid(200)), Oids({2}));
  EXPECT_EQ(store_->Referrers(8, 1, Oid(100)), Oids({4}));
  EXPECT_EQ(store_->Referrers(7, 1, kNullOid), Oids({5}));  // null is indexed
  EXPECT_TRUE(store_->Referrers(7, 1, Oid(300)).empty());
  // Neither list elements nor non-OID slots are references.
  EXPECT_TRUE(store_->Referrers(7, 2, Oid(100)).empty());
  EXPECT_TRUE(store_->Referrers(7, 0, Oid(100)).empty());
}

TEST_F(HeapStoreTest, ReferrersFollowInPlaceUpdates) {
  for (uint64_t i = 1; i <= 4; ++i) {
    ASSERT_TRUE(store_->Insert(MakeRefObj(i, 7, 100, "long payload")).ok());
  }
  PageId pages = store_->data_page_count();
  ASSERT_TRUE(store_->Update(MakeRefObj(2, 7, 100, "short")).ok());  // same ref
  ASSERT_TRUE(store_->Update(MakeRefObj(3, 7, 200, "short")).ok());  // changed
  EXPECT_EQ(store_->data_page_count(), pages);
  EXPECT_EQ(store_->Referrers(7, 1, Oid(100)), Oids({1, 2, 4}));
  EXPECT_EQ(store_->Referrers(7, 1, Oid(200)), Oids({3}));
  ASSERT_TRUE(store_->Update(MakeRefObj(3, 7, 100, "back")).ok());
  EXPECT_EQ(store_->Referrers(7, 1, Oid(100)), Oids({1, 2, 3, 4}));
  EXPECT_TRUE(store_->Referrers(7, 1, Oid(200)).empty());
}

TEST_F(HeapStoreTest, ReferrersFollowRelocatingUpdates) {
  std::string payload(900, 'p');
  for (uint64_t i = 1; i <= 4; ++i) {
    ASSERT_TRUE(store_->Insert(MakeRefObj(i, 7, 100, payload)).ok());
  }
  PageId pages = store_->data_page_count();
  ASSERT_TRUE(store_->Update(MakeRefObj(2, 7, 100, std::string(3000, 'q'))).ok());
  EXPECT_GT(store_->data_page_count(), pages);  // 2 relocated, same ref
  pages = store_->data_page_count();
  ASSERT_TRUE(store_->Update(MakeRefObj(3, 7, 200, std::string(3000, 'q'))).ok());
  EXPECT_GT(store_->data_page_count(), pages);  // 3 relocated, new ref
  EXPECT_EQ(store_->Referrers(7, 1, Oid(100)), Oids({1, 2, 4}));
  EXPECT_EQ(store_->Referrers(7, 1, Oid(200)), Oids({3}));
}

TEST_F(HeapStoreTest, ClassChangingUpdateMovesTheReferences) {
  std::string payload(900, 'p');
  for (uint64_t i = 1; i <= 4; ++i) {
    ASSERT_TRUE(store_->Insert(MakeRefObj(i, 7, 100, payload)).ok());
  }
  PageId pages = store_->data_page_count();
  ASSERT_TRUE(store_->Update(MakeRefObj(2, 8, 100, "in place")).ok());
  ASSERT_TRUE(store_->Update(MakeRefObj(4, 9, 200, std::string(3000, 'r'))).ok());
  EXPECT_GT(store_->data_page_count(), pages);  // 4 relocated
  EXPECT_EQ(store_->Referrers(7, 1, Oid(100)), Oids({1, 3}));
  EXPECT_EQ(store_->Referrers(8, 1, Oid(100)), Oids({2}));
  EXPECT_EQ(store_->Referrers(9, 1, Oid(200)), Oids({4}));
  EXPECT_TRUE(store_->Referrers(7, 1, Oid(200)).empty());
  EXPECT_TRUE(store_->Referrers(9, 1, Oid(100)).empty());
}

TEST_F(HeapStoreTest, EraseDropsTheReferences) {
  for (uint64_t i = 1; i <= 4; ++i) {
    ASSERT_TRUE(store_->Insert(MakeRefObj(i, 7, 100)).ok());
  }
  ASSERT_TRUE(store_->Erase(Oid(2)).ok());
  EXPECT_EQ(store_->Referrers(7, 1, Oid(100)), Oids({1, 3, 4}));
  for (uint64_t i : {1, 3, 4}) ASSERT_TRUE(store_->Erase(Oid(i)).ok());
  EXPECT_TRUE(store_->Referrers(7, 1, Oid(100)).empty());
  // A later insert under the same key starts a fresh list.
  ASSERT_TRUE(store_->Insert(MakeRefObj(9, 7, 100)).ok());
  EXPECT_EQ(store_->Referrers(7, 1, Oid(100)), Oids({9}));
}

TEST_F(HeapStoreTest, FailedRelocationDropsTheReferences) {
  // One frame, pinned by the test: the relocation needs a fresh page and
  // there is no frame to put it in.
  MemDisk disk;
  BufferPool pool(&disk, {.frame_count = 1});
  auto store = std::move(HeapStore::Open(&pool, 0).value());
  std::string payload(900, 'p');
  for (uint64_t i = 1; i <= 4; ++i) {
    ASSERT_TRUE(store->Insert(MakeRefObj(i, 7, 100, payload)).ok());
  }
  ASSERT_EQ(store->data_page_count(), 1u);
  auto pin = pool.FetchPage(0);
  ASSERT_TRUE(pin.ok());
  EXPECT_FALSE(store->Update(MakeRefObj(2, 7, 200, std::string(3000, 'q'))).ok());
  // The old image is gone with the directory entry, and so are its extent
  // membership and its references.
  EXPECT_FALSE(store->Contains(Oid(2)));
  EXPECT_EQ(store->ScanClass(7).value(), Oids({1, 3, 4}));
  EXPECT_EQ(store->Referrers(7, 1, Oid(100)), Oids({1, 3, 4}));
  EXPECT_TRUE(store->Referrers(7, 1, Oid(200)).empty());
}

TEST_F(HeapStoreTest, ReferrersTouchNoPage) {
  for (uint64_t i = 1; i <= 120; ++i) {
    ASSERT_TRUE(store_->Insert(MakeRefObj(i, 1, 1000 + i % 3, std::string(600, 's'))).ok());
  }
  ASSERT_GT(store_->data_page_count(), 16u);  // more pages than frames
  const uint64_t hits = pool_.hits();
  const uint64_t misses = pool_.misses();
  for (uint64_t target = 1000; target < 1003; ++target) {
    EXPECT_EQ(store_->Referrers(1, 1, Oid(target)).size(), 40u);
  }
  EXPECT_EQ(pool_.hits(), hits);
  EXPECT_EQ(pool_.misses(), misses);
}

TEST_F(HeapStoreTest, ReadVersionDecodesOnlyTheHeader) {
  DatabaseObject obj = MakeRefObj(1, 7, 100);
  obj.set_version(41);
  ASSERT_TRUE(store_->Insert(obj).ok());
  EXPECT_EQ(store_->ReadVersion(Oid(1)).value(), 41u);
  EXPECT_EQ(store_->ReadVersion(Oid(404)).status().code(), StatusCode::kNotFound);
  // Same page fetch as Read, so the same miss accounting.
  ASSERT_TRUE(pool_.FlushAll().ok());
  pool_.DropAllNoFlush();
  IoStats io;
  ASSERT_TRUE(store_->ReadVersion(Oid(1), &io).ok());
  EXPECT_EQ(io.page_misses, 1);
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

TEST_F(HeapStoreTest, ReopenRebuildsReferrers) {
  std::string payload(300, 'd');
  for (uint64_t i = 1; i <= 50; ++i) {
    ASSERT_TRUE(store_->Insert(MakeRefObj(i, 1 + i % 2, 100 + i % 5, payload)).ok());
  }
  ASSERT_TRUE(store_->Erase(Oid(26)).ok());
  ASSERT_TRUE(store_->Update(MakeRefObj(7, 3, 100, payload)).ok());
  ASSERT_TRUE(store_->Update(MakeRefObj(9, 3, 0, std::string(2000, 'g'))).ok());
  ASSERT_TRUE(store_->Update(MakeRefObj(11, 2, 104, payload)).ok());
  ASSERT_TRUE(pool_.FlushAll().ok());

  BufferPool pool2(&disk_, {.frame_count = 16});
  auto store2 = HeapStore::Open(&pool2, store_->data_page_count());
  ASSERT_TRUE(store2.ok());
  for (ClassId cls = 1; cls <= 4; ++cls) {
    for (uint64_t target : {0, 100, 101, 102, 103, 104}) {
      EXPECT_EQ(store2.value()->Referrers(cls, 1, Oid(target)),
                store_->Referrers(cls, 1, Oid(target)))
          << "class " << cls << " target " << target;
    }
  }
  EXPECT_EQ(store2.value()->Referrers(3, 1, Oid(100)), Oids({7}));
  EXPECT_EQ(store2.value()->Referrers(3, 1, kNullOid), Oids({9}));
  EXPECT_EQ(store2.value()->Referrers(2, 1, Oid(102)), Oids({17, 27, 37, 47}));
}

TEST_F(HeapStoreTest, ReopenKeepsTheReferencesOfTheLastImage) {
  // A relocation whose tombstone never reached disk leaves two images of an
  // OID on disk; the page scanned later wins, for its references too.
  auto write_page = [&](PageId id, const DatabaseObject& obj) {
    std::vector<uint8_t> bytes;
    Encoder enc(&bytes);
    obj.EncodeTo(&enc);
    PageData data;
    SlottedPage page(&data);
    page.Init();
    ASSERT_TRUE(page.Insert(bytes.data(), bytes.size()).ok());
    ASSERT_TRUE(disk_.WritePage(id, data).ok());
  };
  write_page(0, MakeRefObj(5, 7, 100));
  write_page(1, MakeRefObj(5, 9, 200));
  auto store = HeapStore::Open(&pool_, 2);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store.value()->Read(Oid(5)).value().class_id(), 9u);
  EXPECT_EQ(store.value()->Referrers(9, 1, Oid(200)), Oids({5}));
  EXPECT_TRUE(store.value()->Referrers(7, 1, Oid(100)).empty());
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
  constexpr uint64_t kTargets = 5;  // reference targets 1..5, plus null
  // Slot 0 the payload; slots 1 and 2 each hold a reference, a reference
  // list (not indexed) or null, drawn at random.
  struct Entry {
    ClassId cls;
    std::string payload;
    Value refs[2];
  };
  auto draw_ref = [&]() -> Value {
    Oid target(rng.NextBelow(kTargets + 1));
    switch (rng.NextBelow(4)) {
      case 0: return Value(std::vector<Oid>{target});
      case 1: return Value();
      default: return Value(target);
    }
  };
  auto make = [](uint64_t oid, const Entry& e) {
    DatabaseObject obj(Oid(oid), e.cls, 3);
    obj.Set(0, Value(e.payload));
    obj.Set(1, e.refs[0]);
    obj.Set(2, e.refs[1]);
    return obj;
  };
  std::unordered_map<uint64_t, Entry> model;
  uint64_t next_oid = 1;
  for (int op = 0; op < 2000; ++op) {
    double dice = rng.NextDouble();
    // Updates draw a class too, so most of them change the object's class.
    ClassId cls = 1 + static_cast<ClassId>(rng.NextBelow(kClasses));
    if (dice < 0.5) {
      Entry e{cls, std::string(rng.NextBelow(600), static_cast<char>('a' + rng.NextBelow(26))),
              {draw_ref(), draw_ref()}};
      uint64_t oid = next_oid++;
      ASSERT_TRUE(store->Insert(make(oid, e)).ok());
      model[oid] = e;
    } else if (dice < 0.8 && !model.empty()) {
      auto it = model.begin();
      std::advance(it, rng.NextBelow(model.size()));
      Entry e{cls, std::string(rng.NextBelow(900), 'U'), {draw_ref(), draw_ref()}};
      ASSERT_TRUE(store->Update(make(it->first, e)).ok());
      it->second = e;
    } else if (!model.empty()) {
      auto it = model.begin();
      std::advance(it, rng.NextBelow(model.size()));
      ASSERT_TRUE(store->Erase(Oid(it->first)).ok());
      model.erase(it);
    }
  }
  EXPECT_EQ(store->object_count(), model.size());
  std::map<ClassId, std::vector<Oid>> extents;
  // (class, slot, target) -> referrers, filled in ascending OID order.
  std::map<std::tuple<ClassId, uint32_t, uint64_t>, std::vector<Oid>> referrers;
  std::vector<uint64_t> oids;
  for (const auto& [oid, entry] : model) oids.push_back(oid);
  std::sort(oids.begin(), oids.end());
  for (uint64_t oid : oids) {
    const Entry& entry = model[oid];
    auto obj = store->Read(Oid(oid));
    ASSERT_TRUE(obj.ok()) << oid;
    EXPECT_EQ(obj.value(), make(oid, entry));
    extents[entry.cls].push_back(Oid(oid));
    for (uint32_t slot : {1u, 2u}) {
      const Value& ref = entry.refs[slot - 1];
      if (ref.type() == ValueType::kOid) {
        referrers[{entry.cls, slot, ref.AsOid().value}].push_back(Oid(oid));
      }
    }
  }
  for (ClassId cls = 1; cls <= kClasses; ++cls) {
    EXPECT_EQ(store->ScanClass(cls).value(), extents[cls]) << "class " << cls;
    for (uint32_t slot = 0; slot <= 2; ++slot) {
      for (uint64_t target = 0; target <= kTargets; ++target) {
        EXPECT_EQ(store->Referrers(cls, slot, Oid(target)),
                  referrers[std::make_tuple(cls, slot, target)])
            << "class " << cls << " slot " << slot << " target " << target;
      }
    }
  }
}

}  // namespace
}  // namespace idba
