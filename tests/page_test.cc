#include "storage/page.h"

#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"

namespace idba {
namespace {

std::vector<uint8_t> Rec(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

std::string Str(std::span<const uint8_t> v) {
  return std::string(v.begin(), v.end());
}

TEST(SlottedPageTest, InsertAndRead) {
  PageData data;
  SlottedPage page(&data);
  page.Init();
  auto a = page.Insert(Rec("alpha").data(), 5);
  auto b = page.Insert(Rec("bravo!").data(), 6);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a.value(), b.value());
  EXPECT_EQ(Str(page.Read(a.value()).value()), "alpha");
  EXPECT_EQ(Str(page.Read(b.value()).value()), "bravo!");
  EXPECT_EQ(page.slot_count(), 2);
}

TEST(SlottedPageTest, ReadBadSlotIsNotFound) {
  PageData data;
  SlottedPage page(&data);
  page.Init();
  EXPECT_EQ(page.Read(0).status().code(), StatusCode::kNotFound);
}

TEST(SlottedPageTest, UpdateInPlaceAndShrink) {
  PageData data;
  SlottedPage page(&data);
  page.Init();
  SlotId s = page.Insert(Rec("longrecord").data(), 10).value();
  ASSERT_TRUE(page.Update(s, Rec("short").data(), 5).ok());
  EXPECT_EQ(Str(page.Read(s).value()), "short");
}

TEST(SlottedPageTest, UpdateGrowRelocatesWithinPage) {
  PageData data;
  SlottedPage page(&data);
  page.Init();
  SlotId s = page.Insert(Rec("ab").data(), 2).value();
  SlotId t = page.Insert(Rec("cd").data(), 2).value();
  std::string big(100, 'G');
  ASSERT_TRUE(page.Update(s, Rec(big).data(), big.size()).ok());
  EXPECT_EQ(Str(page.Read(s).value()), big);
  EXPECT_EQ(Str(page.Read(t).value()), "cd");  // neighbor untouched
}

TEST(SlottedPageTest, EraseThenSlotReuse) {
  PageData data;
  SlottedPage page(&data);
  page.Init();
  SlotId a = page.Insert(Rec("one").data(), 3).value();
  SlotId b = page.Insert(Rec("two").data(), 3).value();
  ASSERT_TRUE(page.Erase(a).ok());
  EXPECT_EQ(page.Read(a).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(page.Erase(a).code(), StatusCode::kNotFound);  // double erase
  SlotId c = page.Insert(Rec("three").data(), 5).value();
  EXPECT_EQ(c, a);  // tombstoned slot id reused
  EXPECT_EQ(Str(page.Read(b).value()), "two");
  EXPECT_EQ(Str(page.Read(c).value()), "three");
}

TEST(SlottedPageTest, FillsUntilBusyThenCompactReclaims) {
  PageData data;
  SlottedPage page(&data);
  page.Init();
  std::vector<SlotId> slots;
  std::string rec(100, 'r');
  for (;;) {
    auto s = page.Insert(Rec(rec).data(), rec.size());
    if (!s.ok()) {
      EXPECT_TRUE(s.status().IsBusy());
      break;
    }
    slots.push_back(s.value());
  }
  EXPECT_GT(slots.size(), 30u);  // ~4KB / 104B
  // Erase half, compaction (inside Insert) must make room again.
  for (size_t i = 0; i < slots.size(); i += 2) ASSERT_TRUE(page.Erase(slots[i]).ok());
  auto s = page.Insert(Rec(rec).data(), rec.size());
  EXPECT_TRUE(s.ok());
}

TEST(SlottedPageTest, LsnRoundTrips) {
  PageData data;
  SlottedPage page(&data);
  page.Init();
  EXPECT_EQ(page.lsn(), 0u);
  page.set_lsn(0xFEEDFACE12345678ULL);
  EXPECT_EQ(page.lsn(), 0xFEEDFACE12345678ULL);
}

TEST(SlottedPageTest, LiveRecordsSkipsTombstones) {
  PageData data;
  SlottedPage page(&data);
  page.Init();
  SlotId a = page.Insert(Rec("aa").data(), 2).value();
  page.Insert(Rec("bb").data(), 2).value();
  ASSERT_TRUE(page.Erase(a).ok());
  auto live = page.LiveRecords();
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(Str(live[0].second), "bb");
}

TEST(SlottedPageProperty, RandomOpsPreserveContents) {
  Rng rng(2024);
  for (int round = 0; round < 20; ++round) {
    PageData data;
    SlottedPage page(&data);
    page.Init();
    std::map<SlotId, std::string> model;
    for (int op = 0; op < 300; ++op) {
      double dice = rng.NextDouble();
      if (dice < 0.5) {
        std::string rec(1 + rng.NextBelow(120), static_cast<char>('a' + rng.NextBelow(26)));
        auto s = page.Insert(reinterpret_cast<const uint8_t*>(rec.data()), rec.size());
        if (s.ok()) model[s.value()] = rec;
      } else if (dice < 0.75 && !model.empty()) {
        auto it = model.begin();
        std::advance(it, rng.NextBelow(model.size()));
        std::string rec(1 + rng.NextBelow(150), 'U');
        if (page.Update(it->first, reinterpret_cast<const uint8_t*>(rec.data()),
                        rec.size()).ok()) {
          it->second = rec;
        }
      } else if (!model.empty()) {
        auto it = model.begin();
        std::advance(it, rng.NextBelow(model.size()));
        ASSERT_TRUE(page.Erase(it->first).ok());
        model.erase(it);
      }
    }
    // The page must agree with the model exactly.
    auto live = page.LiveRecords();
    ASSERT_EQ(live.size(), model.size());
    for (const auto& [slot, bytes] : live) {
      ASSERT_TRUE(model.count(slot));
      EXPECT_EQ(Str(bytes), model[slot]);
    }
  }
}

}  // namespace
}  // namespace idba
