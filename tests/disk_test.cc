#include "storage/disk.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"

namespace idba {
namespace {

PageData MakePage(uint8_t fill) {
  PageData p;
  std::memset(p.bytes, fill, kPageSize);
  return p;
}

struct CrcVector {
  std::string name;
  std::vector<uint8_t> data;
  uint32_t crc;
};

// RFC 3720 appendix B.4, plus the common "123456789" check value.
std::vector<CrcVector> Rfc3720Vectors() {
  std::vector<uint8_t> ascending(32), descending(32);
  for (int i = 0; i < 32; ++i) {
    ascending[i] = static_cast<uint8_t>(i);
    descending[i] = static_cast<uint8_t>(31 - i);
  }
  const std::string digits = "123456789";
  return {
      {"32 x 0x00", std::vector<uint8_t>(32, 0x00), 0x8A9136AAu},
      {"32 x 0xFF", std::vector<uint8_t>(32, 0xFF), 0x62A8AB43u},
      {"bytes 0..31", ascending, 0x46DD794Eu},
      {"bytes 31..0", descending, 0x113FDB5Cu},
      {"123456789", std::vector<uint8_t>(digits.begin(), digits.end()),
       0xE3069283u},
  };
}

TEST(Crc32cTest, TableKernelMatchesRfc3720Vectors) {
  for (const CrcVector& v : Rfc3720Vectors()) {
    EXPECT_EQ(crc32c_internal::Table(v.data.data(), v.data.size()), v.crc)
        << v.name;
  }
}

TEST(Crc32cTest, HardwareKernelMatchesRfc3720Vectors) {
  if (!crc32c_internal::HardwareAvailable()) GTEST_SKIP() << "no SSE4.2";
  for (const CrcVector& v : Rfc3720Vectors()) {
    EXPECT_EQ(crc32c_internal::Hardware(v.data.data(), v.data.size()), v.crc)
        << v.name;
  }
}

TEST(Crc32cTest, DispatchedCrcMatchesRfc3720Vectors) {
  for (const CrcVector& v : Rfc3720Vectors()) {
    EXPECT_EQ(Crc32c(v.data.data(), v.data.size()), v.crc) << v.name;
  }
}

TEST(Crc32cTest, KernelsAgreeOnEveryLengthAtUnalignedOffsets) {
  if (!crc32c_internal::HardwareAvailable()) GTEST_SKIP() << "no SSE4.2";
  Rng rng(3720);
  std::vector<uint8_t> buf(kPageSize + 16);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.NextU64());
  for (size_t len = 0; len <= kPageSize; ++len) {
    const uint8_t* p = buf.data() + 1 + len % 15;  // never 8-byte aligned
    ASSERT_EQ(crc32c_internal::Hardware(p, len), crc32c_internal::Table(p, len))
        << "len " << len;
  }
}

TEST(MemDiskTest, ReadBackWhatWasWritten) {
  MemDisk disk;
  ASSERT_TRUE(disk.WritePage(3, MakePage(0xAA)).ok());
  PageData out;
  ASSERT_TRUE(disk.ReadPage(3, &out).ok());
  // Bytes [0, kPageCrcSize) hold the page checksum; payload starts after.
  EXPECT_EQ(out.bytes[kPageCrcSize], 0xAA);
  EXPECT_EQ(out.bytes[kPageSize - 1], 0xAA);
}

TEST(MemDiskTest, UnwrittenPagesReadAsZero) {
  MemDisk disk;
  PageData out = MakePage(0xFF);
  ASSERT_TRUE(disk.ReadPage(7, &out).ok());
  EXPECT_EQ(out.bytes[0], 0);
  EXPECT_EQ(out.bytes[kPageSize - 1], 0);
}

TEST(MemDiskTest, PageCountTracksHighestWrite) {
  MemDisk disk;
  EXPECT_EQ(disk.PageCount(), 0u);
  ASSERT_TRUE(disk.WritePage(9, MakePage(1)).ok());
  EXPECT_EQ(disk.PageCount(), 10u);
}

TEST(MemDiskTest, CountersTrackIo) {
  MemDisk disk;
  PageData p;
  ASSERT_TRUE(disk.WritePage(0, MakePage(1)).ok());
  ASSERT_TRUE(disk.ReadPage(0, &p).ok());
  ASSERT_TRUE(disk.ReadPage(0, &p).ok());
  EXPECT_EQ(disk.writes(), 1u);
  EXPECT_EQ(disk.reads(), 2u);
}

TEST(MemDiskTest, InjectedFailuresFireThenClear) {
  MemDisk disk;
  disk.InjectReadFailures(2);
  PageData p;
  EXPECT_EQ(disk.ReadPage(0, &p).code(), StatusCode::kIOError);
  EXPECT_EQ(disk.ReadPage(0, &p).code(), StatusCode::kIOError);
  EXPECT_TRUE(disk.ReadPage(0, &p).ok());
}

TEST(MemDiskTest, BitFlipDetectedOnRead) {
  MemDisk disk;
  ASSERT_TRUE(disk.WritePage(2, MakePage(0x5A)).ok());
  Counter* failures =
      GlobalMetrics().GetCounter("storage.page.checksum_failures_total");
  const uint64_t before = failures->Get();
  disk.CorruptPage(2, 1000, 0x01);
  PageData out;
  Status st = disk.ReadPage(2, &out);
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
  EXPECT_EQ(failures->Get(), before + 1);
  // Other pages stay readable.
  ASSERT_TRUE(disk.WritePage(3, MakePage(0x11)).ok());
  EXPECT_TRUE(disk.ReadPage(3, &out).ok());
}

TEST(MemDiskTest, TornWriteDetectedOnRead) {
  MemDisk disk;
  ASSERT_TRUE(disk.WritePage(0, MakePage(0xC3)).ok());
  disk.TornWrite(0, kPageSize / 2);  // tail lost mid-write
  PageData out;
  EXPECT_EQ(disk.ReadPage(0, &out).code(), StatusCode::kCorruption);
}

TEST(MemDiskTest, CorruptingTheCrcItselfIsDetected) {
  MemDisk disk;
  ASSERT_TRUE(disk.WritePage(1, MakePage(0x42)).ok());
  disk.CorruptPage(1, 0, 0x80);  // flip a bit inside the stored checksum
  PageData out;
  EXPECT_EQ(disk.ReadPage(1, &out).code(), StatusCode::kCorruption);
}

class FileDiskTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/idba_filedisk_" +
            std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(FileDiskTest, PersistsAcrossReopen) {
  {
    auto disk = FileDisk::Open(path_);
    ASSERT_TRUE(disk.ok());
    ASSERT_TRUE(disk.value()->WritePage(2, MakePage(0x5C)).ok());
    ASSERT_TRUE(disk.value()->Sync().ok());
  }
  auto disk = FileDisk::Open(path_);
  ASSERT_TRUE(disk.ok());
  EXPECT_EQ(disk.value()->PageCount(), 3u);
  PageData out;
  ASSERT_TRUE(disk.value()->ReadPage(2, &out).ok());
  EXPECT_EQ(out.bytes[100], 0x5C);
}

TEST_F(FileDiskTest, ReadPastEndIsZeros) {
  auto disk = FileDisk::Open(path_);
  ASSERT_TRUE(disk.ok());
  PageData out = MakePage(0xEE);
  ASSERT_TRUE(disk.value()->ReadPage(50, &out).ok());
  EXPECT_EQ(out.bytes[0], 0);
}

TEST_F(FileDiskTest, OnDiskBitFlipDetectedAfterReopen) {
  {
    auto disk = FileDisk::Open(path_);
    ASSERT_TRUE(disk.ok());
    ASSERT_TRUE(disk.value()->WritePage(1, MakePage(0x3D)).ok());
    ASSERT_TRUE(disk.value()->Sync().ok());
  }
  // Flip one payload bit directly in the file, as silent media corruption
  // would.
  std::FILE* f = std::fopen(path_.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, static_cast<long>(kPageSize + 512), SEEK_SET), 0);
  int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, -1, SEEK_CUR), 0);
  ASSERT_NE(std::fputc(c ^ 0x04, f), EOF);
  ASSERT_EQ(std::fclose(f), 0);

  auto disk = FileDisk::Open(path_);
  ASSERT_TRUE(disk.ok());
  PageData out;
  EXPECT_EQ(disk.value()->ReadPage(1, &out).code(), StatusCode::kCorruption);
  // Page 0 was never written: reads back as zeros, which is always valid.
  EXPECT_TRUE(disk.value()->ReadPage(0, &out).ok());
}

TEST_F(FileDiskTest, TableStampedPageVerifiesThroughReadPage) {
  // A page stamped by the table kernel, as a host without SSE4.2 writes it,
  // must verify on whichever kernel this host dispatches to.
  Rng rng(44);
  PageData page;
  for (uint8_t& b : page.bytes) b = static_cast<uint8_t>(rng.NextU64());
  const uint32_t crc = crc32c_internal::Table(page.bytes + kPageCrcSize,
                                              kPageSize - kPageCrcSize);
  for (size_t i = 0; i < kPageCrcSize; ++i) {
    page.bytes[i] = static_cast<uint8_t>(crc >> (8 * i));
  }
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, static_cast<long>(kPageSize), SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(page.bytes, 1, kPageSize, f), kPageSize);
  ASSERT_EQ(std::fclose(f), 0);

  auto disk = FileDisk::Open(path_);
  ASSERT_TRUE(disk.ok());
  PageData out;
  ASSERT_TRUE(disk.value()->ReadPage(1, &out).ok());
  EXPECT_EQ(std::memcmp(out.bytes, page.bytes, kPageSize), 0);
}

TEST_F(FileDiskTest, OpenFailsOnBadPath) {
  auto disk = FileDisk::Open("/nonexistent_dir_xyz/file");
  EXPECT_FALSE(disk.ok());
  EXPECT_EQ(disk.status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace idba
