#include "pax/libpax/vpm_region.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <cstring>
#include <thread>
#include <vector>

namespace pax::libpax {
namespace {

constexpr std::size_t kRegionSize = 64 * kPageSize;

std::vector<PageIndex> written(const VpmRegion& r) {
  auto pages = r.written_pages();
  EXPECT_TRUE(pages.ok()) << pages.status().to_string();
  return pages.ok() ? pages.value() : std::vector<PageIndex>{};
}

TEST(VpmRegionTest, ProtectAllForgetsWritesBeforeIt) {
  auto region = VpmRegion::create(kRegionSize);
  ASSERT_TRUE(region.ok()) << region.status().to_string();
  auto& r = *region.value();
  // Never protected yet: every page reads as written, and writes succeed.
  std::memset(r.base(), 0x11, kPageSize);
  EXPECT_EQ(written(r).size(), kRegionSize / kPageSize);

  ASSERT_TRUE(r.protect_all().is_ok());
  EXPECT_EQ(r.fault_count(), 0u);
  EXPECT_TRUE(written(r).empty());
  EXPECT_EQ(r.base()[0], std::byte{0x11});
}

TEST(VpmRegionTest, WriteAfterProtectIsTrackedOncePerPage) {
  auto region = VpmRegion::create(kRegionSize);
  ASSERT_TRUE(region.ok());
  auto& r = *region.value();
  ASSERT_TRUE(r.protect_all().is_ok());

  r.base()[0] = std::byte{1};
  r.base()[100] = std::byte{2};        // same page: counted once
  r.base()[kPageSize + 5] = std::byte{3};  // second page

  EXPECT_EQ(r.fault_count(), 2u);
  auto dirty = written(r);
  ASSERT_EQ(dirty.size(), 2u);
  EXPECT_EQ(dirty[0], PageIndex{0});
  EXPECT_EQ(dirty[1], PageIndex{1});
}

TEST(VpmRegionTest, ReadsAreNotTracked) {
  auto region = VpmRegion::create(kRegionSize);
  ASSERT_TRUE(region.ok());
  auto& r = *region.value();
  ASSERT_TRUE(r.protect_all().is_ok());

  volatile std::byte sink{};
  for (std::size_t i = 0; i < kRegionSize; i += kPageSize) sink = r.base()[i];
  (void)sink;
  EXPECT_EQ(r.fault_count(), 0u);
  EXPECT_TRUE(written(r).empty());
}

TEST(VpmRegionTest, TakeWrittenRearmsTracking) {
  auto region = VpmRegion::create(kRegionSize);
  ASSERT_TRUE(region.ok());
  auto& r = *region.value();
  ASSERT_TRUE(r.protect_all().is_ok());

  r.base()[0] = std::byte{1};
  auto taken = r.take_written();
  ASSERT_TRUE(taken.ok());
  ASSERT_EQ(taken.value().size(), 1u);
  EXPECT_TRUE(written(r).empty());
  EXPECT_EQ(r.base()[0], std::byte{1});  // re-protected, still readable

  r.base()[1] = std::byte{2};
  EXPECT_EQ(r.fault_count(), 2u);
  ASSERT_EQ(written(r).size(), 1u);
  EXPECT_EQ(written(r)[0], PageIndex{0});
}

TEST(VpmRegionTest, WrittenPagesLeavesPagesWritable) {
  auto region = VpmRegion::create(kRegionSize);
  ASSERT_TRUE(region.ok());
  auto& r = *region.value();
  ASSERT_TRUE(r.protect_all().is_ok());

  r.base()[kPageSize] = std::byte{1};
  ASSERT_EQ(written(r).size(), 1u);
  r.base()[kPageSize + 1] = std::byte{2};  // still written: no new page
  EXPECT_EQ(r.fault_count(), 1u);
  auto taken = r.take_written();
  ASSERT_TRUE(taken.ok());
  ASSERT_EQ(taken.value().size(), 1u);
  EXPECT_EQ(taken.value()[0], PageIndex{1});
}

TEST(VpmRegionTest, FaultCountDeltasHoldAcrossSeals) {
  auto region = VpmRegion::create(kRegionSize);
  ASSERT_TRUE(region.ok());
  auto& r = *region.value();
  ASSERT_TRUE(r.protect_all().is_ok());

  for (std::size_t p : {2u, 9u, 30u}) r.base()[p * kPageSize] = std::byte{1};
  EXPECT_EQ(r.fault_count(), 3u);
  ASSERT_EQ(r.take_written().value().size(), 3u);
  EXPECT_EQ(r.fault_count(), 3u);  // taken pages stay counted

  for (std::size_t p : {9u, 10u}) r.base()[p * kPageSize] = std::byte{2};
  EXPECT_EQ(r.fault_count(), 5u);  // page 9 counts again: it was re-armed
  ASSERT_EQ(r.take_written().value().size(), 2u);
  EXPECT_TRUE(r.take_written().value().empty());
  EXPECT_EQ(r.fault_count(), 5u);
}

TEST(VpmRegionTest, WrittenPagesSortedAndComplete) {
  auto region = VpmRegion::create(kRegionSize);
  ASSERT_TRUE(region.ok());
  auto& r = *region.value();
  ASSERT_TRUE(r.protect_all().is_ok());

  for (std::size_t p : {7u, 3u, 11u, 0u}) {
    r.base()[p * kPageSize] = std::byte{9};
  }
  auto dirty = written(r);
  ASSERT_EQ(dirty.size(), 4u);
  EXPECT_EQ(dirty[0].value, 0u);
  EXPECT_EQ(dirty[1].value, 3u);
  EXPECT_EQ(dirty[2].value, 7u);
  EXPECT_EQ(dirty[3].value, 11u);
}

TEST(VpmRegionTest, ConcurrentWritersAllTracked) {
  auto region = VpmRegion::create(kRegionSize);
  ASSERT_TRUE(region.ok());
  auto& r = *region.value();
  ASSERT_TRUE(r.protect_all().is_ok());

  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&r, t] {
      for (std::size_t p = 0; p < 64; ++p) {
        // All threads hammer all pages: races on the same page must be safe.
        r.base()[p * kPageSize + t] = static_cast<std::byte>(t + 1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(written(r).size(), 64u);
}

TEST(VpmRegionTest, KernelWriteIntoProtectedPageIsTracked) {
  auto region = VpmRegion::create(kRegionSize);
  ASSERT_TRUE(region.ok());
  auto& r = *region.value();
  ASSERT_TRUE(r.protect_all().is_ok());

  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_EQ(::write(fds[1], "hello", 5), 5);
  // The kernel's copy-out into a write-protected page resolves like a user
  // store instead of failing with EFAULT.
  EXPECT_EQ(::read(fds[0], r.base() + 5 * kPageSize + 17, 5), 5);
  ::close(fds[0]);
  ::close(fds[1]);
  EXPECT_EQ(std::memcmp(r.base() + 5 * kPageSize + 17, "hello", 5), 0);
  auto dirty = written(r);
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0], PageIndex{5});
}

TEST(VpmRegionTest, TwoRegionsCoexist) {
  auto a = VpmRegion::create(kRegionSize);
  auto b = VpmRegion::create(kRegionSize);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(a.value()->protect_all().is_ok());
  ASSERT_TRUE(b.value()->protect_all().is_ok());

  a.value()->base()[0] = std::byte{1};
  b.value()->base()[kPageSize] = std::byte{2};
  EXPECT_EQ(written(*a.value()).size(), 1u);
  ASSERT_EQ(written(*b.value()).size(), 1u);
  EXPECT_EQ(written(*b.value())[0], PageIndex{1});
}

TEST(VpmRegionTest, MoreThanSixtyFourRegionsCoexist) {
  constexpr std::size_t kRegions = 80;
  std::vector<std::unique_ptr<VpmRegion>> regions;
  for (std::size_t i = 0; i < kRegions; ++i) {
    auto r = VpmRegion::create(4 * kPageSize);
    ASSERT_TRUE(r.ok()) << "region " << i << ": " << r.status().to_string();
    ASSERT_TRUE(r.value()->protect_all().is_ok());
    regions.push_back(std::move(r).value());
  }
  for (std::size_t i = 0; i < kRegions; ++i) {
    regions[i]->base()[(i % 4) * kPageSize] = std::byte{1};
  }
  for (std::size_t i = 0; i < kRegions; ++i) {
    auto dirty = written(*regions[i]);
    ASSERT_EQ(dirty.size(), 1u) << "region " << i;
    EXPECT_EQ(dirty[0], PageIndex{i % 4}) << "region " << i;
  }
}

TEST(VpmRegionTest, UnavailableTrackingIsAFailedPrecondition) {
  // Exhaust the descriptor table so userfaultfd() itself fails, as it does
  // where the syscall is blocked.
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit low = saved;
  low.rlim_cur = 64;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);
  std::vector<int> fillers;
  for (int fd; (fd = ::dup(0)) >= 0;) fillers.push_back(fd);
  auto region = VpmRegion::create(kRegionSize);
  for (int fd : fillers) ::close(fd);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);

  ASSERT_FALSE(region.ok());
  const Status st = region.status();
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  utsname u{};
  ASSERT_EQ(::uname(&u), 0);
  const std::string& msg = st.message();
  EXPECT_NE(msg.find("userfaultfd"), std::string::npos) << msg;
  EXPECT_NE(msg.find(u.release), std::string::npos) << msg;
}

TEST(VpmRegionTest, RejectsUnalignedSize) {
  auto region = VpmRegion::create(kPageSize + 1);
  EXPECT_FALSE(region.ok());
}

}  // namespace
}  // namespace pax::libpax
