#include "pax/libpax/vpm_region.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "pax/libpax/runtime.hpp"

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

// --- Seeding a region from PM (VpmRegion::seed via PaxRuntime) ----------

// Resident set size of this process, from /proc/self/statm.
std::size_t resident_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long size = 0;
  unsigned long resident = 0;
  const int got = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  return got == 2 ? resident * static_cast<std::size_t>(sysconf(_SC_PAGESIZE))
                  : 0;
}

RuntimeOptions small_log() {
  RuntimeOptions o;
  o.log_size = 256 * 1024;
  // Flush the undo log on every tick, so sync_step() really pushes an
  // uncommitted epoch's data into PM and recovery has to roll it back.
  o.device.log_flush_batch_bytes = 0;
  return o;
}

TEST(VpmSeedTest, FreshPoolAttachCostsWhatThePoolHolds) {
  constexpr std::size_t kPool = std::size_t{256} << 20;
  const std::size_t before = resident_bytes();
  ASSERT_GT(before, 0u);
  auto rt = PaxRuntime::create_in_memory(kPool, small_log());
  ASSERT_TRUE(rt.ok()) << rt.status().to_string();
#if !defined(__SANITIZE_THREAD__)
  // ThreadSanitizer's calloc zero-fills every block, so only the libc
  // allocator leaves the media, and hence the seed, unbacked.
  EXPECT_LT(resident_bytes() - before, std::size_t{16} << 20);
#endif
  // Untouched pool space reads zero through the region.
  const std::byte* base = rt.value()->vpm_base();
  for (std::size_t off = kPageSize; off < rt.value()->vpm_size();
       off += rt.value()->vpm_size() / 64) {
    EXPECT_EQ(base[off], std::byte{0}) << "offset " << off;
  }
}

// Pages the seed left on the zero page are tracked like any other: a
// store, a read then a store, and a read(2) each report their page once,
// and a page that was only read is never reported.
TEST(VpmSeedTest, ZeroPageWritesAreTrackedExactlyOnce) {
  auto rt = PaxRuntime::create_in_memory(16 << 20, small_log()).value();
  ASSERT_TRUE(rt->persist().ok());  // commits the heap's format writes
  VpmRegion& r = rt->region();
  std::byte* base = rt->vpm_base();
  constexpr std::size_t kStored = 40;
  constexpr std::size_t kReadThenStored = 41;
  constexpr std::size_t kKernelWritten = 300;
  constexpr std::size_t kOnlyRead = 301;

  base[kStored * kPageSize + 7] = std::byte{1};
  volatile std::byte sink = base[kReadThenStored * kPageSize];
  sink = base[kOnlyRead * kPageSize + 99];
  (void)sink;
  base[kReadThenStored * kPageSize + 1] = std::byte{2};
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_EQ(::write(fds[1], "zero", 4), 4);
  EXPECT_EQ(::read(fds[0], base + kKernelWritten * kPageSize + 3, 4), 4);
  ::close(fds[0]);
  ::close(fds[1]);

  auto taken = r.take_written();
  ASSERT_TRUE(taken.ok()) << taken.status().to_string();
  EXPECT_EQ(taken.value(),
            (std::vector<PageIndex>{PageIndex{kStored},
                                    PageIndex{kReadThenStored},
                                    PageIndex{kKernelWritten}}));
  EXPECT_TRUE(r.take_written().value().empty());
  EXPECT_EQ(std::memcmp(base + kKernelWritten * kPageSize + 3, "zero", 4), 0);
  EXPECT_EQ(base[kOnlyRead * kPageSize + 99], std::byte{0});
}

// Data several MB apart, zero pages between and a page zeroed again inside
// the written extent: a crash and re-attach restore the committed region
// byte for byte.
TEST(VpmSeedTest, SparsePoolRecoversByteForByte) {
  auto pm = pmem::PmemDevice::create_in_memory(32 << 20);
  std::vector<std::byte> committed;
  {
    auto rt = PaxRuntime::attach(pm.get(), small_log()).value();
    std::byte* base = rt->vpm_base();
    for (std::size_t mb : {1u, 9u, 20u, 27u}) {
      for (std::size_t i = 0; i < 3 * kPageSize; ++i) {
        base[(mb << 20) + 100 + i] = static_cast<std::byte>(mb * 31 + i);
      }
    }
    std::memset(base + (5 << 20), 0x77, kPageSize);
    ASSERT_TRUE(rt->persist().ok());
    std::memset(base + (5 << 20), 0, kPageSize);  // freed space: zero again
    ASSERT_TRUE(rt->persist().ok());
    committed.assign(base, base + rt->vpm_size());
    // An uncommitted epoch that reaches PM before the crash.
    std::memset(base + (13 << 20), 0x42, 2 * kPageSize);
    base[(9 << 20) + 200] = std::byte{0xee};
    rt->sync_step();
  }
  pm->crash(pmem::CrashConfig::drop_all());

  auto rt = PaxRuntime::attach(pm.get(), small_log()).value();
  EXPECT_EQ(rt->recovery_report().recovered_epoch, 2u);
  EXPECT_GT(rt->recovery_report().records_applied, 0u);
  ASSERT_EQ(rt->vpm_size(), committed.size());
  EXPECT_EQ(std::memcmp(rt->vpm_base(), committed.data(), committed.size()),
            0);
}

}  // namespace
}  // namespace pax::libpax
