#include "pax/baselines/pagewal/pagewal.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "pax/libpax/runtime.hpp"

namespace pax::baselines::pagewal {
namespace {

constexpr std::size_t kPool = 32 << 20;

TEST(PageWalTest, PersistedPagesSurviveCrash) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  {
    auto rt = PageWalRuntime::attach(pm.get()).value();
    std::memset(rt->base() + 2 * kPageSize, 0x3c, 100);
    ASSERT_TRUE(rt->persist().ok());
  }
  pm->crash(pmem::CrashConfig::drop_all());
  auto rt = PageWalRuntime::attach(pm.get()).value();
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rt->base()[2 * kPageSize + i], std::byte{0x3c});
  }
}

TEST(PageWalTest, UnpersistedPagesRollBack) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  {
    auto rt = PageWalRuntime::attach(pm.get()).value();
    std::memset(rt->base(), 0x11, 64);
    ASSERT_TRUE(rt->persist().ok());
    std::memset(rt->base(), 0x22, 64);
    // Stage epoch-2 page log + write-back by hand-invoking persist partway:
    // not possible from the API, so emulate the dangerous moment — the
    // page was logged and written back but the epoch cell never moved —
    // by crashing right after a second persist's write-back. Simplest
    // honest variant: crash with the epoch-2 mutation only in the region.
  }
  pm->crash(pmem::CrashConfig::drop_all());
  auto rt = PageWalRuntime::attach(pm.get()).value();
  EXPECT_EQ(rt->committed_epoch(), 1u);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(rt->base()[i], std::byte{0x11}) << i;
  }
}

TEST(PageWalTest, TrapPerPageNotPerWrite) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  auto rt = PageWalRuntime::attach(pm.get()).value();
  for (int i = 0; i < 1000; ++i) {
    rt->base()[i % kPageSize] = static_cast<std::byte>(i);
  }
  EXPECT_EQ(rt->fault_count(), 1u);  // amortization: 1 trap per page/epoch
  ASSERT_TRUE(rt->persist().ok());
  rt->base()[0] = std::byte{1};
  EXPECT_EQ(rt->fault_count(), 2u);  // re-armed per epoch
  ASSERT_TRUE(rt->persist().ok());
  ASSERT_TRUE(rt->persist().ok());  // nothing written: nothing new counted
  EXPECT_EQ(rt->fault_count(), 2u);
  EXPECT_EQ(rt->stats().pages_logged, 2u);
}

TEST(PageWalTest, WriteAmplificationIsPageGranular) {
  // One 8-byte store → a full 4 KiB page logged and a full page written
  // back. Contrast with PAX (64 B line record): the §1 claim, quantified in
  // bench/abl_write_amplification.
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  auto rt = PageWalRuntime::attach(pm.get()).value();
  std::uint64_t v = 42;
  std::memcpy(rt->base() + 8 * kPageSize, &v, sizeof(v));
  ASSERT_TRUE(rt->persist().ok());
  EXPECT_EQ(rt->stats().pages_logged, 1u);
  EXPECT_GE(rt->stats().log_bytes, kPageSize);
  EXPECT_EQ(rt->stats().pages_written_back, 1u);

  // Same workload through libpax: one line record, ~96 B of log.
  auto pm2 = pmem::PmemDevice::create_in_memory(kPool);
  auto lp = libpax::PaxRuntime::attach(pm2.get()).value();
  ASSERT_TRUE(lp->persist().ok());  // commit heap-format writes
  const auto base_bytes = lp->device().log_stats().bytes_staged;
  std::memcpy(lp->vpm_base() + 8 * kPageSize, &v, sizeof(v));
  ASSERT_TRUE(lp->persist().ok());
  const auto pax_bytes = lp->device().log_stats().bytes_staged - base_bytes;
  EXPECT_LT(pax_bytes, 128u);
  EXPECT_GT(rt->stats().log_bytes / pax_bytes, 30u);  // ≳40× amplification
}

TEST(PageWalTest, MultipleEpochsAccumulate) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  {
    auto rt = PageWalRuntime::attach(pm.get()).value();
    for (int e = 0; e < 5; ++e) {
      std::memset(rt->base() + e * kPageSize, 0x40 + e, kPageSize);
      ASSERT_TRUE(rt->persist().ok());
    }
  }
  pm->crash(pmem::CrashConfig::drop_all());
  auto rt = PageWalRuntime::attach(pm.get()).value();
  EXPECT_EQ(rt->committed_epoch(), 5u);
  for (int e = 0; e < 5; ++e) {
    EXPECT_EQ(rt->base()[e * kPageSize], static_cast<std::byte>(0x40 + e));
  }
}

TEST(PageWalTest, LogExtentExhaustionSurfaces) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  auto rt = PageWalRuntime::attach(pm.get(), /*log_size=*/2 * kPageSize)
                .value();  // not even one page record fits… well, one won't:
                           // 4096 payload + header > 4096, needs 2 pages
  std::memset(rt->base(), 0x1, kPageSize);
  std::memset(rt->base() + kPageSize, 0x2, kPageSize);
  auto e = rt->persist();
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kOutOfSpace);
}

}  // namespace
}  // namespace pax::baselines::pagewal
