// End-to-end tests of the paging frontend: raw writes into vPM, persist(),
// simulated crashes, recovery, and the §5.1 line-granular logging claim.
#include "pax/libpax/runtime.hpp"

#include <gtest/gtest.h>

#include <cstring>

namespace pax::libpax {
namespace {

constexpr std::size_t kPool = 16 << 20;

RuntimeOptions small_log() {
  RuntimeOptions o;
  o.log_size = 256 * 1024;
  // Flush the undo log on every tick so sync_step() really pushes epoch
  // data into PM — making the rollback tests exercise true undo, not just
  // lost volatile state.
  o.device.log_flush_batch_bytes = 0;
  return o;
}

TEST(PaxRuntimeTest, FreshPoolStartsAtEpochZero) {
  auto rt = PaxRuntime::create_in_memory(kPool);
  ASSERT_TRUE(rt.ok()) << rt.status().to_string();
  EXPECT_EQ(rt.value()->committed_epoch(), 0u);
  EXPECT_EQ(rt.value()->recovery_report().records_applied, 0u);
}

TEST(PaxRuntimeTest, PersistAdvancesEpoch) {
  auto rt = PaxRuntime::create_in_memory(kPool).value();
  rt->vpm_base()[4096] = std::byte{42};  // skip heap header page
  auto e1 = rt->persist();
  ASSERT_TRUE(e1.ok());
  EXPECT_EQ(e1.value(), 1u);
  rt->vpm_base()[4096] = std::byte{43};
  auto e2 = rt->persist();
  ASSERT_TRUE(e2.ok());
  EXPECT_EQ(e2.value(), 2u);
}

TEST(PaxRuntimeTest, PersistedBytesSurviveCrash) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  {
    auto rt = PaxRuntime::attach(pm.get(), small_log()).value();
    std::memset(rt->vpm_base() + 8192, 0x5c, 100);
    ASSERT_TRUE(rt->persist().ok());
  }  // runtime destroyed without further persist = crash semantics
  pm->crash(pmem::CrashConfig::drop_all());

  auto rt = PaxRuntime::attach(pm.get(), small_log()).value();
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rt->vpm_base()[8192 + i], std::byte{0x5c}) << i;
  }
}

TEST(PaxRuntimeTest, UnpersistedBytesRollBackToLastSnapshot) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  {
    auto rt = PaxRuntime::attach(pm.get(), small_log()).value();
    std::memset(rt->vpm_base() + 8192, 0x11, 64);
    ASSERT_TRUE(rt->persist().ok());
    // Epoch 2 overwrites and even pushes data toward PM via sync_step, but
    // never persists.
    std::memset(rt->vpm_base() + 8192, 0x22, 64);
    rt->sync_step();
  }
  pm->crash(pmem::CrashConfig::drop_all());

  auto rt = PaxRuntime::attach(pm.get(), small_log()).value();
  EXPECT_EQ(rt->recovery_report().recovered_epoch, 1u);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(rt->vpm_base()[8192 + i], std::byte{0x11}) << i;
  }
}

TEST(PaxRuntimeTest, CrashBeforeFirstPersistYieldsEmptyPool) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  {
    auto rt = PaxRuntime::attach(pm.get(), small_log()).value();
    std::memset(rt->vpm_base() + 4096, 0x99, 4096);
    rt->sync_step();  // some of it may reach PM
  }
  pm->crash(pmem::CrashConfig::drop_all());

  auto rt = PaxRuntime::attach(pm.get(), small_log()).value();
  EXPECT_EQ(rt->committed_epoch(), 0u);
  for (int i = 0; i < 4096; ++i) {
    EXPECT_EQ(rt->vpm_base()[4096 + i], std::byte{0}) << i;
  }
}

TEST(PaxRuntimeTest, LineGranularLogging) {
  // Writing 8 bytes in each of 10 *pages* must log 10 cache lines, not 10
  // pages (the §1/§5.1 write-amplification claim: 64 B vs 4 KiB per update).
  auto rt = PaxRuntime::create_in_memory(kPool).value();
  ASSERT_TRUE(rt->persist().ok());  // commit the heap-format writes first
  const auto base_logs = rt->device().stats().first_touch_logs;
  const auto base_synced = rt->sync_stats().lines_synced;

  for (std::size_t p = 1; p <= 10; ++p) {
    std::memset(rt->vpm_base() + p * kPageSize + 128, 0xdd, 8);
  }
  ASSERT_TRUE(rt->persist().ok());
  EXPECT_EQ(rt->device().stats().first_touch_logs - base_logs, 10u);
  // Undo log bytes per epoch ≈ 10 × (24 B header + 72 B payload), worlds
  // below 10 pages.
  EXPECT_EQ(rt->sync_stats().lines_synced - base_synced, 10u);
}

TEST(PaxRuntimeTest, UntouchedLinesInDirtyPageNotLogged) {
  auto rt = PaxRuntime::create_in_memory(kPool).value();
  ASSERT_TRUE(rt->persist().ok());
  const auto base_logs = rt->device().stats().first_touch_logs;
  const auto base_diffed = rt->sync_stats().lines_diffed;

  rt->vpm_base()[2 * kPageSize] = std::byte{1};          // line 0 of page 2
  rt->vpm_base()[2 * kPageSize + 3000] = std::byte{1};   // line 46
  ASSERT_TRUE(rt->persist().ok());
  EXPECT_EQ(rt->device().stats().first_touch_logs - base_logs, 2u);
  EXPECT_EQ(rt->sync_stats().lines_diffed - base_diffed, kLinesPerPage);
}

TEST(PaxRuntimeTest, SecondEpochRelogsSameLine) {
  auto rt = PaxRuntime::create_in_memory(kPool).value();
  ASSERT_TRUE(rt->persist().ok());
  const auto base_logs = rt->device().stats().first_touch_logs;
  const auto base_faults = rt->region().fault_count();

  rt->vpm_base()[4096] = std::byte{1};
  ASSERT_TRUE(rt->persist().ok());
  rt->vpm_base()[4096] = std::byte{2};
  ASSERT_TRUE(rt->persist().ok());
  EXPECT_EQ(rt->device().stats().first_touch_logs - base_logs, 2u);  // 1/epoch
  EXPECT_EQ(rt->region().fault_count() - base_faults, 2u);  // re-protected
}

TEST(PaxRuntimeTest, OneWriteProtectIoctlPerSeal) {
  auto rt = PaxRuntime::create_in_memory(kPool).value();
  ASSERT_TRUE(rt->persist().ok());
  const auto base_calls = rt->region().protect_syscall_count();
  const auto base_faults = rt->region().fault_count();
  for (std::size_t p : {3, 4, 9, 20, 21}) {
    rt->vpm_base()[p * kPageSize] = std::byte{1};
  }
  rt->sync_step();  // reads the written set without re-protecting it
  EXPECT_EQ(rt->region().protect_syscall_count() - base_calls, 0u);
  EXPECT_EQ(rt->region().fault_count() - base_faults, 5u);
  ASSERT_TRUE(rt->persist().ok());
  EXPECT_EQ(rt->region().protect_syscall_count() - base_calls, 1u);
  ASSERT_TRUE(rt->persist_async().ok());  // an empty seal still scans once
  ASSERT_TRUE(rt->complete_persist().ok());
  EXPECT_EQ(rt->region().protect_syscall_count() - base_calls, 2u);
  EXPECT_EQ(rt->region().fault_count() - base_faults, 5u);
}

TEST(PaxRuntimeTest, EmptyPersistIsCheap) {
  auto rt = PaxRuntime::create_in_memory(kPool).value();
  ASSERT_TRUE(rt->persist().ok());  // commits heap-format writes
  const auto base_logs = rt->device().stats().first_touch_logs;
  ASSERT_TRUE(rt->persist().ok());
  ASSERT_TRUE(rt->persist().ok());
  EXPECT_EQ(rt->committed_epoch(), 3u);
  EXPECT_EQ(rt->device().stats().first_touch_logs, base_logs);
}

TEST(PaxRuntimeTest, SyncStepMovesWorkOffPersistPath) {
  auto rt = PaxRuntime::create_in_memory(kPool).value();
  std::memset(rt->vpm_base() + 4096, 0x3f, 8 * kPageSize);
  rt->sync_step();
  const auto before = rt->device().stats();
  EXPECT_GT(before.first_touch_logs, 0u);
  EXPECT_GT(before.proactive_writebacks, 0u);
  ASSERT_TRUE(rt->persist().ok());
  // persist() found the undo records already created.
  EXPECT_EQ(rt->device().stats().first_touch_logs, before.first_touch_logs);
}

TEST(PaxRuntimeTest, LogExhaustionSurfacesFromPersist) {
  RuntimeOptions o;
  o.log_size = 2 * kPageSize;  // ~85 line records
  auto rt = PaxRuntime::create_in_memory(kPool, o).value();
  std::memset(rt->vpm_base() + 4096, 0x77, 32 * kPageSize);  // 2048 lines
  auto e = rt->persist();
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kOutOfSpace);
}

TEST(PaxRuntimeTest, MapPoolRoundTripsThroughFile) {
  const std::string path = "/tmp/pax_runtime_test.pool";
  std::remove(path.c_str());
  {
    auto rt = PaxRuntime::map_pool(path, kPool, small_log());
    ASSERT_TRUE(rt.ok()) << rt.status().to_string();
    std::memset(rt.value()->vpm_base() + 4096, 0xab, 256);
    ASSERT_TRUE(rt.value()->persist().ok());
  }
  {
    auto rt = PaxRuntime::map_pool(path, kPool, small_log());
    ASSERT_TRUE(rt.ok());
    EXPECT_EQ(rt.value()->committed_epoch(), 1u);
    for (int i = 0; i < 256; ++i) {
      EXPECT_EQ(rt.value()->vpm_base()[4096 + i], std::byte{0xab});
    }
  }
  std::remove(path.c_str());
}

TEST(PaxRuntimeTest, ReattachReusesVpmBaseAddress) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  std::byte* first_base;
  {
    auto rt = PaxRuntime::attach(pm.get(), small_log()).value();
    first_base = rt->vpm_base();
    rt->vpm_base()[4096] = std::byte{1};
    ASSERT_TRUE(rt->persist().ok());
  }
  auto rt = PaxRuntime::attach(pm.get(), small_log()).value();
  EXPECT_EQ(rt->vpm_base(), first_base);  // raw pointers stay valid
}

TEST(PaxRuntimeTest, TornLogCrashStillRecovers) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  {
    auto rt = PaxRuntime::attach(pm.get(), small_log()).value();
    std::memset(rt->vpm_base() + 8192, 0x66, 64);
    ASSERT_TRUE(rt->persist().ok());
    std::memset(rt->vpm_base() + 8192, 0x67, 64);
    rt->sync_step();
  }
  // Torn crash: random lines (log and data) survive, torn at 8 B.
  pm->crash(pmem::CrashConfig::torn(0.5, /*seed=*/321));

  auto rt = PaxRuntime::attach(pm.get(), small_log());
  ASSERT_TRUE(rt.ok()) << rt.status().to_string();
  EXPECT_EQ(rt.value()->recovery_report().recovered_epoch, 1u);
}

}  // namespace
}  // namespace pax::libpax
