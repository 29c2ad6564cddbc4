// Runtime-level tests of non-blocking persist (§6 extension): the crash
// contract with sealed-but-unwaited epochs, interaction with sync_step and
// blocking persist(), and black-box containers across async commits.
#include <gtest/gtest.h>

#include <cstring>
#include <unordered_map>

#include "pax/libpax/persistent.hpp"

namespace pax::libpax {
namespace {

constexpr std::size_t kPool = 32 << 20;

RuntimeOptions options() {
  RuntimeOptions o;
  o.log_size = 4 << 20;
  o.device.log_flush_batch_bytes = 0;
  return o;
}

using MapAlloc =
    PaxStlAllocator<std::pair<const std::uint64_t, std::uint64_t>>;
using PMap = std::unordered_map<std::uint64_t, std::uint64_t,
                                std::hash<std::uint64_t>,
                                std::equal_to<std::uint64_t>, MapAlloc>;

// A sealed epoch nobody waited on may or may not have committed before the
// crash, but recovery lands on exactly one of the two epochs.
TEST(AsyncPersistTest, UnwaitedEpochRecoversWholeOrNotAtAll) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  {
    auto rt = PaxRuntime::attach(pm.get(), options()).value();
    rt->vpm_base()[8192] = std::byte{0x21};
    rt->vpm_base()[40960] = std::byte{0x31};
    auto sealed = rt->persist_async();
    ASSERT_TRUE(sealed.ok());
    EXPECT_EQ(sealed.value(), 1u);
  }
  pm->crash(pmem::CrashConfig::drop_all());
  auto rt = PaxRuntime::attach(pm.get(), options()).value();
  const Epoch e = rt->committed_epoch();
  ASSERT_LE(e, 1u);
  EXPECT_EQ(rt->vpm_base()[8192], e == 1 ? std::byte{0x21} : std::byte{0});
  EXPECT_EQ(rt->vpm_base()[40960], e == 1 ? std::byte{0x31} : std::byte{0});
}

TEST(AsyncPersistTest, CompletedAsyncPersistIsDurable) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  {
    auto rt = PaxRuntime::attach(pm.get(), options()).value();
    rt->vpm_base()[8192] = std::byte{0x22};
    ASSERT_TRUE(rt->persist_async().ok());
    auto committed = rt->complete_persist();
    ASSERT_TRUE(committed.ok());
    EXPECT_EQ(committed.value(), 1u);
    EXPECT_EQ(rt->committed_epoch(), 1u);
  }
  pm->crash(pmem::CrashConfig::drop_all());
  auto rt = PaxRuntime::attach(pm.get(), options()).value();
  EXPECT_EQ(rt->committed_epoch(), 1u);
  EXPECT_EQ(rt->vpm_base()[8192], std::byte{0x22});
}

TEST(AsyncPersistTest, MutationsContinueWhileCommitPends) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  {
    auto rt = PaxRuntime::attach(pm.get(), options()).value();
    rt->vpm_base()[8192] = std::byte{1};
    ASSERT_TRUE(rt->persist_async().ok());

    // Epoch 2 mutates the SAME byte and a new one while epoch 1 is pending.
    rt->vpm_base()[8192] = std::byte{2};
    rt->vpm_base()[12288] = std::byte{3};

    ASSERT_TRUE(rt->complete_persist().ok());  // epoch 1 durable
    // Crash now: epoch 2's mutations must vanish, epoch 1's stay.
  }
  pm->crash(pmem::CrashConfig::drop_all());
  auto rt = PaxRuntime::attach(pm.get(), options()).value();
  EXPECT_EQ(rt->committed_epoch(), 1u);
  EXPECT_EQ(rt->vpm_base()[8192], std::byte{1});
  EXPECT_EQ(rt->vpm_base()[12288], std::byte{0});
}

// sync_step() while a snapshot drains must not leak the live next epoch into
// it: after a crash the image is exactly epoch 1 (waited on) or epoch 2.
TEST(AsyncPersistTest, SyncStepDuringPendingCommitKeepsEpochsExact) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  {
    auto rt = PaxRuntime::attach(pm.get(), options()).value();
    rt->vpm_base()[8192] = std::byte{5};
    auto first = rt->persist_async();
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(rt->wait_persisted(first.value()).ok());
    rt->vpm_base()[8192] = std::byte{6};
    ASSERT_TRUE(rt->persist_async().ok());
    rt->vpm_base()[8192] = std::byte{7};  // epoch 3, never sealed
    rt->sync_step();  // must not push while epoch 2 drains
  }
  pm->crash(pmem::CrashConfig::drop_all());
  auto rt = PaxRuntime::attach(pm.get(), options()).value();
  const Epoch e = rt->committed_epoch();
  ASSERT_GE(e, 1u);
  ASSERT_LE(e, 2u);
  EXPECT_EQ(rt->vpm_base()[8192], static_cast<std::byte>(4 + e));
}

// persist_async(), persist(), sync_step() and wait_persisted() interleaved on
// one runtime, then a crash. Epoch k writes byte k at its own line, k into a
// shared byte, and k across an 8-page span, so every committed epoch has
// exactly one recoverable image.
TEST(AsyncPersistTest, InterleavedEntryPointsRecoverAnExactEpoch) {
  constexpr std::size_t kShared = 8192;
  constexpr std::size_t kLines = 12288;
  constexpr std::size_t kSpan = 65536;
  constexpr std::size_t kSpanBytes = 8 * kPageSize;
  constexpr Epoch kEpochs = 16;
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  Epoch waited = 0;
  {
    auto rt = PaxRuntime::attach(pm.get(), options()).value();
    std::uint64_t queued = 0;
    for (Epoch k = 1; k <= kEpochs; ++k) {
      const auto v = static_cast<std::byte>(k);
      rt->vpm_base()[kShared] = v;
      rt->vpm_base()[kLines + k * kCacheLineSize] = v;
      std::memset(rt->vpm_base() + kSpan, static_cast<int>(k), kSpanBytes);
      if (k % 4 == 2) {
        const PipelineStats before = rt->pipeline_stats();
        auto e = rt->persist();
        ASSERT_TRUE(e.ok());
        ASSERT_EQ(e.value(), k);
        // Every earlier queued epoch committed first, and persist() copied
        // no page.
        const PipelineStats after = rt->pipeline_stats();
        EXPECT_EQ(after.jobs_drained, queued);
        EXPECT_EQ(after.pages_snapshotted, before.pages_snapshotted);
        EXPECT_EQ(rt->committed_epoch(), k);
        waited = k;
        continue;
      }
      auto e = rt->persist_async();
      ASSERT_TRUE(e.ok());
      ASSERT_EQ(e.value(), k);
      ++queued;
      if (k % 4 == 3) rt->sync_step();
      if (k % 4 == 0) {
        ASSERT_TRUE(rt->wait_persisted(k).ok());
        waited = k;
      }
    }
    // Garbage of a never-sealed epoch, pushed into the device by sync_step
    // once the queue is idle (or not, if it is still draining).
    std::memset(rt->vpm_base() + kSpan, 0xEE, kSpanBytes);
    rt->vpm_base()[kShared] = std::byte{0xEE};
    rt->sync_step();
  }
  pm->crash(pmem::CrashConfig::drop_all());
  auto rt = PaxRuntime::attach(pm.get(), options()).value();
  const Epoch e = rt->committed_epoch();
  ASSERT_GE(e, waited);
  ASSERT_LE(e, kEpochs);
  EXPECT_EQ(rt->vpm_base()[kShared], static_cast<std::byte>(e));
  for (Epoch k = 1; k <= kEpochs; ++k) {
    EXPECT_EQ(rt->vpm_base()[kLines + k * kCacheLineSize],
              k <= e ? static_cast<std::byte>(k) : std::byte{0})
        << "epoch line " << k;
  }
  for (std::size_t i = 0; i < kSpanBytes; i += 509) {
    ASSERT_EQ(rt->vpm_base()[kSpan + i], static_cast<std::byte>(e))
        << "span byte " << i;
  }
}

TEST(AsyncPersistTest, BackToBackAsyncPersistsCommitInOrder) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  auto rt = PaxRuntime::attach(pm.get(), options()).value();
  for (int e = 1; e <= 5; ++e) {
    rt->vpm_base()[8192 + e * 64] = static_cast<std::byte>(e);
    auto sealed = rt->persist_async();  // queues behind the previous one
    ASSERT_TRUE(sealed.ok());
    EXPECT_EQ(sealed.value(), static_cast<Epoch>(e));
  }
  ASSERT_TRUE(rt->wait_persisted(5).ok());
  EXPECT_EQ(rt->committed_epoch(), 5u);
}

TEST(AsyncPersistTest, UnorderedMapAcrossAsyncEpochsWithCrash) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  {
    auto rt = PaxRuntime::attach(pm.get(), options()).value();
    auto map = Persistent<PMap>::open(*rt).value();
    for (std::uint64_t k = 0; k < 200; ++k) (*map)[k] = k;
    ASSERT_TRUE(rt->persist_async().ok());
    // Keep mutating during the pending commit.
    for (std::uint64_t k = 200; k < 400; ++k) (*map)[k] = k;
    ASSERT_TRUE(rt->complete_persist().ok());  // epoch 1: keys 0..199
    // Epoch 2 (keys 200..399) never commits: sync_step pushes its data
    // into the device without committing it.
    rt->sync_step();
  }
  pm->crash(pmem::CrashConfig::drop_all());
  auto rt = PaxRuntime::attach(pm.get(), options()).value();
  auto map = Persistent<PMap>::open(*rt).value();
  ASSERT_EQ(rt->committed_epoch(), 1u);
  ASSERT_EQ(map->size(), 200u);
  for (std::uint64_t k = 0; k < 200; ++k) ASSERT_EQ(map->at(k), k);
}

TEST(AsyncPersistTest, MixedSyncAndAsyncPersists) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  {
    auto rt = PaxRuntime::attach(pm.get(), options()).value();
    auto map = Persistent<PMap>::open(*rt).value();
    (*map)[1] = 1;
    ASSERT_TRUE(rt->persist().ok());        // epoch 1 (sync)
    (*map)[2] = 2;
    ASSERT_TRUE(rt->persist_async().ok());  // epoch 2 queued
    (*map)[3] = 3;
    ASSERT_TRUE(rt->persist().ok());        // waits for 2, commits 3
    EXPECT_EQ(rt->committed_epoch(), 3u);
  }
  pm->crash(pmem::CrashConfig::drop_all());
  auto rt = PaxRuntime::attach(pm.get(), options()).value();
  auto map = Persistent<PMap>::open(*rt).value();
  EXPECT_EQ(map->size(), 3u);
}

}  // namespace
}  // namespace pax::libpax
