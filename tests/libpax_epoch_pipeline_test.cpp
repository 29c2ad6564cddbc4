// Pipelined-epoch tests: persist_async() copies the dirty set into an
// epoch snapshot and returns while a background drain worker runs
// diff → sync → commit. These tests cover snapshot
// isolation (epoch N+1 mutations must never leak into epoch N's image),
// in-order commits, back-pressure, the lock-free log ring, and crash
// behavior with snapshots still queued.
#include <gtest/gtest.h>

#include <cstring>
#include <unordered_map>

#include "pax/libpax/persistent.hpp"

namespace pax::libpax {
namespace {

constexpr std::size_t kPool = 32 << 20;

RuntimeOptions options(std::size_t ring = 0) {
  RuntimeOptions o;
  o.log_size = 4 << 20;
  o.device.log_flush_batch_bytes = 0;
  o.log_ring_slots = ring;
  return o;
}

using MapAlloc =
    PaxStlAllocator<std::pair<const std::uint64_t, std::uint64_t>>;
using PMap = std::unordered_map<std::uint64_t, std::uint64_t,
                                std::hash<std::uint64_t>,
                                std::equal_to<std::uint64_t>, MapAlloc>;

TEST(EpochPipelineTest, PipelinedPersistIsDurable) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  {
    auto rt = PaxRuntime::attach(pm.get(), options()).value();
    rt->vpm_base()[8192] = std::byte{0x41};
    ASSERT_TRUE(rt->persist().ok());  // commits on this thread
    EXPECT_EQ(rt->committed_epoch(), 1u);
  }
  pm->crash(pmem::CrashConfig::drop_all());
  auto rt = PaxRuntime::attach(pm.get(), options()).value();
  EXPECT_EQ(rt->committed_epoch(), 1u);
  EXPECT_EQ(rt->vpm_base()[8192], std::byte{0x41});
}

TEST(EpochPipelineTest, SnapshotIsolatesEpochFromLaterMutations) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  {
    auto rt = PaxRuntime::attach(pm.get(), options()).value();
    rt->vpm_base()[8192] = std::byte{1};
    auto sealed = rt->persist_async();
    ASSERT_TRUE(sealed.ok());
    // Epoch 2 overwrites the SAME byte while epoch 1's drain may still be
    // in flight. The drain must push epoch 1's snapshot, not this value.
    rt->vpm_base()[8192] = std::byte{2};
    rt->vpm_base()[12288] = std::byte{3};
    auto committed = rt->complete_persist();
    ASSERT_TRUE(committed.ok());
    EXPECT_EQ(committed.value(), 1u);
    // Epoch 2 never persists; crash below must roll it back.
  }
  pm->crash(pmem::CrashConfig::drop_all());
  auto rt = PaxRuntime::attach(pm.get(), options()).value();
  EXPECT_EQ(rt->committed_epoch(), 1u);
  EXPECT_EQ(rt->vpm_base()[8192], std::byte{1});
  EXPECT_EQ(rt->vpm_base()[12288], std::byte{0});
}

TEST(EpochPipelineTest, RevertedLineStillReachesTheDevice) {
  // ABA regression: a line changes in epoch 1 and reverts to its original
  // contents in epoch 2. If snapshot-time digests were applied lazily, the
  // epoch-2 diff would wrongly skip the line and the device would keep
  // epoch 1's value forever.
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  {
    auto rt = PaxRuntime::attach(pm.get(), options()).value();
    rt->vpm_base()[8192] = std::byte{0x55};
    ASSERT_TRUE(rt->persist().ok());  // epoch 1
    rt->vpm_base()[8192] = std::byte{0x00};  // revert to pre-epoch-1 value
    ASSERT_TRUE(rt->persist().ok());  // epoch 2
    EXPECT_EQ(rt->committed_epoch(), 2u);
  }
  pm->crash(pmem::CrashConfig::drop_all());
  auto rt = PaxRuntime::attach(pm.get(), options()).value();
  EXPECT_EQ(rt->committed_epoch(), 2u);
  EXPECT_EQ(rt->vpm_base()[8192], std::byte{0x00});
}

TEST(EpochPipelineTest, QueuedSnapshotsCommitInOrder) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  auto rt = PaxRuntime::attach(pm.get(), options()).value();
  for (int e = 1; e <= 6; ++e) {
    rt->vpm_base()[8192 + e * 64] = static_cast<std::byte>(e);
    auto sealed = rt->persist_async();
    ASSERT_TRUE(sealed.ok());
    EXPECT_EQ(sealed.value(), static_cast<Epoch>(e));
  }
  auto committed = rt->complete_persist();
  ASSERT_TRUE(committed.ok());
  // complete_persist waits for the oldest in-flight epoch only; wait for
  // the rest the same way applications would.
  while (rt->committed_epoch() < 6u) {
    ASSERT_TRUE(rt->complete_persist().ok());
  }
  EXPECT_EQ(rt->committed_epoch(), 6u);
  const PipelineStats ps = rt->pipeline_stats();
  EXPECT_EQ(ps.async_persists, 6u);
  EXPECT_EQ(ps.jobs_drained, 6u);
  EXPECT_GE(ps.pages_snapshotted, 6u);
}

TEST(EpochPipelineTest, BackPressureBoundsTheQueue) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  auto rt = PaxRuntime::attach(pm.get(), options()).value();
  // Large dirty footprint per epoch so drains take long enough for the
  // producer to catch the queue full at least once across many rounds.
  for (int e = 1; e <= 12; ++e) {
    std::memset(rt->vpm_base() + 4096, e, 1 << 20);
    ASSERT_TRUE(rt->persist_async().ok());
  }
  while (rt->committed_epoch() < 12u) {
    ASSERT_TRUE(rt->complete_persist().ok());
  }
  const PipelineStats ps = rt->pipeline_stats();
  EXPECT_EQ(ps.jobs_drained, 12u);
  EXPECT_LE(ps.queue_occupancy_max, PaxRuntime::kPipelineDepth);
}

TEST(EpochPipelineTest, AbandonedSnapshotsBehaveLikeACrash) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  {
    auto rt = PaxRuntime::attach(pm.get(), options()).value();
    rt->vpm_base()[8192] = std::byte{7};
    ASSERT_TRUE(rt->persist().ok());  // epoch 1 durable
    // Queue more epochs and tear down without waiting: whatever the drain
    // worker did not commit is lost, exactly like a crash.
    rt->vpm_base()[12288] = std::byte{8};
    ASSERT_TRUE(rt->persist_async().ok());
    rt->vpm_base()[16384] = std::byte{9};
    ASSERT_TRUE(rt->persist_async().ok());
  }
  pm->crash(pmem::CrashConfig::drop_all());
  auto rt = PaxRuntime::attach(pm.get(), options()).value();
  EXPECT_GE(rt->committed_epoch(), 1u);
  EXPECT_EQ(rt->vpm_base()[8192], std::byte{7});
  // Later epochs either committed wholly before teardown or rolled back
  // wholly — byte 12288 may be 8 (epoch 2 drained in time) or 0, but epoch
  // 3 cannot be durable without epoch 2.
  if (rt->committed_epoch() >= 3u) {
    EXPECT_EQ(rt->vpm_base()[12288], std::byte{8});
    EXPECT_EQ(rt->vpm_base()[16384], std::byte{9});
  } else if (rt->committed_epoch() == 2u) {
    EXPECT_EQ(rt->vpm_base()[12288], std::byte{8});
    EXPECT_EQ(rt->vpm_base()[16384], std::byte{0});
  } else {
    EXPECT_EQ(rt->vpm_base()[12288], std::byte{0});
    EXPECT_EQ(rt->vpm_base()[16384], std::byte{0});
  }
}

TEST(EpochPipelineTest, LogRingEliminatesAppendMutexAcquisitions) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  {
    auto rt = PaxRuntime::attach(pm.get(),
                                 options(/*ring=*/256))
                  .value();
    for (int e = 1; e <= 4; ++e) {
      std::memset(rt->vpm_base() + 4096, 0x30 + e, 64 << 10);
      ASSERT_TRUE(rt->persist().ok());
    }
    const auto ds = rt->device().stats();
    EXPECT_GT(ds.log_ring_appends, 0u);
    EXPECT_EQ(ds.log_append_acquisitions, 0u);
  }
  pm->crash(pmem::CrashConfig::drop_all());
  auto rt = PaxRuntime::attach(pm.get(), options()).value();
  EXPECT_EQ(rt->committed_epoch(), 4u);
  for (std::size_t i = 0; i < (64 << 10); i += 4097) {
    ASSERT_EQ(rt->vpm_base()[4096 + i], std::byte{0x34});
  }
}

TEST(EpochPipelineTest, ContainersSurvivePipelinedEpochs) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  {
    auto rt = PaxRuntime::attach(pm.get(), options()).value();
    auto map = Persistent<PMap>::open(*rt).value();
    for (std::uint64_t k = 0; k < 300; ++k) (*map)[k] = k * 3;
    ASSERT_TRUE(rt->persist_async().ok());
    for (std::uint64_t k = 300; k < 600; ++k) (*map)[k] = k * 3;
    ASSERT_TRUE(rt->persist().ok());  // commits 1 and 2 (in order)
    while (rt->committed_epoch() < 2u) {
      ASSERT_TRUE(rt->complete_persist().ok());
    }
  }
  pm->crash(pmem::CrashConfig::drop_all());
  auto rt = PaxRuntime::attach(pm.get(), options()).value();
  auto map = Persistent<PMap>::open(*rt).value();
  ASSERT_EQ(map->size(), 600u);
  for (std::uint64_t k = 0; k < 600; ++k) ASSERT_EQ(map->at(k), k * 3);
}

TEST(EpochPipelineTest, CompletePersistWithEmptyPipelineReportsCommitted) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  auto rt = PaxRuntime::attach(pm.get(), options()).value();
  auto committed = rt->complete_persist();  // nothing in flight
  ASSERT_TRUE(committed.ok());
  EXPECT_EQ(committed.value(), 0u);
}

TEST(EpochPipelineTest, StatsFoldDrainWorkerContribution) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  auto rt = PaxRuntime::attach(pm.get(), options()).value();
  std::memset(rt->vpm_base() + 4096, 0x11, 256 << 10);
  ASSERT_TRUE(rt->persist_async().ok());
  ASSERT_TRUE(rt->complete_persist().ok());
  EXPECT_EQ(rt->pipeline_stats().jobs_drained, 1u);
  const RuntimeStats rs = rt->stats();
  const SyncStats ss = rt->sync_stats();
  EXPECT_GT(rs.device_calls, 0u);
  EXPECT_GT(rs.sync_batches, 0u);
  EXPECT_GT(ss.pages_scanned, 0u);
  EXPECT_GT(ss.lines_synced, 0u);
  EXPECT_EQ(ss.lines_diffed + ss.lines_skipped,
            ss.pages_scanned * kLinesPerPage);
}

}  // namespace
}  // namespace pax::libpax
