// Tests of epoch replication to a backup pool (§6 "fault tolerance via
// remote memory"): lockstep and lagging replication, failover after total
// primary loss, crash-during-replication, and end-to-end failover of a
// black-box libpax container.
#include "pax/device/replication.hpp"

#include <gtest/gtest.h>

#include <unordered_map>

#include "pax/device/recovery.hpp"
#include "pax/libpax/persistent.hpp"
#include "test_util.hpp"

namespace pax::device {
namespace {

using testing::patterned_line;
using testing::TestPool;

struct ReplicationFixture : ::testing::Test {
  TestPool primary = TestPool::create(4 << 20, 256 * 1024);
  TestPool backup = TestPool::create(4 << 20, 256 * 1024);

  DeviceConfig config() {
    DeviceConfig c;
    c.hbm.capacity_lines = 64;
    c.hbm.ways = 4;
    return c;
  }
};

TEST_F(ReplicationFixture, SynchronousReplicationKeepsLockstep) {
  PaxDevice dev(&primary.pool, config());
  auto repl =
      Replicator::create(&backup.pool, config(), /*sync=*/true).value();
  dev.set_commit_hook(repl->commit_hook());

  for (Epoch e = 0; e < 5; ++e) {
    ASSERT_TRUE(dev.write_intent(primary.data_line(e)).is_ok());
    dev.writeback_line(primary.data_line(e), patterned_line(10 + e));
    ASSERT_TRUE(dev.persist(nullptr).ok());
    EXPECT_EQ(repl->backup_committed_epoch(), e + 1);
  }
  for (Epoch e = 0; e < 5; ++e) {
    EXPECT_EQ(backup.device->durable_line(backup.data_line(e)),
              patterned_line(10 + e));
  }
  EXPECT_EQ(repl->stats().epochs_applied, 5u);
}

TEST_F(ReplicationFixture, AsynchronousReplicationLagsAndCatchesUp) {
  PaxDevice dev(&primary.pool, config());
  auto repl =
      Replicator::create(&backup.pool, config(), /*sync=*/false).value();
  dev.set_commit_hook(repl->commit_hook());

  for (Epoch e = 0; e < 3; ++e) {
    ASSERT_TRUE(dev.write_intent(primary.data_line(e)).is_ok());
    dev.writeback_line(primary.data_line(e), patterned_line(e));
    ASSERT_TRUE(dev.persist(nullptr).ok());
  }
  EXPECT_EQ(repl->pending_epochs(), 3u);
  EXPECT_EQ(repl->backup_committed_epoch(), 0u);  // lagging

  auto caught_up = repl->apply_pending();
  ASSERT_TRUE(caught_up.ok());
  EXPECT_EQ(caught_up.value(), 3u);
  EXPECT_EQ(repl->pending_epochs(), 0u);
}

TEST_F(ReplicationFixture, FailoverAfterTotalPrimaryLoss) {
  {
    PaxDevice dev(&primary.pool, config());
    auto repl =
        Replicator::create(&backup.pool, config(), /*sync=*/true).value();
    dev.set_commit_hook(repl->commit_hook());
    for (Epoch e = 0; e < 4; ++e) {
      ASSERT_TRUE(dev.write_intent(primary.data_line(e)).is_ok());
      dev.writeback_line(primary.data_line(e), patterned_line(100 + e));
      ASSERT_TRUE(dev.persist(nullptr).ok());
    }
    // Primary machine dies entirely: its PM is gone (not just volatile).
    // Nothing of `primary` is consulted from here on.
  }
  backup.device->crash(pmem::CrashConfig::drop_all());  // backup power-cycles

  auto pool = pmem::PmemPool::open(backup.device.get()).value();
  ASSERT_TRUE(recover_pool(pool).ok());
  EXPECT_EQ(pool.committed_epoch(), 4u);
  for (Epoch e = 0; e < 4; ++e) {
    EXPECT_EQ(backup.device->durable_line(backup.data_line(e)),
              patterned_line(100 + e));
  }

  // The backup now serves as the new primary.
  PaxDevice new_primary(&pool, config());
  EXPECT_EQ(new_primary.current_epoch(), 5u);
  ASSERT_TRUE(new_primary.write_intent(backup.data_line(9)).is_ok());
  new_primary.writeback_line(backup.data_line(9), patterned_line(9));
  ASSERT_TRUE(new_primary.persist(nullptr).ok());
  EXPECT_EQ(pool.committed_epoch(), 5u);
}

TEST_F(ReplicationFixture, CrashDuringReplicationLeavesBackupConsistent) {
  PaxDevice dev(&primary.pool, config());
  auto repl =
      Replicator::create(&backup.pool, config(), /*sync=*/false).value();
  dev.set_commit_hook(repl->commit_hook());

  // Epoch 1 fully replicated.
  ASSERT_TRUE(dev.write_intent(primary.data_line(0)).is_ok());
  dev.writeback_line(primary.data_line(0), patterned_line(1));
  ASSERT_TRUE(dev.persist(nullptr).ok());
  ASSERT_TRUE(repl->apply_pending().ok());

  // Epoch 2 committed on the primary; the backup crashes mid-apply (the
  // backup device staged work but its persist never ran).
  ASSERT_TRUE(dev.write_intent(primary.data_line(0)).is_ok());
  dev.writeback_line(primary.data_line(0), patterned_line(2));
  ASSERT_TRUE(dev.persist(nullptr).ok());
  // Simulate the torn apply: crash the backup PM with epoch 2 queued.
  backup.device->crash(pmem::CrashConfig::drop_all());

  auto pool = pmem::PmemPool::open(backup.device.get()).value();
  ASSERT_TRUE(recover_pool(pool).ok());
  EXPECT_EQ(pool.committed_epoch(), 1u);  // clean prefix
  EXPECT_EQ(backup.device->durable_line(backup.data_line(0)),
            patterned_line(1));
}

TEST_F(ReplicationFixture, ReplicationGapDetected) {
  auto repl =
      Replicator::create(&backup.pool, config(), /*sync=*/false).value();
  // Hand-feed an out-of-order epoch through the hook.
  auto hook = repl->commit_hook();
  hook(3, {{backup.data_line(0), patterned_line(1)}});  // backup is at 0
  auto applied = repl->apply_pending();
  EXPECT_FALSE(applied.ok());
  EXPECT_EQ(applied.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ReplicationFixture, DuplicateEpochsSkippedIdempotently) {
  auto repl =
      Replicator::create(&backup.pool, config(), /*sync=*/false).value();
  auto hook = repl->commit_hook();
  hook(1, {{backup.data_line(0), patterned_line(1)}});
  ASSERT_TRUE(repl->apply_pending().ok());
  // Re-shipped after a channel hiccup: must be a no-op.
  hook(1, {{backup.data_line(0), patterned_line(1)}});
  hook(2, {{backup.data_line(0), patterned_line(2)}});
  auto applied = repl->apply_pending();
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(applied.value(), 2u);
  EXPECT_EQ(backup.device->durable_line(backup.data_line(0)),
            patterned_line(2));
}

TEST_F(ReplicationFixture, BatchedApplyMatchesPerLineApply) {
  TestPool backup2 = TestPool::create(4 << 20, 256 * 1024);
  PaxDevice dev(&primary.pool, config());

  ReplicatorOptions per_line;
  per_line.batched = false;
  ReplicatorOptions batched;
  batched.batched = true;
  batched.batch_lines = 4;  // tiny, so every epoch spans several batches
  auto repl_a =
      Replicator::create(&backup.pool, config(), /*sync=*/false, per_line)
          .value();
  auto repl_b =
      Replicator::create(&backup2.pool, config(), /*sync=*/false, batched)
          .value();
  auto hook_a = repl_a->commit_hook();
  auto hook_b = repl_b->commit_hook();
  dev.set_commit_hook(
      [&](Epoch e,
          const std::vector<std::pair<LineIndex, LineData>>& lines) {
        hook_a(e, lines);
        hook_b(e, lines);
      });

  // Strided lines so each epoch's update set crosses many stripes.
  for (Epoch e = 0; e < 4; ++e) {
    for (std::uint64_t i = 0; i < 40; ++i) {
      const LineIndex line = primary.data_line(i * 7 + e);
      ASSERT_TRUE(dev.write_intent(line).is_ok());
      dev.writeback_line(line, patterned_line(e * 100 + i));
    }
    ASSERT_TRUE(dev.persist(nullptr).ok());
  }
  ASSERT_TRUE(repl_a->apply_pending().ok());
  ASSERT_TRUE(repl_b->apply_pending().ok());

  EXPECT_EQ(repl_a->backup_committed_epoch(), 4u);
  EXPECT_EQ(repl_b->backup_committed_epoch(), 4u);
  EXPECT_EQ(repl_a->stats().lines_shipped, repl_b->stats().lines_shipped);
  EXPECT_EQ(repl_a->stats().batches_shipped, 0u);
  EXPECT_GT(repl_b->stats().batches_shipped, 4u);  // > 1 batch per epoch

  // Bit-identical durable state: the batched frontend is a pure transport
  // change, not a semantic one.
  for (std::uint64_t i = 0; i < 300; ++i) {
    ASSERT_EQ(backup.device->durable_line(backup.data_line(i)),
              backup2.device->durable_line(backup2.data_line(i)))
        << "line " << i;
  }
}

TEST(ReplicationEndToEnd, LibpaxMapFailsOverToBackup) {
  using MapAlloc =
      libpax::PaxStlAllocator<std::pair<const std::uint64_t, std::uint64_t>>;
  using PMap = std::unordered_map<std::uint64_t, std::uint64_t,
                                  std::hash<std::uint64_t>,
                                  std::equal_to<std::uint64_t>, MapAlloc>;

  auto primary_pm = pmem::PmemDevice::create_in_memory(32 << 20);
  auto backup_pm = pmem::PmemDevice::create_in_memory(32 << 20);

  libpax::RuntimeOptions opts;
  opts.log_size = 2 << 20;
  std::uintptr_t primary_base;
  {
    auto rt = libpax::PaxRuntime::attach(primary_pm.get(), opts).value();
    primary_base = reinterpret_cast<std::uintptr_t>(rt->vpm_base());
    // Format the backup with identical geometry and wire the replicator.
    auto backup_pool =
        pmem::PmemPool::create(backup_pm.get(), opts.log_size).value();
    auto repl = Replicator::create(&backup_pool, opts.device, /*sync=*/true)
                    .value();
    rt->device().set_commit_hook(repl->commit_hook());

    auto map = libpax::Persistent<PMap>::open(*rt).value();
    for (std::uint64_t k = 0; k < 300; ++k) (*map)[k] = k * 9;
    ASSERT_TRUE(rt->persist().ok());
    for (std::uint64_t k = 300; k < 400; ++k) (*map)[k] = 1;  // unreplicated
    // Primary dies entirely (its PM object is dropped below).
  }
  primary_pm.reset();

  // Failover: open the backup at the address the primary used, so the
  // map's internal pointers stay valid (on a real cluster both nodes share
  // the fixed mapping hint; in-process the hint must be explicit).
  libpax::RuntimeOptions failover_opts = opts;
  failover_opts.vpm_base_hint = primary_base;
  auto rt = libpax::PaxRuntime::attach(backup_pm.get(), failover_opts).value();
  auto map = libpax::Persistent<PMap>::open(*rt).value();
  EXPECT_TRUE(map.recovered());
  ASSERT_EQ(map->size(), 300u);
  for (std::uint64_t k = 0; k < 300; ++k) ASSERT_EQ(map->at(k), k * 9);
}

}  // namespace
}  // namespace pax::device
