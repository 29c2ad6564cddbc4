// Snapshot-isolated reads (read_committed_line / read_snapshot): the last
// committed epoch stays readable while writers mutate — across staged and
// unstaged mutations, repeated write-backs, and epoch transitions.
#include <gtest/gtest.h>

#include <cstring>

#include "pax/device/pax_device.hpp"
#include "pax/libpax/runtime.hpp"
#include "test_util.hpp"

namespace pax {
namespace {

using testing::patterned_line;
using testing::TestPool;

struct SnapshotDeviceFixture : ::testing::Test {
  TestPool tp = TestPool::create(4 << 20, 256 * 1024);
  device::PaxDevice dev{&tp.pool, device::DeviceConfig::defaults()};
};

TEST_F(SnapshotDeviceFixture, UnmodifiedLineReadsThrough) {
  tp.device->store_line(tp.data_line(0), patterned_line(5));
  tp.device->flush_line(tp.data_line(0));
  EXPECT_EQ(dev.read_committed_line(tp.data_line(0)), patterned_line(5));
}

TEST_F(SnapshotDeviceFixture, ModifiedLineReturnsPreImage) {
  // Commit epoch 1 with value A.
  ASSERT_TRUE(dev.write_intent(tp.data_line(0)).is_ok());
  dev.writeback_line(tp.data_line(0), patterned_line(1));
  ASSERT_TRUE(dev.persist(nullptr).ok());

  // Epoch 2 modifies to B (staged + even proactively written back).
  ASSERT_TRUE(dev.write_intent(tp.data_line(0)).is_ok());
  dev.writeback_line(tp.data_line(0), patterned_line(2));
  dev.tick(/*force_flush=*/true);

  // The live view is B; the committed view is still A.
  EXPECT_EQ(dev.peek_line(tp.data_line(0)), patterned_line(2));
  EXPECT_EQ(dev.read_committed_line(tp.data_line(0)), patterned_line(1));

  // After commit, the committed view advances.
  ASSERT_TRUE(dev.persist(nullptr).ok());
  EXPECT_EQ(dev.read_committed_line(tp.data_line(0)), patterned_line(2));
}

TEST_F(SnapshotDeviceFixture, RewrittenLineStillReadsLastCommitted) {
  ASSERT_TRUE(dev.write_intent(tp.data_line(0)).is_ok());
  dev.writeback_line(tp.data_line(0), patterned_line(1));
  ASSERT_TRUE(dev.persist(nullptr).ok());  // committed: 1

  // Epoch 2 writes the line back twice, the first value reaching PM before
  // the second arrives.
  ASSERT_TRUE(dev.write_intent(tp.data_line(0)).is_ok());
  dev.writeback_line(tp.data_line(0), patterned_line(2));
  dev.tick(/*force_flush=*/true);
  ASSERT_TRUE(dev.write_intent(tp.data_line(0)).is_ok());
  dev.writeback_line(tp.data_line(0), patterned_line(3));

  // Committed is still 1: the epoch's one record holds the boundary value,
  // not the intermediate 2.
  EXPECT_EQ(dev.peek_line(tp.data_line(0)), patterned_line(3));
  EXPECT_EQ(dev.read_committed_line(tp.data_line(0)), patterned_line(1));

  ASSERT_TRUE(dev.persist(nullptr).ok());  // committed: 2
  EXPECT_EQ(dev.read_committed_line(tp.data_line(0)), patterned_line(3));
}

TEST(SnapshotRuntimeTest, ReadersSeeOnlyCommittedState) {
  auto rt = libpax::PaxRuntime::create_in_memory(16 << 20).value();
  std::memset(rt->vpm_base() + 8192, 0x11, 256);
  ASSERT_TRUE(rt->persist().ok());

  // Mutate: half staged via sync_step, half only in the region.
  std::memset(rt->vpm_base() + 8192, 0x22, 128);
  rt->sync_step();
  std::memset(rt->vpm_base() + 8192 + 128, 0x33, 128);

  // Live view has the new bytes...
  EXPECT_EQ(rt->vpm_base()[8192], std::byte{0x22});
  EXPECT_EQ(rt->vpm_base()[8192 + 128], std::byte{0x33});

  // ...the snapshot view has the committed ones, for both halves.
  std::array<std::byte, 256> snap{};
  rt->read_snapshot(8192, snap);
  for (int i = 0; i < 256; ++i) {
    ASSERT_EQ(snap[i], std::byte{0x11}) << i;
  }

  // Commit and re-read: the snapshot advances.
  ASSERT_TRUE(rt->persist().ok());
  rt->read_snapshot(8192, snap);
  EXPECT_EQ(snap[0], std::byte{0x22});
  EXPECT_EQ(snap[128], std::byte{0x33});
}

TEST(SnapshotRuntimeTest, UnalignedRangesSpanLines) {
  auto rt = libpax::PaxRuntime::create_in_memory(16 << 20).value();
  for (int i = 0; i < 200; ++i) {
    rt->vpm_base()[8192 + i] = static_cast<std::byte>(i);
  }
  ASSERT_TRUE(rt->persist().ok());
  std::memset(rt->vpm_base() + 8192, 0xff, 200);  // doomed overwrite

  std::array<std::byte, 100> snap{};
  rt->read_snapshot(8192 + 50, snap);  // straddles two lines, unaligned
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(snap[i], static_cast<std::byte>(50 + i)) << i;
  }
}

}  // namespace
}  // namespace pax
