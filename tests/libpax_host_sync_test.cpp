// The batched host sync path: every batch size must persist exactly the
// committed image, with one peek per page and one
// device call per batch; plus the vPM region's coalesced re-protection and
// dirty-counter early-out.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "pax/libpax/runtime.hpp"
#include "pax/libpax/vpm_region.hpp"

namespace pax::libpax {
namespace {

constexpr std::size_t kPool = 16 << 20;

RuntimeOptions batched_opts() {
  RuntimeOptions o;
  o.log_size = 256 * 1024;
  o.sync_batch_lines = 64;
  return o;
}

// One-line batches: the smallest sync_lines calls.
RuntimeOptions single_line_opts() {
  RuntimeOptions o;
  o.log_size = 256 * 1024;
  o.sync_batch_lines = 1;
  return o;
}

constexpr std::size_t kSchedulePages = 23;  // pages [0, 23) of the region

// The bytes run_schedule writes at `round` into page p (1..20).
std::size_t schedule_offset(int round, std::size_t p) {
  return p * kPageSize + (round * 256) % kPageSize;
}
int schedule_byte(int round, std::size_t p) {
  return 0x10 + round * 16 + static_cast<int>(p);
}
constexpr std::size_t kScheduleLen = 192;

// Applies the same deterministic mutation/persist schedule to a runtime.
void run_schedule(PaxRuntime& rt) {
  for (int round = 0; round < 4; ++round) {
    for (std::size_t p = 1; p <= 20; ++p) {
      // Partial-page writes: some lines per page change, some don't.
      std::memset(rt.vpm_base() + schedule_offset(round, p),
                  schedule_byte(round, p), kScheduleLen);
    }
    if (round % 2 == 0) {
      ASSERT_TRUE(rt.persist().ok());
    } else {
      ASSERT_TRUE(rt.persist_async().ok());
      ASSERT_TRUE(rt.complete_persist().ok());
    }
  }
  // Leave uncommitted garbage behind; it must vanish at the crash.
  std::memset(rt.vpm_base() + 21 * kPageSize, 0xee, 2 * kPageSize);
  rt.sync_step();
}

// The oracle: run_schedule's committed stores replayed into a plain buffer
// over a zeroed pool. Page 0 (heap metadata) is not modelled.
std::vector<std::byte> expected_schedule_image() {
  std::vector<std::byte> image(kSchedulePages * kPageSize);
  for (int round = 0; round < 4; ++round) {
    for (std::size_t p = 1; p <= 20; ++p) {
      std::memset(image.data() + schedule_offset(round, p),
                  schedule_byte(round, p), kScheduleLen);
    }
  }
  return image;
}

TEST(HostSyncEquivalenceTest, BatchedRecoversTheCommittedImage) {
  const std::vector<std::byte> expected = expected_schedule_image();
  for (const RuntimeOptions& opts : {batched_opts(), single_line_opts()}) {
    SCOPED_TRACE(testing::Message()
                 << "sync_batch_lines=" << opts.sync_batch_lines);
    auto pm = pmem::PmemDevice::create_in_memory(kPool);
    Epoch committed = 0;
    {
      auto rt = PaxRuntime::attach(pm.get(), opts).value();
      run_schedule(*rt);
      EXPECT_GT(rt->stats().sync_batches, 0u);
      committed = rt->committed_epoch();
    }
    pm->crash(pmem::CrashConfig::drop_all());
    auto rt = PaxRuntime::attach(pm.get(), opts).value();
    EXPECT_EQ(rt->committed_epoch(), committed);
    ASSERT_GE(rt->vpm_size(), expected.size());
    EXPECT_EQ(std::memcmp(rt->vpm_base() + kPageSize,
                          expected.data() + kPageSize,
                          expected.size() - kPageSize),
              0);
  }
}

TEST(HostSyncEquivalenceTest, DeviceCallAccounting) {
  // 8 fully-dirtied pages: batching pays one peek per page and one sync per
  // batch; one-line batches pay one sync per dirty line.
  for (const RuntimeOptions& opts : {batched_opts(), single_line_opts()}) {
    SCOPED_TRACE(testing::Message()
                 << "sync_batch_lines=" << opts.sync_batch_lines);
    auto rt = PaxRuntime::create_in_memory(kPool, opts).value();
    ASSERT_TRUE(rt->persist().ok());  // settle heap-format writes
    const RuntimeStats rb = rt->stats();
    const SyncStats sb = rt->sync_stats();

    for (std::size_t p = 1; p <= 8; ++p) {
      std::memset(rt->vpm_base() + p * kPageSize, 0x5a, kPageSize);
    }
    ASSERT_TRUE(rt->persist().ok());
    const RuntimeStats rs = rt->stats();
    const SyncStats ss = rt->sync_stats();

    const std::uint64_t dirty = ss.lines_synced - sb.lines_synced;
    EXPECT_EQ(dirty, 8 * kLinesPerPage);
    // One peek_lines per page + one sync_lines per full batch.
    EXPECT_EQ(rs.sync_batches - rb.sync_batches,
              dirty / opts.sync_batch_lines);
    EXPECT_EQ(rs.device_calls - rb.device_calls,
              (ss.pages_scanned - sb.pages_scanned) +
                  (rs.sync_batches - rb.sync_batches));

    // Second round on the same pages, whose digests are now valid: a
    // changed digest proves the line changed, so nothing is peeked.
    for (std::size_t p = 1; p <= 8; ++p) {
      std::memset(rt->vpm_base() + p * kPageSize, 0xa5, kPageSize);
    }
    ASSERT_TRUE(rt->persist().ok());
    const RuntimeStats r2 = rt->stats();
    const SyncStats s2 = rt->sync_stats();
    EXPECT_EQ(s2.lines_synced - ss.lines_synced, 8 * kLinesPerPage);
    EXPECT_EQ(r2.sync_batches - rs.sync_batches,
              8 * kLinesPerPage / opts.sync_batch_lines);
    EXPECT_EQ(r2.device_calls - rs.device_calls,
              r2.sync_batches - rs.sync_batches);
  }
}

TEST(HostSyncEquivalenceTest, ReattachedRuntimeSyncsOnlyTheChangedLine) {
  // A re-attached runtime has no digests: its first diff of a page peeks
  // the device copy, so an 8-byte store still costs one synced line.
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  {
    auto rt = PaxRuntime::attach(pm.get(), batched_opts()).value();
    std::memset(rt->vpm_base() + 3 * kPageSize, 0x3c, kPageSize);
    ASSERT_TRUE(rt->persist().ok());
  }
  auto rt = PaxRuntime::attach(pm.get(), batched_opts()).value();
  ASSERT_TRUE(rt->persist().ok());  // settle any heap-recovery writes
  const std::uint64_t logs = rt->device().stats().first_touch_logs;
  const std::uint64_t value = 0x0123456789abcdefULL;
  std::memcpy(rt->vpm_base() + 3 * kPageSize + 8 * kCacheLineSize, &value,
              sizeof(value));
  const RuntimeStats rb = rt->stats();
  const SyncStats sb = rt->sync_stats();
  ASSERT_TRUE(rt->persist().ok());
  EXPECT_EQ(rt->sync_stats().lines_synced - sb.lines_synced, 1u);
  EXPECT_EQ(rt->sync_stats().digest_rebuilds - sb.digest_rebuilds, 1u);
  EXPECT_EQ(rt->stats().device_calls - rb.device_calls, 2u);  // peek + sync
  EXPECT_EQ(rt->device().stats().first_touch_logs - logs, 1u);
}

TEST(HostSyncEquivalenceTest, SnapshotReadsAnyAlignment) {
  auto rt = PaxRuntime::create_in_memory(kPool, batched_opts()).value();
  for (std::size_t i = 0; i < 3 * kPageSize; ++i) {
    rt->vpm_base()[kPageSize + i] = static_cast<std::byte>((i * 7 + 1) & 0xff);
  }
  ASSERT_TRUE(rt->persist().ok());
  // Overwrite after the commit: snapshot reads must not see this.
  std::memset(rt->vpm_base() + kPageSize, 0xff, 3 * kPageSize);

  // Unaligned offsets/sizes spanning lines, pages, and the chunk buffer.
  const std::size_t cases[][2] = {{kPageSize, 3 * kPageSize},
                                  {kPageSize + 1, 100},
                                  {kPageSize + 63, 2},
                                  {2 * kPageSize - 5, kPageSize + 11},
                                  {kPageSize + 4095, 4097}};
  for (const auto& c : cases) {
    std::vector<std::byte> out(c[1]);
    rt->read_snapshot(c[0], out);
    for (std::size_t i = 0; i < out.size(); ++i) {
      const std::size_t rel = c[0] + i - kPageSize;
      ASSERT_EQ(out[i], static_cast<std::byte>((rel * 7 + 1) & 0xff))
          << "offset " << c[0] << " byte " << i;
    }
  }
}

TEST(VpmRegionBatchingTest, OneWriteProtectIoctlPerSeal) {
  auto region = VpmRegion::create(64 * kPageSize).value();
  ASSERT_TRUE(region->protect_all().is_ok());
  // Write three runs: {3,4,5}, {10}, {20,21}.
  for (std::size_t p : {3, 4, 5, 10, 20, 21}) {
    region->base()[p * kPageSize] = std::byte{1};
  }
  const auto base_calls = region->protect_syscall_count();
  auto taken = region->take_written();
  ASSERT_TRUE(taken.ok());
  ASSERT_EQ(taken.value().size(), 6u);
  // One PAGEMAP_SCAN both reports and re-protects every run.
  EXPECT_EQ(region->protect_syscall_count() - base_calls, 1u);
  EXPECT_TRUE(region->written_pages().value().empty());
  // The read-only scan protects nothing.
  EXPECT_EQ(region->protect_syscall_count() - base_calls, 1u);

  // Re-protected pages are tracked again on the next write.
  const auto base_faults = region->fault_count();
  region->base()[4 * kPageSize] = std::byte{2};
  EXPECT_EQ(region->fault_count() - base_faults, 1u);
  ASSERT_EQ(region->written_pages().value().size(), 1u);
  EXPECT_EQ(region->written_pages().value()[0], PageIndex{4});
}

TEST(VpmRegionBatchingTest, CleanRegionReportsNothing) {
  auto region = VpmRegion::create(16 * kPageSize).value();
  ASSERT_TRUE(region->protect_all().is_ok());
  EXPECT_TRUE(region->written_pages().value().empty());
  EXPECT_TRUE(region->take_written().value().empty());

  region->base()[5 * kPageSize + 9] = std::byte{1};
  region->base()[5 * kPageSize + 10] = std::byte{2};  // same page: once
  auto dirty = region->written_pages().value();
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0], PageIndex{5});
}

}  // namespace
}  // namespace pax::libpax
