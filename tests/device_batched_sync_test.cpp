// Batched device frontend: sync_lines (fused write_intent + writeback_line
// with grouped undo logging), peek_lines, and read_committed_lines must be
// observationally identical to the per-line calls they amortize.
#include "pax/device/pax_device.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <span>
#include <vector>

#include "test_util.hpp"

namespace pax::device {
namespace {

using testing::patterned_line;
using testing::TestPool;

struct BatchedSyncFixture : ::testing::Test {
  TestPool tp = TestPool::create();

  DeviceConfig config(unsigned stripes = 8) {
    DeviceConfig c;
    c.hbm.capacity_lines = 256;
    c.hbm.ways = 4;
    c.stripes = stripes;
    return c;
  }
};

TEST_F(BatchedSyncFixture, SyncLinesMatchesPerLineCalls) {
  // Drive the same 40-line update set through the per-line path and the
  // batched path on twin devices; stats and persisted bytes must agree.
  TestPool tp2 = TestPool::create();
  PaxDevice per_line(&tp.pool, config());
  PaxDevice batched(&tp2.pool, config());

  std::vector<LineUpdate> updates;
  for (std::uint64_t i = 0; i < 40; ++i) {
    updates.push_back({tp.data_line(i * 3), patterned_line(i)});
  }

  for (const auto& u : updates) {
    ASSERT_TRUE(per_line.write_intent(u.line).is_ok());
    per_line.writeback_line(u.line, u.data);
  }
  ASSERT_TRUE(batched.sync_lines(updates).is_ok());

  const DeviceStats a = per_line.stats();
  const DeviceStats b = batched.stats();
  EXPECT_EQ(a.write_intents, b.write_intents);
  EXPECT_EQ(a.first_touch_logs, b.first_touch_logs);
  EXPECT_EQ(a.host_writebacks, b.host_writebacks);
  EXPECT_EQ(per_line.epoch_logged_lines(), batched.epoch_logged_lines());
  EXPECT_EQ(b.batch_syncs, 1u);
  EXPECT_EQ(b.batch_synced_lines, 40u);
  // 8 stripes touched → at most 8 log-mutex holds, vs one per line before.
  EXPECT_LE(b.log_append_acquisitions, 8u);
  EXPECT_EQ(batched.log_stats().records, 40u);

  ASSERT_TRUE(per_line.persist(nullptr).ok());
  ASSERT_TRUE(batched.persist(nullptr).ok());
  for (const auto& u : updates) {
    EXPECT_EQ(tp.device->durable_line(u.line), u.data);
    EXPECT_EQ(tp2.device->durable_line(u.line), u.data);
  }
}

TEST_F(BatchedSyncFixture, SecondTouchInLaterBatchIsNotRelogged) {
  PaxDevice dev(&tp.pool, config());
  std::vector<LineUpdate> first = {{tp.data_line(0), patterned_line(1)},
                                   {tp.data_line(1), patterned_line(2)}};
  std::vector<LineUpdate> second = {{tp.data_line(0), patterned_line(3)},
                                    {tp.data_line(9), patterned_line(4)}};
  ASSERT_TRUE(dev.sync_lines(first).is_ok());
  ASSERT_TRUE(dev.sync_lines(second).is_ok());
  EXPECT_EQ(dev.stats().write_intents, 4u);
  EXPECT_EQ(dev.stats().first_touch_logs, 3u);  // line 0 logged once

  // The undo pre-image of line 0 is its epoch-boundary value, so recovery
  // semantics match the per-line path: persist, mutate, read committed.
  ASSERT_TRUE(dev.persist(nullptr).ok());
  std::vector<LineUpdate> third = {{tp.data_line(0), patterned_line(7)}};
  ASSERT_TRUE(dev.sync_lines(third).is_ok());
  EXPECT_EQ(dev.read_committed_line(tp.data_line(0)), patterned_line(3));
}

TEST_F(BatchedSyncFixture, PeekLinesMatchesPeekLine) {
  PaxDevice dev(&tp.pool, config());
  std::vector<LineUpdate> updates;
  for (std::uint64_t i = 0; i < 24; ++i) {
    updates.push_back({tp.data_line(i), patterned_line(100 + i)});
  }
  ASSERT_TRUE(dev.sync_lines(updates).is_ok());

  std::vector<LineIndex> lines;
  for (std::uint64_t i = 0; i < 32; ++i) lines.push_back(tp.data_line(i));
  std::vector<LineData> out(lines.size());
  dev.peek_lines(lines, out);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(out[i], dev.peek_line(lines[i])) << "line " << i;
  }
}

TEST_F(BatchedSyncFixture, ReadCommittedLinesMatchesPerLineReads) {
  PaxDevice dev(&tp.pool, config());
  std::vector<LineUpdate> epoch1;
  for (std::uint64_t i = 0; i < 16; ++i) {
    epoch1.push_back({tp.data_line(i), patterned_line(i)});
  }
  ASSERT_TRUE(dev.sync_lines(epoch1).is_ok());
  ASSERT_TRUE(dev.persist(nullptr).ok());

  // Mutate half the range in the new epoch; committed views must still show
  // epoch 1 everywhere.
  std::vector<LineUpdate> epoch2;
  for (std::uint64_t i = 0; i < 16; i += 2) {
    epoch2.push_back({tp.data_line(i), patterned_line(1000 + i)});
  }
  ASSERT_TRUE(dev.sync_lines(epoch2).is_ok());

  std::vector<LineData> out(16);
  dev.read_committed_lines(tp.data_line(0), out);
  for (std::uint64_t i = 0; i < 16; ++i) {
    EXPECT_EQ(out[i], patterned_line(i)) << "line " << i;
    EXPECT_EQ(out[i], dev.read_committed_line(tp.data_line(i)));
  }
}

TEST_F(BatchedSyncFixture, LogExhaustionFailsTheBatch) {
  // A tiny log: the batch must surface kOutOfSpace, like write_intent does.
  TestPool small = TestPool::create(1 << 20, /*log_bytes=*/4096);
  PaxDevice dev(&small.pool, config(/*stripes=*/1));
  std::vector<LineUpdate> updates;
  for (std::uint64_t i = 0; i < 200; ++i) {
    updates.push_back({small.data_line(i), patterned_line(i)});
  }
  Status s = dev.sync_lines(updates);
  ASSERT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kOutOfSpace);
}

// Every device view a test can observe: the current view and the
// last-committed view of each line.
void expect_same_views(PaxDevice& a, PaxDevice& b,
                       const std::vector<LineIndex>& lines) {
  for (LineIndex line : lines) {
    ASSERT_EQ(a.peek_line(line), b.peek_line(line)) << "line " << line.value;
    ASSERT_EQ(a.read_committed_line(line), b.read_committed_line(line))
        << "line " << line.value;
  }
}

TEST_F(BatchedSyncFixture, OverfullSetsAndRepeatedLinesMatchPerLineCalls) {
  // A one-set buffer (4 ways) and batches of up to 12 lines: a batch pins
  // every way of the set and the rest of its lines fall back to a plain
  // insert once the earlier ones are buffered. Lines repeat within a batch
  // and across batches, mixing first touches with relogged-free updates,
  // hits with misses. The batched device must match the per-line one.
  TestPool tp2 = TestPool::create();
  DeviceConfig c = config(/*stripes=*/1);
  c.hbm.capacity_lines = 4;
  c.proactive_writeback = false;
  PaxDevice per_line(&tp.pool, c);
  PaxDevice batched(&tp2.pool, c);

  std::vector<LineIndex> lines;
  for (std::uint64_t i = 0; i < 16; ++i) lines.push_back(tp.data_line(i));
  std::uint64_t tag = 0;
  for (int epoch = 0; epoch < 3; ++epoch) {
    for (std::uint64_t batch = 0; batch < 6; ++batch) {
      std::vector<LineUpdate> updates;
      const std::uint64_t n = 3 + (batch * 5 + epoch) % 10;
      for (std::uint64_t k = 0; k < n; ++k) {
        const std::uint64_t i = (batch * 7 + k * (k % 3 == 0 ? 1 : 5)) % 16;
        updates.push_back({lines[i], patterned_line(++tag)});
      }
      // Reads refill the buffer with clean lines between batches.
      (void)per_line.read_line(lines[(batch * 3) % 16]);
      (void)batched.read_line(lines[(batch * 3) % 16]);
      for (const LineUpdate& u : updates) {
        ASSERT_TRUE(per_line.write_intent(u.line).is_ok());
        per_line.writeback_line(u.line, u.data);
      }
      ASSERT_TRUE(batched.sync_lines(updates).is_ok());
      expect_same_views(per_line, batched, lines);
    }
    ASSERT_TRUE(per_line.persist(nullptr).ok());
    ASSERT_TRUE(batched.persist(nullptr).ok());
    EXPECT_EQ(batched.buffered_dirty_lines(), 0u);
    for (LineIndex line : lines) {
      ASSERT_EQ(tp.device->durable_line(line), tp2.device->durable_line(line))
          << "line " << line.value;
    }
  }
  EXPECT_GT(batched.hbm_stats().evictions, 0u);
}

TEST_F(BatchedSyncFixture, FailedBatchLeavesTheBufferAsItWas) {
  // A batch that runs out of log space buffers none of its updates, even
  // though it already took ways (and displaced dirty lines) for them.
  TestPool small = TestPool::create(1 << 20, /*log_bytes=*/1024);
  DeviceConfig c = config(/*stripes=*/1);
  c.hbm.capacity_lines = 4;
  c.proactive_writeback = false;
  PaxDevice dev(&small.pool, c);

  std::vector<LineUpdate> first;
  for (std::uint64_t i = 0; i < 6; ++i) {
    first.push_back({small.data_line(i), patterned_line(i)});
  }
  ASSERT_TRUE(dev.sync_lines(first).is_ok());
  std::vector<LineUpdate> second;
  for (std::uint64_t i = 0; i < 8; ++i) {
    second.push_back({small.data_line(i * 2), patterned_line(100 + i)});
  }
  const Status st = dev.sync_lines(second);
  ASSERT_EQ(st.code(), StatusCode::kOutOfSpace);
  for (std::uint64_t i = 0; i < 16; ++i) {
    const LineData expect = i < 6 ? patterned_line(i) : LineData{};
    EXPECT_EQ(dev.peek_line(small.data_line(i)), expect) << "line " << i;
  }
  ASSERT_TRUE(dev.persist(nullptr).ok());
  EXPECT_EQ(dev.buffered_dirty_lines(), 0u);
  for (std::uint64_t i = 0; i < 6; ++i) {
    EXPECT_EQ(small.device->durable_line(small.data_line(i)),
              patterned_line(i));
  }
}

TEST_F(BatchedSyncFixture, FirstTouchLinesCostOneProbePerCall) {
  // The runtime's persist path for a page of fresh lines: peek_lines to
  // diff, sync_lines to log and buffer, persist to write back. Each call
  // finds a line's buffer entry once: three probes per line, whether the
  // buffer holds the epoch or the epoch is twice its size. (Only a batch
  // naming more lines of one set than the set has ways pays a second probe
  // for the overflow.)
  for (std::size_t capacity : {1024u, 256u}) {
    for (bool with_pull : {true, false}) {
      TestPool pool = TestPool::create();
      DeviceConfig c = config();
      c.hbm.capacity_lines = capacity;
      c.hbm.ways = 8;
      PaxDevice dev(&pool.pool, c);
      std::vector<LineIndex> lines;
      std::vector<LineUpdate> updates;
      for (std::uint64_t i = 0; i < 512; ++i) {
        lines.push_back(pool.data_line(i));
        updates.push_back({pool.data_line(i), patterned_line(i + 1)});
      }
      const HbmStats before = dev.hbm_stats();
      std::vector<LineData> views(lines.size());
      for (std::size_t at = 0; at < lines.size(); at += 64) {
        dev.peek_lines(std::span(lines).subspan(at, 64),
                       std::span(views).subspan(at, 64));
        ASSERT_TRUE(
            dev.sync_lines(std::span(updates).subspan(at, 64)).is_ok());
      }
      auto pull = [&](LineIndex line) -> std::optional<LineData> {
        return updates[line.value - lines[0].value].data;
      };
      ASSERT_TRUE(dev.persist(with_pull ? PaxDevice::PullFn(pull)
                                        : PaxDevice::PullFn())
                      .ok());
      const HbmStats after = dev.hbm_stats();
      const double per_line =
          double(after.probes - before.probes) / double(lines.size());
      EXPECT_LE(per_line, 3.0)
          << "capacity " << capacity << " pull " << with_pull;
      if (capacity == 256) {
        EXPECT_GT(after.evictions, 0u);
      }
      for (const LineUpdate& u : updates) {
        ASSERT_EQ(pool.device->durable_line(u.line), u.data);
      }
    }
  }
}

TEST_F(BatchedSyncFixture, EmptyBatchIsANoOp) {
  PaxDevice dev(&tp.pool, config());
  ASSERT_TRUE(dev.sync_lines({}).is_ok());
  EXPECT_EQ(dev.stats().write_intents, 0u);
  EXPECT_EQ(dev.stats().batch_synced_lines, 0u);
}

}  // namespace
}  // namespace pax::device
