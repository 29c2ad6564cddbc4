// Unit tests of the PaxDevice core: first-touch undo logging, asynchronous
// write-back gating, the persist() epoch-commit protocol, and recovery.
#include "pax/device/pax_device.hpp"

#include <gtest/gtest.h>

#include <unordered_map>

#include "pax/device/recovery.hpp"
#include "test_util.hpp"

namespace pax::device {
namespace {

using testing::patterned_line;
using testing::TestPool;

struct PaxDeviceFixture : ::testing::Test {
  TestPool tp = TestPool::create();

  DeviceConfig config() {
    DeviceConfig c;
    c.hbm.capacity_lines = 64;
    c.hbm.ways = 4;
    return c;
  }
};

TEST_F(PaxDeviceFixture, ReadLineServesPmContents) {
  tp.device->store_line(tp.data_line(0), patterned_line(7));
  tp.device->flush_line(tp.data_line(0));

  PaxDevice dev(&tp.pool, config());
  EXPECT_EQ(dev.read_line(tp.data_line(0)), patterned_line(7));
  EXPECT_EQ(dev.stats().read_pm, 1u);
  // Second read hits the HBM cache.
  EXPECT_EQ(dev.read_line(tp.data_line(0)), patterned_line(7));
  EXPECT_EQ(dev.stats().read_hbm_hits, 1u);
  EXPECT_EQ(dev.stats().read_pm, 1u);
}

TEST_F(PaxDeviceFixture, WriteIntentLogsPreImageOncePerEpoch) {
  PaxDevice dev(&tp.pool, config());
  ASSERT_TRUE(dev.write_intent(tp.data_line(3)).is_ok());
  ASSERT_TRUE(dev.write_intent(tp.data_line(3)).is_ok());
  ASSERT_TRUE(dev.write_intent(tp.data_line(4)).is_ok());
  EXPECT_EQ(dev.stats().write_intents, 3u);
  EXPECT_EQ(dev.stats().first_touch_logs, 2u);
  EXPECT_EQ(dev.epoch_logged_lines(), 2u);
}

TEST_F(PaxDeviceFixture, EpochStartsAtCommittedPlusOne) {
  tp.pool.commit_epoch(41);
  PaxDevice dev(&tp.pool, config());
  EXPECT_EQ(dev.current_epoch(), 42u);
}

TEST_F(PaxDeviceFixture, HostWritebackWithoutWriteIntentAborts) {
  PaxDevice dev(&tp.pool, config());
  EXPECT_DEATH(dev.writeback_line(tp.data_line(0), patterned_line(1)),
               "never took write ownership");
}

TEST_F(PaxDeviceFixture, PersistCommitsEpochAndAdvances) {
  PaxDevice dev(&tp.pool, config());
  ASSERT_TRUE(dev.write_intent(tp.data_line(0)).is_ok());
  dev.writeback_line(tp.data_line(0), patterned_line(1));

  auto committed = dev.persist(nullptr);
  ASSERT_TRUE(committed.ok());
  EXPECT_EQ(committed.value(), 1u);
  EXPECT_EQ(tp.pool.committed_epoch(), 1u);
  EXPECT_EQ(dev.current_epoch(), 2u);
  EXPECT_EQ(dev.epoch_logged_lines(), 0u);

  // Data durable on media.
  EXPECT_EQ(tp.device->durable_line(tp.data_line(0)), patterned_line(1));
}

TEST_F(PaxDeviceFixture, PersistPullsHostCopiesInPreferenceToBuffer) {
  PaxDevice dev(&tp.pool, config());
  ASSERT_TRUE(dev.write_intent(tp.data_line(0)).is_ok());
  dev.writeback_line(tp.data_line(0), patterned_line(1));  // stale buffer

  // Host modified the line again after the writeback; persist's pull must win.
  auto pull = [&](LineIndex line) -> std::optional<LineData> {
    EXPECT_EQ(line, tp.data_line(0));
    return patterned_line(2);
  };
  ASSERT_TRUE(dev.persist(pull).ok());
  EXPECT_EQ(tp.device->durable_line(tp.data_line(0)), patterned_line(2));
  // And later reads must not resurrect the stale buffered copy.
  EXPECT_EQ(dev.read_line(tp.data_line(0)), patterned_line(2));
}

TEST_F(PaxDeviceFixture, CrashBeforePersistRecoversOldSnapshot) {
  // Establish epoch 1 with known content.
  PaxDevice dev(&tp.pool, config());
  ASSERT_TRUE(dev.write_intent(tp.data_line(0)).is_ok());
  dev.writeback_line(tp.data_line(0), patterned_line(1));
  ASSERT_TRUE(dev.persist(nullptr).ok());

  // Epoch 2 modifies the line; the device proactively writes it to PM
  // (tick with forced flush makes the undo record durable first).
  ASSERT_TRUE(dev.write_intent(tp.data_line(0)).is_ok());
  dev.writeback_line(tp.data_line(0), patterned_line(99));
  dev.tick(/*force_flush=*/true);
  EXPECT_GT(dev.stats().proactive_writebacks, 0u);
  EXPECT_EQ(tp.device->durable_line(tp.data_line(0)), patterned_line(99));

  // Crash before persist: recovery must roll the line back to epoch 1.
  tp.device->crash(pmem::CrashConfig::drop_all());
  auto pool = pmem::PmemPool::open(tp.device.get());
  ASSERT_TRUE(pool.ok());
  auto report = recover_pool(pool.value());
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_EQ(report.value().recovered_epoch, 1u);
  EXPECT_EQ(report.value().records_applied, 1u);
  EXPECT_EQ(tp.device->durable_line(tp.data_line(0)), patterned_line(1));
}

TEST_F(PaxDeviceFixture, WritebackGatedOnUndoRecordDurability) {
  // Force evictions with a tiny buffer and proactive write-back off: every
  // eviction of a dirty line must first force the log flush (the stall path)
  // — never write data before its undo record.
  DeviceConfig c;
  c.hbm.capacity_lines = 4;
  c.hbm.ways = 4;
  c.proactive_writeback = false;
  PaxDevice dev(&tp.pool, c);

  for (std::uint64_t i = 0; i < 12; ++i) {
    ASSERT_TRUE(dev.write_intent(tp.data_line(i)).is_ok());
    dev.writeback_line(tp.data_line(i), patterned_line(100 + i));
  }
  // The buffer (4 lines) forced ≥8 evictions; the invariant PAX_CHECK inside
  // write_line_to_pm would have aborted on any ungated write-back.
  EXPECT_GT(dev.stats().pm_writeback_lines, 0u);
  EXPECT_GT(dev.stats().forced_log_flushes, 0u);
}

TEST_F(PaxDeviceFixture, WorkingSetLargerThanBufferPersistsCorrectly) {
  // §3.3 / §1 "No Working Set Size Limits": per-epoch write set ≫ buffer.
  DeviceConfig c;
  c.hbm.capacity_lines = 8;
  c.hbm.ways = 4;
  PaxDevice dev(&tp.pool, c);

  constexpr std::uint64_t kLines = 200;
  for (std::uint64_t i = 0; i < kLines; ++i) {
    ASSERT_TRUE(dev.write_intent(tp.data_line(i)).is_ok());
    dev.writeback_line(tp.data_line(i), patterned_line(1000 + i));
  }
  ASSERT_TRUE(dev.persist(nullptr).ok());
  for (std::uint64_t i = 0; i < kLines; ++i) {
    EXPECT_EQ(tp.device->durable_line(tp.data_line(i)),
              patterned_line(1000 + i))
        << "line " << i;
  }
}

TEST_F(PaxDeviceFixture, PersistLeavesNoDirtyLineOnAnyPath) {
  // The commit cleans exactly the lines logged this epoch and never walks
  // the whole buffer, so every path that dirties a buffered line must log
  // it first. Drive all four data-path entry points through a buffer far
  // smaller than the epoch — clean and dirty evictions, stall evictions
  // with proactive write-back off — and check nothing is left dirty.
  DeviceConfig c;
  c.hbm.capacity_lines = 8;
  c.hbm.ways = 4;
  c.proactive_writeback = false;
  c.log_flush_batch_bytes = 1 << 20;  // tick() never flushes on its own
  PaxDevice dev(&tp.pool, c);

  std::unordered_map<std::uint64_t, LineData> expect;
  std::uint64_t tag = 0;
  for (int epoch = 0; epoch < 3; ++epoch) {
    for (std::uint64_t i = 0; i < 48; ++i) {
      const LineIndex line = tp.data_line((i * 5 + epoch) % 40);
      const LineData data = patterned_line(++tag);
      switch (i % 4) {
        case 0:
          (void)dev.read_line(tp.data_line(40 + i % 8));  // clean fills
          ASSERT_TRUE(dev.write_intent(line).is_ok());
          dev.writeback_line(line, data);
          break;
        case 1:
          ASSERT_TRUE(dev.mem_write(line, data).is_ok());
          break;
        default: {
          const std::vector<LineUpdate> batch = {
              {line, data}, {tp.data_line((i * 11 + 3) % 40), data}};
          ASSERT_TRUE(dev.sync_lines(batch).is_ok());
          expect[batch[1].line.value] = data;
          break;
        }
      }
      expect[line.value] = data;
      dev.tick();  // write-back off: only the (unforced) log flush check
    }
    EXPECT_GT(dev.buffered_dirty_lines(), 0u);
    ASSERT_TRUE(dev.persist(nullptr).ok());
    EXPECT_EQ(dev.buffered_dirty_lines(), 0u) << "epoch " << epoch;
    for (const auto& [line, data] : expect) {
      ASSERT_EQ(tp.device->durable_line(LineIndex{line}), data)
          << "line " << line;
    }
  }
  const HbmStats hbm = dev.hbm_stats();
  EXPECT_GT(hbm.clean_evictions, 0u);
  EXPECT_GT(hbm.stall_evictions, 0u);
}

// Counts flush_line calls per line, split into data-extent and other
// (log, pool header) lines.
struct FlushCounter : pmem::PmemRepairShim {
  PoolOffset data_begin = 0, data_end = 0;
  std::unordered_map<std::uint64_t, int> data_flushes;
  std::uint64_t other_flushes = 0;

  void before_epoch_commit(pmem::PmemDevice&, std::uint64_t) override {}
  void before_flush(pmem::PmemDevice&, LineIndex line) override {
    const PoolOffset off = line.byte_offset();
    if (off >= data_begin && off < data_end) {
      ++data_flushes[line.value];
    } else {
      ++other_flushes;
    }
  }
};

TEST_F(PaxDeviceFixture, EachLoggedLineReachesPmOnce) {
  // An epoch three times the buffer: eviction writes back most lines,
  // tick() some, persist() the rest. Each logged line must reach PM exactly
  // once, and the commit hook must still report every one with its value.
  constexpr std::uint64_t kLines = 3 * 64;
  PaxDevice dev(&tp.pool, config());
  std::vector<std::pair<LineIndex, LineData>> hooked;
  dev.set_commit_hook(
      [&](Epoch, const std::vector<std::pair<LineIndex, LineData>>& lines) {
        hooked = lines;
      });
  auto run_epoch = [&](std::uint64_t tag) {
    std::vector<LineUpdate> batch;
    for (std::uint64_t i = 0; i < kLines; ++i) {
      batch.push_back({tp.data_line(i * 3), patterned_line(tag + i)});
      if (batch.size() == 16) {
        ASSERT_TRUE(dev.sync_lines(batch).is_ok());
        batch.clear();
        if (i % 64 == 31) dev.tick(/*force_flush=*/true);
      }
    }
  };
  run_epoch(1000);
  ASSERT_TRUE(dev.persist(nullptr).ok());

  FlushCounter counter;
  counter.data_begin = tp.pool.data_offset();
  counter.data_end = tp.pool.data_offset() + tp.pool.data_size();
  tp.device->set_repair_shim(&counter);
  const pmem::PmemStats pm_before = tp.device->stats();
  const DeviceStats dev_before = dev.stats();
  run_epoch(2000);
  auto committed = dev.persist(nullptr);
  tp.device->set_repair_shim(nullptr);
  ASSERT_TRUE(committed.ok());
  const pmem::PmemStats pm_after = tp.device->stats();
  const DeviceStats dev_after = dev.stats();

  EXPECT_GT(dev.hbm_stats().evictions, 0u);
  EXPECT_GT(dev_after.proactive_writebacks, dev_before.proactive_writebacks);
  ASSERT_EQ(counter.data_flushes.size(), kLines);
  for (std::uint64_t i = 0; i < kLines; ++i) {
    EXPECT_EQ(counter.data_flushes[tp.data_line(i * 3).value], 1)
        << "line " << i;
  }
  // The PM counters agree: every flush besides the log's and the epoch
  // cell's is one data line's write-back.
  const std::uint64_t flushes =
      (pm_after.line_flushes + pm_after.empty_flushes) -
      (pm_before.line_flushes + pm_before.empty_flushes);
  EXPECT_EQ(flushes - counter.other_flushes, kLines);
  EXPECT_EQ(dev_after.pm_writeback_lines - dev_before.pm_writeback_lines,
            kLines);
  EXPECT_EQ(dev_after.persist_pulls, 0u);

  ASSERT_EQ(hooked.size(), kLines);
  std::unordered_map<std::uint64_t, LineData> reported;
  for (const auto& [line, data] : hooked) reported[line.value] = data;
  for (std::uint64_t i = 0; i < kLines; ++i) {
    const LineIndex line = tp.data_line(i * 3);
    ASSERT_EQ(reported.count(line.value), 1u) << "line " << i;
    EXPECT_EQ(reported[line.value], patterned_line(2000 + i)) << "line " << i;
  }

  // A crash during the next epoch, after some of it reached PM, recovers
  // the committed one.
  run_epoch(3000);
  EXPECT_GT(dev.stats().proactive_writebacks, dev_after.proactive_writebacks);
  tp.device->crash(pmem::CrashConfig::drop_all());
  auto pool = pmem::PmemPool::open(tp.device.get());
  ASSERT_TRUE(pool.ok());
  auto report = recover_pool(pool.value());
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_EQ(report.value().recovered_epoch, committed.value());
  for (std::uint64_t i = 0; i < kLines; ++i) {
    EXPECT_EQ(tp.device->durable_line(tp.data_line(i * 3)),
              patterned_line(2000 + i))
        << "line " << i;
  }
}

TEST_F(PaxDeviceFixture, LogExtentExhaustionSurfacesOutOfSpace) {
  auto small = TestPool::create(1 << 20, /*log_bytes=*/1024);
  PaxDevice dev(&small.pool, config());
  Status last = Status::ok();
  std::uint64_t i = 0;
  for (; i < 100; ++i) {
    last = dev.write_intent(small.data_line(i));
    if (!last.is_ok()) break;
  }
  EXPECT_FALSE(last.is_ok());
  EXPECT_EQ(last.code(), StatusCode::kOutOfSpace);
  // The log spans the whole 1024-byte extent; 96-byte frames → 10 records
  // fit.
  EXPECT_EQ(i, 1024u / 96u);
  // A full log is flushed at once: no later record can join its batch.
  EXPECT_EQ(dev.log_stats().flushes, 1u);
}

// One epoch may fill the whole log extent: an epoch whose undo records need
// more than half of it commits, and a crash in the next such epoch — after
// every line reached PM — rolls back every line, including those whose
// records lie in the extent's second half.
TEST_F(PaxDeviceFixture, EpochLargerThanHalfTheLogPersistsAndRecovers) {
  constexpr std::size_t kLogBytes = 2048;
  constexpr std::uint64_t kLines = 16;  // 16 × 96 B = 1536 B > kLogBytes / 2
  auto small = TestPool::create(1 << 20, kLogBytes);
  {
    PaxDevice dev(&small.pool, config());
    for (std::uint64_t e = 1; e <= 2; ++e) {
      for (std::uint64_t i = 0; i < kLines; ++i) {
        const Status st = dev.write_intent(small.data_line(i));
        ASSERT_TRUE(st.is_ok()) << "epoch " << e << " line " << i << ": "
                                << st.to_string();
        dev.writeback_line(small.data_line(i), patterned_line(e * 100 + i));
      }
      EXPECT_GT(dev.log_bytes_in_use(), kLogBytes / 2);
      if (e == 1) {
        ASSERT_TRUE(dev.persist(nullptr).ok());
      }
    }
    // Epoch 2 is uncommitted but fully on PM.
    dev.tick(/*force_flush=*/true);
    for (std::uint64_t i = 0; i < kLines; ++i) {
      ASSERT_EQ(small.device->durable_line(small.data_line(i)),
                patterned_line(200 + i));
    }
  }

  small.device->crash(pmem::CrashConfig::drop_all());
  auto pool = pmem::PmemPool::open(small.device.get()).value();
  auto report = recover_pool(pool);
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_EQ(report.value().recovered_epoch, 1u);
  EXPECT_EQ(report.value().records_applied, kLines);
  for (std::uint64_t i = 0; i < kLines; ++i) {
    EXPECT_EQ(small.device->durable_line(small.data_line(i)),
              patterned_line(100 + i))
        << "line " << i;
  }
}

TEST_F(PaxDeviceFixture, PersistResetsLogForReuse) {
  auto small = TestPool::create(1 << 20, /*log_bytes=*/2048);
  PaxDevice dev(&small.pool, config());
  // Two epochs of 16 lines each both fit (16 × 96 B < the 2048 B log, but
  // not twice over) because persist() resets the log.
  for (Epoch e = 0; e < 2; ++e) {
    for (std::uint64_t i = 0; i < 16; ++i) {
      ASSERT_TRUE(dev.write_intent(small.data_line(i)).is_ok());
      dev.writeback_line(small.data_line(i), patterned_line(e * 100 + i));
    }
    ASSERT_TRUE(dev.persist(nullptr).ok());
  }
  EXPECT_EQ(small.pool.committed_epoch(), 2u);
}

TEST_F(PaxDeviceFixture, RecoveryIsIdempotent) {
  PaxDevice dev(&tp.pool, config());
  ASSERT_TRUE(dev.write_intent(tp.data_line(0)).is_ok());
  dev.writeback_line(tp.data_line(0), patterned_line(5));
  dev.tick(/*force_flush=*/true);
  tp.device->crash(pmem::CrashConfig::drop_all());

  auto pool = pmem::PmemPool::open(tp.device.get()).value();
  ASSERT_TRUE(recover_pool(pool).ok());
  const LineData after_first = tp.device->durable_line(tp.data_line(0));
  // Crash during/after recovery: running it again must be harmless.
  tp.device->crash(pmem::CrashConfig::drop_all());
  ASSERT_TRUE(recover_pool(pool).ok());
  EXPECT_EQ(tp.device->durable_line(tp.data_line(0)), after_first);
  EXPECT_EQ(after_first, LineData{});  // rolled back to the empty pool
}

TEST_F(PaxDeviceFixture, RecoveryOnCleanPoolAppliesNothing) {
  PaxDevice dev(&tp.pool, config());
  ASSERT_TRUE(dev.write_intent(tp.data_line(0)).is_ok());
  dev.writeback_line(tp.data_line(0), patterned_line(1));
  ASSERT_TRUE(dev.persist(nullptr).ok());
  tp.device->crash(pmem::CrashConfig::drop_all());

  auto pool = pmem::PmemPool::open(tp.device.get()).value();
  auto report = recover_pool(pool);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().records_applied, 0u);
  EXPECT_EQ(report.value().stale_records, 1u);  // epoch-1 record now stale
  EXPECT_EQ(tp.device->durable_line(tp.data_line(0)), patterned_line(1));
}

TEST_F(PaxDeviceFixture, MemWriteLogsPreImageBeforeApplying) {
  // CXL.mem path: the pre-image must be captured from the device view
  // BEFORE the incoming MemWr data lands.
  tp.device->store_line(tp.data_line(0), patterned_line(7));
  tp.device->flush_line(tp.data_line(0));

  PaxDevice dev(&tp.pool, config());
  ASSERT_TRUE(dev.mem_write(tp.data_line(0), patterned_line(8)).is_ok());
  EXPECT_EQ(dev.stats().mem_writes, 1u);
  EXPECT_EQ(dev.stats().first_touch_logs, 1u);
  EXPECT_EQ(dev.peek_line(tp.data_line(0)), patterned_line(8));

  // Crash without persist: the pre-image (7) must come back.
  dev.tick(/*force_flush=*/true);
  tp.device->crash(pmem::CrashConfig::drop_all());
  auto pool = pmem::PmemPool::open(tp.device.get()).value();
  ASSERT_TRUE(recover_pool(pool).ok());
  EXPECT_EQ(tp.device->durable_line(tp.data_line(0)), patterned_line(7));
}

TEST_F(PaxDeviceFixture, MemWriteIsFirstTouchIdempotentPerEpoch) {
  PaxDevice dev(&tp.pool, config());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(dev.mem_write(tp.data_line(0), patterned_line(i)).is_ok());
  }
  EXPECT_EQ(dev.stats().mem_writes, 5u);
  EXPECT_EQ(dev.stats().first_touch_logs, 1u);
  ASSERT_TRUE(dev.persist(nullptr).ok());
  EXPECT_EQ(tp.device->durable_line(tp.data_line(0)), patterned_line(4));
}

TEST_F(PaxDeviceFixture, MemWriteAndWriteIntentInteroperate) {
  // A line can be announced via RdOwn (write_intent) and then written back
  // as a MemWr (or vice versa): one undo record either way.
  PaxDevice dev(&tp.pool, config());
  ASSERT_TRUE(dev.write_intent(tp.data_line(0)).is_ok());
  ASSERT_TRUE(dev.mem_write(tp.data_line(0), patterned_line(3)).is_ok());
  EXPECT_EQ(dev.stats().first_touch_logs, 1u);
  ASSERT_TRUE(dev.persist(nullptr).ok());
  EXPECT_EQ(tp.device->durable_line(tp.data_line(0)), patterned_line(3));
}

TEST_F(PaxDeviceFixture, TornUndoRecordDoesNotBlockRecovery) {
  PaxDevice dev(&tp.pool, config());
  // Log two records; flush only implicitly (none): crash tears the tail.
  ASSERT_TRUE(dev.write_intent(tp.data_line(0)).is_ok());
  ASSERT_TRUE(dev.write_intent(tp.data_line(1)).is_ok());
  tp.device->crash(pmem::CrashConfig::random(0.4, /*seed=*/11));

  auto pool = pmem::PmemPool::open(tp.device.get()).value();
  auto report = recover_pool(pool);
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_EQ(report.value().recovered_epoch, 0u);
}

}  // namespace
}  // namespace pax::device
