// Multi-threaded stress tests of the striped PAX device data path.
//
// The device promises that read_line / write_intent / writeback_line /
// mem_write on different lines proceed in parallel (per-stripe locking) while
// every crash-consistency invariant holds: write-back gated on undo-record
// durability, epochs commit as atomic snapshots, recovery always lands on
// the committed one. These tests hammer that promise from many threads —
// over disjoint and overlapping line ranges, with background tick()s, and
// with persist() interleaved — and are the suite the CI ThreadSanitizer job
// runs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "pax/device/pax_device.hpp"
#include "pax/device/recovery.hpp"
#include "test_util.hpp"

namespace pax::device {
namespace {

using pax::testing::TestPool;
using pax::testing::patterned_line;

constexpr unsigned kThreads = 4;
constexpr std::uint64_t kLinesPerThread = 32;
constexpr int kRounds = 8;

DeviceConfig striped_config() {
  DeviceConfig cfg;
  cfg.hbm.capacity_lines = 1024;
  cfg.hbm.ways = 8;
  cfg.stripes = 16;
  return cfg;
}

TEST(DeviceStripedMtTest, ReportsEffectiveStripeCount) {
  auto tp = TestPool::create(1 << 20, 256 * 1024);
  {
    PaxDevice dev(&tp.pool, striped_config());
    EXPECT_EQ(dev.stripe_count(), 16u);
  }
  {
    // Tiny buffer: the stripe count collapses so each stripe keeps >= 1 set.
    DeviceConfig cfg = striped_config();
    cfg.hbm.capacity_lines = 16;
    cfg.hbm.ways = 4;
    PaxDevice dev(&tp.pool, cfg);
    EXPECT_EQ(dev.stripe_count(), 4u);
  }
  {
    DeviceConfig cfg = striped_config();
    cfg.stripes = 1;  // the old single-lock device
    PaxDevice dev(&tp.pool, cfg);
    EXPECT_EQ(dev.stripe_count(), 1u);
  }
}

// Each thread owns a disjoint line range; all write and read concurrently,
// with persist() between rounds. Every committed value must be exact.
TEST(DeviceStripedMtTest, DisjointRangesAllWritesLand) {
  auto tp = TestPool::create(4 << 20, 512 * 1024);
  PaxDevice dev(&tp.pool, striped_config());

  std::uint64_t round_tag = 0;
  for (int round = 0; round < kRounds; ++round) {
    round_tag = 10'000 + static_cast<std::uint64_t>(round) * 1'000;
    std::vector<std::thread> threads;
    std::atomic<bool> failed{false};
    for (unsigned t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::uint64_t i = 0; i < kLinesPerThread; ++i) {
          const LineIndex line = tp.data_line(t * kLinesPerThread + i);
          if (!dev.write_intent(line).is_ok()) {
            failed.store(true);
            return;
          }
          dev.writeback_line(line, patterned_line(round_tag + t * 100 + i));
          // Interleave reads of our own range (hits + PM fills).
          (void)dev.read_line(tp.data_line(t * kLinesPerThread +
                                           (i * 7) % kLinesPerThread));
          if (i % 8 == 7) dev.tick();
        }
      });
    }
    for (auto& th : threads) th.join();
    ASSERT_FALSE(failed.load());
    ASSERT_TRUE(dev.persist(nullptr).ok());
  }

  // After the final persist every line holds its last round's value — on
  // durable media, not just in the device view.
  for (unsigned t = 0; t < kThreads; ++t) {
    for (std::uint64_t i = 0; i < kLinesPerThread; ++i) {
      const LineIndex line = tp.data_line(t * kLinesPerThread + i);
      const LineData expect = patterned_line(round_tag + t * 100 + i);
      EXPECT_EQ(dev.read_line(line).bytes, expect.bytes);
      EXPECT_EQ(tp.device->durable_line(line).bytes, expect.bytes);
    }
  }
  // Exactly kThreads * kLinesPerThread first-touch records per round.
  EXPECT_EQ(dev.stats().first_touch_logs,
            static_cast<std::uint64_t>(kRounds) * kThreads * kLinesPerThread);
}

// All threads fight over the SAME small set of lines. Line operations are
// atomic (per-stripe locks): every observed value must be exactly one of
// the patterns some thread wrote — never a torn mix.
TEST(DeviceStripedMtTest, OverlappingRangesNeverTearLines) {
  auto tp = TestPool::create(1 << 20, 512 * 1024);
  PaxDevice dev(&tp.pool, striped_config());
  constexpr std::uint64_t kSharedLines = 8;
  constexpr std::uint64_t kWritesPerThread = 200;

  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kWritesPerThread; ++i) {
        const LineIndex line = tp.data_line((t + i) % kSharedLines);
        if (!dev.write_intent(line).is_ok()) {
          failed.store(true);
          return;
        }
        dev.writeback_line(line, patterned_line(t));
        const LineData seen = dev.read_line(line);
        // The line must be *some* thread's pattern, whole.
        bool matches_one = false;
        for (unsigned w = 0; w < kThreads; ++w) {
          if (seen.bytes == patterned_line(w).bytes) {
            matches_one = true;
            break;
          }
        }
        if (!matches_one) failed.store(true);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(failed.load()) << "observed a torn line";
  ASSERT_TRUE(dev.persist(nullptr).ok());
}

// Writers keep the data path busy while the main thread commits epochs —
// the exclusive epoch gate must cleanly quiesce and release the striped
// data path every time, and epochs must commit one after another.
TEST(DeviceStripedMtTest, PersistUnderTrafficCommitsEveryCycle) {
  auto tp = TestPool::create(4 << 20, 1 << 20);
  PaxDevice dev(&tp.pool, striped_config());

  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::vector<std::thread> writers;
  for (unsigned t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const LineIndex line = tp.data_line(t * kLinesPerThread +
                                            (i % kLinesPerThread));
        // mem_write is the one-shot modify path (intent + data in a single
        // atomic device op), so a persist landing between two calls can
        // never strand a write without its undo token — the behavior a
        // pull-less (.mem-style) frontend actually has.
        Status s = dev.mem_write(line, patterned_line(t * 1'000 + i));
        if (!s.is_ok()) {
          // kOutOfSpace can legitimately surface if persists lag; any other
          // error is a bug.
          if (s.code() != StatusCode::kOutOfSpace) failed.store(true);
          std::this_thread::yield();
        }
        if (i % 16 == 0) dev.tick();
        ++i;
      }
    });
  }

  for (int cycle = 0; cycle < 20; ++cycle) {
    const Epoch expected = dev.current_epoch();
    auto committed = dev.persist(nullptr);
    ASSERT_TRUE(committed.ok()) << committed.status().to_string();
    EXPECT_EQ(committed.value(), expected);
    EXPECT_EQ(tp.pool.committed_epoch(), expected);
  }
  stop.store(true);
  for (auto& th : writers) th.join();
  EXPECT_FALSE(failed.load());
  ASSERT_TRUE(dev.persist(nullptr).ok());
}

// Concurrent phase-1 writes + persist, then concurrent doomed phase-2
// writes, then a crash: recovery must land exactly on the phase-1 snapshot.
TEST(DeviceStripedMtTest, CrashAfterConcurrentTrafficRecoversSnapshot) {
  auto tp = TestPool::create(4 << 20, 512 * 1024);
  Epoch committed = 0;
  {
    PaxDevice dev(&tp.pool, striped_config());

    auto run_phase = [&](std::uint64_t tag) {
      std::vector<std::thread> threads;
      for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
          for (std::uint64_t i = 0; i < kLinesPerThread; ++i) {
            const LineIndex line = tp.data_line(t * kLinesPerThread + i);
            ASSERT_TRUE(dev.write_intent(line).is_ok());
            dev.writeback_line(line, patterned_line(tag + t * 100 + i));
            if (i % 4 == 3) dev.tick();
          }
        });
      }
      for (auto& th : threads) th.join();
    };

    run_phase(500);
    auto e = dev.persist(nullptr);
    ASSERT_TRUE(e.ok());
    committed = e.value();

    run_phase(900);  // doomed: never persisted
    dev.tick(/*force_flush=*/true);  // some doomed lines even reach media
  }

  tp.device->crash(pmem::CrashConfig::torn(0.5, 42));

  auto pool = pmem::PmemPool::open(tp.device.get());
  ASSERT_TRUE(pool.ok());
  auto report = recover_pool(pool.value());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().recovered_epoch, committed);

  PaxDevice dev(&pool.value(), striped_config());
  for (unsigned t = 0; t < kThreads; ++t) {
    for (std::uint64_t i = 0; i < kLinesPerThread; ++i) {
      const LineIndex line = tp.data_line(t * kLinesPerThread + i);
      const LineData expect = patterned_line(500 + t * 100 + i);
      EXPECT_EQ(dev.read_line(line).bytes, expect.bytes)
          << "t=" << t << " i=" << i;
    }
  }
}

// Snapshot-isolated reads run concurrently with writers: every value they
// return must be a committed one (the base pattern), never an in-flight
// mutation.
TEST(DeviceStripedMtTest, CommittedReadsIgnoreConcurrentWriters) {
  auto tp = TestPool::create(1 << 20, 512 * 1024);
  PaxDevice dev(&tp.pool, striped_config());
  constexpr std::uint64_t kLines = 64;

  for (std::uint64_t i = 0; i < kLines; ++i) {
    ASSERT_TRUE(dev.write_intent(tp.data_line(i)).is_ok());
    dev.writeback_line(tp.data_line(i), patterned_line(7'000 + i));
  }
  ASSERT_TRUE(dev.persist(nullptr).ok());

  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::thread writer([&] {
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const LineIndex line = tp.data_line(i % kLines);
      if (dev.write_intent(line).is_ok()) {
        dev.writeback_line(line, patterned_line(9'000 + i));
      }
      ++i;
    }
  });
  std::vector<std::thread> readers;
  for (unsigned t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      for (std::uint64_t i = 0; i < 2'000; ++i) {
        const std::uint64_t idx = (i * 13) % kLines;
        const LineData seen = dev.read_committed_line(tp.data_line(idx));
        if (seen.bytes != patterned_line(7'000 + idx).bytes) {
          failed.store(true);
          return;
        }
      }
    });
  }
  for (auto& th : readers) th.join();
  stop.store(true);
  writer.join();
  EXPECT_FALSE(failed.load()) << "committed read observed uncommitted data";
}

// sync_lines batches race committed-range reads on the same stripes. Every
// batch must land, the readers must only ever see the committed values,
// and stripe_lock_totals() must count sync_lines' acquisitions and the
// contention between the two sides.
TEST(DeviceStripedMtTest, SyncLinesUnderConcurrentCommittedReads) {
  auto tp = TestPool::create(1 << 20, 512 * 1024);
  PaxDevice dev(&tp.pool, striped_config());
  constexpr std::uint64_t kLines = 256;
  constexpr std::size_t kBatch = 64;  // spans every stripe
  const auto batch_of = [&](std::uint64_t tag) {
    std::vector<LineUpdate> batch;
    for (std::uint64_t i = 0; i < kLines; ++i) {
      batch.push_back({tp.data_line(i), patterned_line(tag + i)});
    }
    return batch;
  };

  // One uncontended batch: one counted acquisition per stripe it touches.
  std::uint64_t acq0 = 0, acq1 = 0, contended = 0;
  dev.stripe_lock_totals(&acq0, nullptr);
  const auto base = batch_of(7'000);
  ASSERT_TRUE(dev.sync_lines({base.data(), kBatch}).is_ok());
  dev.stripe_lock_totals(&acq1, nullptr);
  EXPECT_EQ(acq1 - acq0, dev.stripe_count());
  ASSERT_TRUE(dev.sync_lines({base.data() + kBatch, kLines - kBatch}).is_ok());
  ASSERT_TRUE(dev.persist(nullptr).ok());

  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (unsigned t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      std::vector<LineData> out(kBatch);
      for (std::uint64_t i = t; !stop.load(std::memory_order_relaxed); ++i) {
        const std::uint64_t first = (i * kBatch) % kLines;
        dev.read_committed_lines(tp.data_line(first), out);
        for (std::size_t k = 0; k < kBatch; ++k) {
          if (out[k].bytes != patterned_line(7'000 + first + k).bytes) {
            failed.store(true);
          }
        }
      }
    });
  }
  // Keep syncing until the readers have collided with a batch at least
  // once (bounded, so a host that never interleaves fails the test rather
  // than hanging it).
  std::uint64_t last_tag = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  for (std::uint64_t round = 0;; ++round) {
    last_tag = 20'000 + round * 1'000;
    const auto batch = batch_of(last_tag);
    for (std::size_t i = 0; i < kLines; i += kBatch) {
      ASSERT_TRUE(dev.sync_lines({batch.data() + i, kBatch}).is_ok());
    }
    dev.stripe_lock_totals(nullptr, &contended);
    if ((round >= 20 && contended > 0) ||
        std::chrono::steady_clock::now() > deadline) {
      break;
    }
  }
  stop.store(true);
  for (auto& th : readers) th.join();
  EXPECT_FALSE(failed.load()) << "committed read observed a synced batch";
  EXPECT_GT(contended, 0u);

  ASSERT_TRUE(dev.persist(nullptr).ok());
  for (std::uint64_t i = 0; i < kLines; ++i) {
    ASSERT_EQ(dev.read_committed_line(tp.data_line(i)).bytes,
              patterned_line(last_tag + i).bytes)
        << "line " << i;
  }
}

}  // namespace
}  // namespace pax::device
