#include "pax/pmem/pmem_device.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <thread>
#include <vector>

#include "test_util.hpp"

namespace pax::pmem {
namespace {

using testing::patterned_line;

TEST(PmemDeviceTest, StoreIsVisibleToLoadBeforeFlush) {
  auto dev = PmemDevice::create_in_memory(1 << 16);
  const std::uint64_t v = 0x1122334455667788ULL;
  dev->store_u64(128, v);
  EXPECT_EQ(dev->load_u64(128), v);  // CPU sees its own stores
  EXPECT_EQ(dev->pending_line_count(), 1u);
}

TEST(PmemDeviceTest, UnflushedStoreIsLostOnCrash) {
  auto dev = PmemDevice::create_in_memory(1 << 16);
  dev->store_u64(128, 42);
  dev->crash(CrashConfig::drop_all());
  EXPECT_EQ(dev->load_u64(128), 0u);
  EXPECT_EQ(dev->pending_line_count(), 0u);
}

TEST(PmemDeviceTest, FlushedStoreSurvivesCrash) {
  auto dev = PmemDevice::create_in_memory(1 << 16);
  dev->store_u64(128, 42);
  dev->flush_line(LineIndex::containing(128));
  dev->drain();
  dev->crash(CrashConfig::drop_all());
  EXPECT_EQ(dev->load_u64(128), 42u);
}

TEST(PmemDeviceTest, AtomicDurableStoreSurvivesCrash) {
  auto dev = PmemDevice::create_in_memory(1 << 16);
  dev->atomic_durable_store_u64(64, 7);
  dev->crash(CrashConfig::drop_all());
  EXPECT_EQ(dev->load_u64(64), 7u);
}

TEST(PmemDeviceTest, StoreSpanningLinesDirtiesBothLines) {
  auto dev = PmemDevice::create_in_memory(1 << 16);
  std::array<std::byte, 16> data{};
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(i + 1);
  }
  dev->store(kCacheLineSize - 8, data);  // straddles lines 0 and 1
  EXPECT_EQ(dev->pending_line_count(), 2u);

  std::array<std::byte, 16> out{};
  dev->load(kCacheLineSize - 8, out);
  EXPECT_EQ(out, data);
}

TEST(PmemDeviceTest, PartialFlushOfSpanningStore) {
  // Flushing only one of two dirtied lines persists only that line's half:
  // this is the torn-record hazard the log CRCs defend against.
  auto dev = PmemDevice::create_in_memory(1 << 16);
  std::array<std::byte, 16> data{};
  data.fill(std::byte{0xee});
  dev->store(kCacheLineSize - 8, data);
  dev->flush_line(LineIndex{0});
  dev->drain();
  dev->crash(CrashConfig::drop_all());

  std::array<std::byte, 16> out{};
  dev->load(kCacheLineSize - 8, out);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(out[i], std::byte{0xee});
  for (std::size_t i = 8; i < 16; ++i) EXPECT_EQ(out[i], std::byte{0});
}

TEST(PmemDeviceTest, FlushRangeCoversAllTouchedLines) {
  auto dev = PmemDevice::create_in_memory(1 << 16);
  std::vector<std::byte> big(5 * kCacheLineSize, std::byte{0xab});
  dev->store(32, big);  // not line-aligned: touches 6 lines
  EXPECT_EQ(dev->pending_line_count(), 6u);
  dev->flush_range(32, big.size());
  dev->drain();
  EXPECT_EQ(dev->pending_line_count(), 0u);
  dev->crash(CrashConfig::drop_all());
  std::vector<std::byte> out(big.size());
  dev->load(32, out);
  EXPECT_EQ(out, big);
}

TEST(PmemDeviceTest, CrashWithFullSurvivalKeepsEverything) {
  auto dev = PmemDevice::create_in_memory(1 << 16);
  dev->store_line(LineIndex{3}, patterned_line(3));
  dev->store_line(LineIndex{4}, patterned_line(4));
  dev->crash(CrashConfig::random(1.0, /*seed=*/9));
  EXPECT_EQ(dev->durable_line(LineIndex{3}), patterned_line(3));
  EXPECT_EQ(dev->durable_line(LineIndex{4}), patterned_line(4));
}

TEST(PmemDeviceTest, CrashWithPartialSurvivalIsSeedDeterministic) {
  auto make = [] {
    auto dev = PmemDevice::create_in_memory(1 << 16);
    for (std::uint64_t i = 0; i < 64; ++i) {
      dev->store_line(LineIndex{i}, patterned_line(i));
    }
    return dev;
  };
  auto a = make();
  auto b = make();
  a->crash(CrashConfig::random(0.5, 77));
  b->crash(CrashConfig::random(0.5, 77));
  for (std::uint64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(a->durable_line(LineIndex{i}), b->durable_line(LineIndex{i}));
  }
}

// Regression: the crash lottery draws from a per-line RNG stream, so the
// outcome for a line depends only on (seed, line) — not on the order the
// lines entered the pending overlay or the order shards are drained in.
TEST(PmemDeviceTest, CrashLotteryIsStoreOrderIndependent) {
  for (const CrashConfig& config :
       {CrashConfig::random(0.5, 909), CrashConfig::torn(0.5, 909)}) {
    auto ascending = PmemDevice::create_in_memory(1 << 16);
    auto descending = PmemDevice::create_in_memory(1 << 16);
    for (std::uint64_t i = 0; i < 64; ++i) {
      ascending->store_line(LineIndex{i}, patterned_line(i));
      descending->store_line(LineIndex{63 - i}, patterned_line(63 - i));
    }
    ascending->crash(config);
    descending->crash(config);
    for (std::uint64_t i = 0; i < 64; ++i) {
      EXPECT_EQ(ascending->durable_line(LineIndex{i}),
                descending->durable_line(LineIndex{i}))
          << "line " << i << (config.tear_within_lines ? " torn" : " random");
    }
  }
}

// A captured crash cut resolved under a config must equal what crash()
// itself would have produced at the same instant with the same config —
// they share the lottery.
TEST(PmemDeviceTest, CrashCutResolvesIdenticallyToCrash) {
  const auto run_ops = [](PmemDevice& dev) {
    for (std::uint64_t i = 0; i < 32; ++i) {
      dev.store_line(LineIndex{i}, patterned_line(i + 100));
      if (i % 3 == 0) dev.flush_line(LineIndex{i});
    }
    dev.drain();
  };
  auto reference = PmemDevice::create_in_memory(1 << 16);
  run_ops(*reference);
  const std::uint64_t total = reference->crash_events();
  const CrashConfig config = CrashConfig::torn(0.5, 4242);
  reference->crash(config);

  auto armed = PmemDevice::create_in_memory(1 << 16);
  armed->arm_crash_point(total);
  run_ops(*armed);
  auto cut = armed->take_crash_cut();
  ASSERT_TRUE(cut.has_value());
  EXPECT_EQ(cut->after_events, total);
  auto resolved = PmemDevice::create_in_memory_from(cut->resolve(config));
  for (std::uint64_t i = 0; i < 32; ++i) {
    EXPECT_EQ(resolved->durable_line(LineIndex{i}),
              reference->durable_line(LineIndex{i}))
        << "line " << i;
  }
}

TEST(PmemDeviceTest, ArmedCrashPointIsOneShot) {
  auto dev = PmemDevice::create_in_memory(1 << 16);
  dev->arm_crash_point(2);
  dev->store_line(LineIndex{1}, patterned_line(1));  // event 1
  EXPECT_FALSE(dev->take_crash_cut().has_value());
  dev->store_line(LineIndex{2}, patterned_line(2));  // event 2: capture
  dev->store_line(LineIndex{3}, patterned_line(3));  // past the cut
  auto cut = dev->take_crash_cut();
  ASSERT_TRUE(cut.has_value());
  EXPECT_EQ(cut->after_events, 2u);
  EXPECT_EQ(cut->pending.size(), 2u);  // lines 1 and 2 only
  EXPECT_FALSE(dev->take_crash_cut().has_value());  // taken exactly once
}

TEST(PmemDeviceTest, TornCrashTearsAtWordGranularity) {
  auto dev = PmemDevice::create_in_memory(1 << 16);
  LineData ones;
  ones.bytes.fill(std::byte{0xff});
  dev->store_line(LineIndex{5}, ones);
  dev->crash(CrashConfig::torn(1.0, /*seed=*/123));

  // Each 8-byte word is either all-0xff (persisted) or all-zero (lost).
  LineData after = dev->durable_line(LineIndex{5});
  for (std::size_t w = 0; w < kCacheLineSize; w += 8) {
    bool all_ff = true;
    bool all_zero = true;
    for (std::size_t i = 0; i < 8; ++i) {
      if (after.bytes[w + i] != std::byte{0xff}) all_ff = false;
      if (after.bytes[w + i] != std::byte{0}) all_zero = false;
    }
    EXPECT_TRUE(all_ff || all_zero) << "word " << w << " not 8B-atomic";
  }
}

TEST(PmemDeviceTest, StatsCountOperations) {
  auto dev = PmemDevice::create_in_memory(1 << 16);
  dev->store_u64(0, 1);
  dev->store_u64(8, 2);
  dev->flush_line(LineIndex{0});
  dev->flush_line(LineIndex{1});  // nothing pending there
  dev->drain();
  auto s = dev->stats();
  EXPECT_EQ(s.stores, 2u);
  EXPECT_EQ(s.bytes_stored, 16u);
  EXPECT_EQ(s.line_flushes, 1u);
  EXPECT_EQ(s.empty_flushes, 1u);
  EXPECT_EQ(s.drains, 1u);
  EXPECT_EQ(s.media_bytes_written, kCacheLineSize);
}

TEST(PmemDeviceTest, StatsStayExactUnderConcurrentThreads) {
  // Four threads store, load and flush disjoint lines that share shards;
  // the per-shard counters must add up to exactly what they did.
  constexpr int kThreads = 4;
  constexpr std::uint64_t kIters = 2000;
  constexpr std::size_t kSpan = 100;  // a store/load across two lines
  auto dev = PmemDevice::create_in_memory(8 << 20);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::byte span[kSpan];
      for (std::uint64_t i = 0; i < kIters; ++i) {
        // Each (thread, iteration) owns one 256 B block: line L is flushed
        // once, the spanning store covers L+1..L+3.
        const LineIndex line{(t + kThreads * i) * 4};
        const LineData data = patterned_line(line.value);
        dev->store_line(line, data);
        EXPECT_EQ(dev->load_line(line), data);
        dev->flush_line(line);
        dev->flush_line(line);  // nothing pending any more
        const PoolOffset off = (line.value + 1) * kCacheLineSize + 40;
        std::memset(span, t + 1, kSpan);
        dev->store(off, span);
        dev->load(off, span);
        if (i % 256 == 255) dev->drain();
      }
    });
  }
  for (auto& th : threads) th.join();

  const std::uint64_t ops = kThreads * kIters;
  const PmemStats s = dev->stats();
  EXPECT_EQ(s.stores, 2 * ops);
  EXPECT_EQ(s.bytes_stored, ops * (kCacheLineSize + kSpan));
  EXPECT_EQ(s.loads, 2 * ops);
  EXPECT_EQ(s.line_flushes, ops);
  EXPECT_EQ(s.empty_flushes, ops);
  EXPECT_EQ(s.media_bytes_written, ops * kCacheLineSize);
  EXPECT_EQ(s.xpline_blocks_written, ops);  // one block per flushed line
  EXPECT_EQ(s.drains, kThreads * (kIters / 256));
  EXPECT_EQ(dev->pending_line_count(), 3 * ops);

  dev->reset_stats();
  const PmemStats z = dev->stats();
  EXPECT_EQ(z.stores + z.bytes_stored + z.loads + z.line_flushes +
                z.empty_flushes + z.drains + z.media_bytes_written +
                z.xpline_blocks_written,
            0u);
}

TEST(PmemDeviceTest, FileBackedMediaPersistsAcrossReopen) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "pax_dev_test.pool").string();
  std::filesystem::remove(path);
  {
    auto dev = PmemDevice::open_file(path, 1 << 16, /*create=*/true);
    ASSERT_TRUE(dev.ok()) << dev.status().to_string();
    dev.value()->store_u64(256, 0xabcdef);
    dev.value()->flush_line(LineIndex::containing(256));
    dev.value()->drain();
  }
  {
    auto dev = PmemDevice::open_file(path, 1 << 16, /*create=*/false);
    ASSERT_TRUE(dev.ok());
    EXPECT_EQ(dev.value()->load_u64(256), 0xabcdefu);
  }
  std::filesystem::remove(path);
}

TEST(PmemDeviceTest, OpenMissingFileFails) {
  auto dev = PmemDevice::open_file("/nonexistent-dir/x.pool", 1 << 16, false);
  EXPECT_FALSE(dev.ok());
  EXPECT_EQ(dev.status().code(), StatusCode::kIoError);
}

TEST(PmemDeviceTest, XpLineSequentialFlushesCombine) {
  // Four adjacent 64 B flushes inside one drain window touch ONE 256 B
  // internal block: write amplification 1x (the sequential case of [33]).
  auto dev = PmemDevice::create_in_memory(1 << 16);
  for (std::uint64_t l = 0; l < 4; ++l) {
    dev->store_line(LineIndex{l}, patterned_line(l));
    dev->flush_line(LineIndex{l});
  }
  dev->drain();
  EXPECT_EQ(dev->stats().xpline_blocks_written, 1u);
  EXPECT_EQ(dev->stats().media_bytes_written, 4 * kCacheLineSize);
}

TEST(PmemDeviceTest, XpLineRandomFlushesAmplify) {
  // Four scattered 64 B flushes touch four 256 B blocks: 4x internal write
  // amplification.
  auto dev = PmemDevice::create_in_memory(1 << 16);
  for (std::uint64_t l : {0ull, 16ull, 32ull, 48ull}) {  // 1 KiB apart
    dev->store_line(LineIndex{l}, patterned_line(l));
    dev->flush_line(LineIndex{l});
  }
  dev->drain();
  EXPECT_EQ(dev->stats().xpline_blocks_written, 4u);
  const double amplification =
      double(dev->stats().xpline_blocks_written * 256) /
      double(dev->stats().media_bytes_written);
  EXPECT_DOUBLE_EQ(amplification, 4.0);
}

TEST(PmemDeviceTest, XpLineWindowClosesAtDrain) {
  // The same block flushed in two separate drain windows counts twice
  // (the XPBuffer does not combine across fences).
  auto dev = PmemDevice::create_in_memory(1 << 16);
  dev->store_line(LineIndex{0}, patterned_line(1));
  dev->flush_line(LineIndex{0});
  dev->drain();
  dev->store_line(LineIndex{1}, patterned_line(2));  // same 256 B block
  dev->flush_line(LineIndex{1});
  dev->drain();
  EXPECT_EQ(dev->stats().xpline_blocks_written, 2u);
}

// Resident set size of this process, from /proc/self/statm.
std::size_t resident_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long size = 0;
  unsigned long resident = 0;
  const int got = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  return got == 2 ? resident * static_cast<std::size_t>(sysconf(_SC_PAGESIZE))
                  : 0;
}

TEST(PmemDeviceTest, FreshInMemoryMediaStaysNonResidentUntilWritten) {
  constexpr std::size_t kBytes = std::size_t{256} << 20;
  const std::size_t before = resident_bytes();
  ASSERT_GT(before, 0u);
  auto dev = PmemDevice::create_in_memory(kBytes);
  for (std::size_t off = 0; off < kBytes; off += kBytes / 64) {
    EXPECT_EQ(dev->load_line(LineIndex::containing(off)), LineData{})
        << "offset " << off;
    EXPECT_EQ(dev->durable_line(LineIndex::containing(off)), LineData{});
  }
#if !defined(__SANITIZE_THREAD__)
  // ThreadSanitizer's calloc zero-fills every block, so only the libc
  // allocator leaves the media unbacked.
  EXPECT_LT(resident_bytes() - before, std::size_t{16} << 20);
#endif

  // Written lines read back; their neighbours still read zero.
  dev->store_line(LineIndex{7}, patterned_line(7));
  dev->flush_line(LineIndex{7});
  EXPECT_EQ(dev->durable_line(LineIndex{7}), patterned_line(7));
  EXPECT_EQ(dev->durable_line(LineIndex{8}), LineData{});
}

// The media image a crash cut captures, and a device adopting it, agree
// with the device they came from byte for byte.
TEST(PmemDeviceTest, CrashCutAndAdoptedImageRoundTripByteExact) {
  constexpr std::size_t kBytes = 1 << 20;
  auto dev = PmemDevice::create_in_memory(kBytes);
  for (std::uint64_t i = 0; i < kBytes / kCacheLineSize; i += 37) {
    dev->store_line(LineIndex{i}, patterned_line(i));
    if (i % 2 == 0) dev->flush_line(LineIndex{i});
  }
  dev->drain();
  dev->arm_crash_point(dev->crash_events() + 1);
  dev->store_u64(8 * kCacheLineSize, 0xfeedULL);  // stays pending
  auto cut = dev->take_crash_cut();
  ASSERT_TRUE(cut.has_value());

  std::vector<std::byte> media(kBytes);
  dev->read_durable(0, media);
  EXPECT_EQ(cut->media, media);

  auto dropped = PmemDevice::create_in_memory_from(cut->resolve({}));
  std::vector<std::byte> adopted(kBytes);
  dropped->read_durable(0, adopted);
  EXPECT_EQ(adopted, media);

  // Every pending line survives: the adopted image is the CPU view.
  auto kept = PmemDevice::create_in_memory_from(
      cut->resolve(CrashConfig::random(1.0, 1)));
  std::vector<std::byte> visible(kBytes);
  dev->load(0, visible);
  kept->read_durable(0, adopted);
  EXPECT_EQ(adopted, visible);
  EXPECT_EQ(kept->load_u64(8 * kCacheLineSize), 0xfeedULL);
}

// A bulk load (one media copy plus the pending overlay) reads exactly what
// the per-line path reads, unflushed stores and unaligned edges included.
TEST(PmemDeviceTest, BulkLoadReturnsPendingLines) {
  constexpr std::size_t kBytes = 1 << 20;
  auto dev = PmemDevice::create_in_memory(kBytes);
  for (std::uint64_t i = 0; i < kBytes / kCacheLineSize; i += 13) {
    dev->store_line(LineIndex{i}, patterned_line(i + 1));
    if (i % 3 == 0) dev->flush_line(LineIndex{i});
  }
  // Unflushed stores straddling line boundaries, at both ends of the range.
  std::array<std::byte, 100> tail;
  tail.fill(std::byte{0xab});
  dev->store(3 * kCacheLineSize - 50, tail);
  dev->store(3 * kCacheLineSize + 2 * PmemDevice::kBulkLoadBytes - 30, tail);
  ASSERT_GT(dev->pending_line_count(), 0u);

  const PoolOffset off = 3 * kCacheLineSize - 20;
  std::vector<std::byte> bulk(2 * PmemDevice::kBulkLoadBytes);
  const std::uint64_t loads_before = dev->stats().loads;
  dev->load(off, bulk);
  EXPECT_EQ(dev->stats().loads, loads_before + 1);

  std::vector<std::byte> per_line(bulk.size());
  constexpr std::size_t kChunk = 4096;
  static_assert(kChunk < PmemDevice::kBulkLoadBytes);
  for (std::size_t at = 0; at < per_line.size(); at += kChunk) {
    dev->load(off + at, std::span(per_line).subspan(at, kChunk));
  }
  EXPECT_EQ(bulk, per_line);
  EXPECT_EQ(bulk[0], std::byte{0xab});
  EXPECT_EQ(bulk[bulk.size() - 1], std::byte{0xab});
}

// written_end() bounds what anything ever stored: each store variant
// raises it to the end of its write, it never falls, and media whose
// contents the device did not produce report their whole size.
TEST(PmemDeviceTest, WrittenEndTracksTheFurthestStore) {
  constexpr std::size_t kBytes = 1 << 20;
  auto dev = PmemDevice::create_in_memory(kBytes);
  EXPECT_EQ(dev->written_end(), 0u);

  std::array<std::byte, 100> bytes;
  bytes.fill(std::byte{0x5a});
  dev->store(1000, bytes);
  EXPECT_EQ(dev->written_end(), 1100u);
  dev->store_line(LineIndex{40}, patterned_line(40));
  EXPECT_EQ(dev->written_end(), 41 * kCacheLineSize);
  dev->store_u64(8 * kCacheLineSize, 1);  // below the extent: no change
  EXPECT_EQ(dev->written_end(), 41 * kCacheLineSize);
  dev->store_u64(100 * kCacheLineSize + 16, 2);
  EXPECT_EQ(dev->written_end(), 100 * kCacheLineSize + 24);

  // A crash drops the pending stores but not the extent.
  dev->crash(CrashConfig::drop_all());
  EXPECT_EQ(dev->written_end(), 100 * kCacheLineSize + 24);
  EXPECT_EQ(dev->load_u64(100 * kCacheLineSize + 16), 0u);

  auto adopted = PmemDevice::create_in_memory_from(
      std::vector<std::byte>(kBytes));
  EXPECT_EQ(adopted->written_end(), kBytes);

  const std::string path =
      (std::filesystem::temp_directory_path() / "pax_written_end.pool")
          .string();
  std::filesystem::remove(path);
  auto file = PmemDevice::open_file(path, 1 << 16, /*create=*/true);
  ASSERT_TRUE(file.ok()) << file.status().to_string();
  EXPECT_EQ(file.value()->written_end(), std::size_t{1} << 16);
  file.value().reset();
  std::filesystem::remove(path);
}

TEST(PmemDeviceDeathTest, MisalignedU64StoreAborts) {
  auto dev = PmemDevice::create_in_memory(1 << 16);
  EXPECT_DEATH(dev->store_u64(4, 1), "8-byte aligned");
}

TEST(PmemDeviceDeathTest, OutOfBoundsStoreAborts) {
  auto dev = PmemDevice::create_in_memory(1 << 16);
  std::array<std::byte, 16> data{};
  EXPECT_DEATH(dev->store((1 << 16) - 8, data), "PAX_CHECK");
}

}  // namespace
}  // namespace pax::pmem
