// Randomized crash-property tests for the baseline systems, mirroring the
// libpax oracle suites: whatever the baseline promises must hold under
// random workloads × random crash points × crash modes.
//
//   * PMDK hash map: per-operation transactions — after a crash the map
//     equals the oracle at the last *committed transaction* (no torn ops).
//   * Page-WAL runtime: epoch snapshots at page granularity — after a crash
//     the region equals the oracle at the last persisted epoch.
#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "pax/baselines/pagewal/pagewal.hpp"
#include "pax/baselines/pmdk/phashmap.hpp"
#include "pax/common/rng.hpp"
#include "test_util.hpp"

namespace pax::baselines {
namespace {

class PmdkCrashProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PmdkCrashProperty, MapMatchesOracleAfterCrash) {
  const std::uint64_t seed = GetParam();
  Xoshiro256 rng(seed);

  auto tp = testing::TestPool::create(8 << 20, 512 * 1024);
  std::map<std::uint64_t, std::uint64_t> oracle;

  {
    pmdk::TxRuntime tx(&tp.pool);
    auto map = pmdk::PHashMap::create(&tx, 64).value();

    const std::uint64_t ops = 200 + rng.next_below(600);
    const std::uint64_t crash_after = rng.next_below(ops);
    for (std::uint64_t i = 0; i < crash_after; ++i) {
      const std::uint64_t key = 1 + rng.next_below(150);
      if (rng.next_double() < 0.7) {
        const std::uint64_t value = rng.next();
        ASSERT_TRUE(map.put(key, value).is_ok());
        oracle[key] = value;
      } else {
        Status s = map.erase(key);
        ASSERT_EQ(s.is_ok(), oracle.erase(key) > 0);
      }
    }
    // Crash mid-next-transaction: begin + snapshot + store, no commit.
    ASSERT_TRUE(tx.tx_begin().is_ok());
    const PoolOffset victim = tp.pool.data_offset() + 8 * rng.next_below(64);
    ASSERT_TRUE(tx.tx_snapshot(victim, 8).is_ok());
    const std::uint64_t junk = 0xbadbadbadULL;
    ASSERT_TRUE(
        tx.tx_store(victim, std::as_bytes(std::span(&junk, 1))).is_ok());
    tp.device->flush_range(victim, 8);
  }
  tp.device->crash(pmem::CrashConfig::random(0.5, seed * 7 + 3));

  pmdk::TxRuntime recovered(&tp.pool);
  auto map = pmdk::PHashMap::open(&recovered).value();
  ASSERT_EQ(map.size(), oracle.size());
  for (const auto& [k, v] : oracle) {
    ASSERT_EQ(map.get(k), std::optional(v)) << "key " << k;
  }
  // Still fully functional after recovery.
  ASSERT_TRUE(map.put(7777, 1).is_ok());
  ASSERT_EQ(map.get(7777), std::optional<std::uint64_t>(1));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PmdkCrashProperty,
                         ::testing::Values(101, 102, 103, 104, 105, 106, 107,
                                           108));

class PageWalCrashProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(PageWalCrashProperty, RegionMatchesOracleAtCommittedEpoch) {
  const std::uint64_t seed = GetParam();
  Xoshiro256 rng(seed);

  auto pm = pmem::PmemDevice::create_in_memory(32 << 20);
  constexpr std::uint64_t kCells = 2048;  // u64 cells across several pages

  std::map<std::uint64_t, std::uint64_t> oracle;
  std::vector<std::map<std::uint64_t, std::uint64_t>> snapshots{oracle};

  {
    auto rt = pagewal::PageWalRuntime::attach(pm.get(), 16 << 20).value();
    const std::uint64_t ops = 200 + rng.next_below(800);
    const std::uint64_t crash_after = rng.next_below(ops);
    for (std::uint64_t i = 0; i < crash_after; ++i) {
      const std::uint64_t cell = rng.next_below(kCells);
      const std::uint64_t value = rng.next() | 1;
      std::memcpy(rt->base() + cell * 8, &value, 8);
      oracle[cell] = value;
      if (rng.next_double() < 0.04) {
        ASSERT_TRUE(rt->persist().ok());
        snapshots.push_back(oracle);
      }
    }
  }
  pm->crash(pmem::CrashConfig::torn(0.5, seed + 11));

  auto rt = pagewal::PageWalRuntime::attach(pm.get(), 16 << 20).value();
  const Epoch committed = rt->committed_epoch();
  ASSERT_LT(committed, snapshots.size());
  const auto& expect = snapshots[committed];
  for (std::uint64_t cell = 0; cell < kCells; ++cell) {
    std::uint64_t v;
    std::memcpy(&v, rt->base() + cell * 8, 8);
    auto it = expect.find(cell);
    ASSERT_EQ(v, it == expect.end() ? 0 : it->second)
        << "cell " << cell << " epoch " << committed;
  }
  // Still functional.
  std::uint64_t marker = 0x1234;
  std::memcpy(rt->base(), &marker, 8);
  ASSERT_TRUE(rt->persist().ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageWalCrashProperty,
                         ::testing::Values(201, 202, 203, 204, 205, 206));

}  // namespace
}  // namespace pax::baselines
