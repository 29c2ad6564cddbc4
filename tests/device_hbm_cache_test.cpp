#include "pax/device/hbm_cache.hpp"

#include <gtest/gtest.h>

#include "test_util.hpp"

namespace pax::device {
namespace {

using testing::patterned_line;

HbmConfig tiny(bool prefer_durable = true) {
  HbmConfig c;
  c.capacity_lines = 4;
  c.ways = 4;  // one set: eviction choices are fully observable
  c.prefer_durable_eviction = prefer_durable;
  return c;
}

TEST(HbmCacheTest, LookupMissThenHit) {
  HbmCache cache(tiny());
  EXPECT_EQ(cache.lookup(LineIndex{1}), nullptr);
  cache.insert(LineIndex{1}, patterned_line(1), false, 0, 0);
  const HbmCache::Entry* hit = cache.lookup(LineIndex{1});
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->data, patterned_line(1));
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(HbmCacheTest, InsertUpdatesInPlaceWithoutEviction) {
  HbmCache cache(tiny());
  cache.insert(LineIndex{1}, patterned_line(1), false, 0, 0);
  auto evicted = cache.insert(LineIndex{1}, patterned_line(2), true, 100, 0);
  EXPECT_FALSE(evicted.has_value());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.lookup(LineIndex{1})->data, patterned_line(2));
  EXPECT_TRUE(cache.find(LineIndex{1})->dirty);
}

TEST(HbmCacheTest, DirtyBitSticksUntilMarkedClean) {
  HbmCache cache(tiny());
  cache.insert(LineIndex{1}, patterned_line(1), true, 50, 0);
  // A clean re-insert (e.g. read refill) must not wash out dirtiness.
  cache.insert(LineIndex{1}, patterned_line(1), false, 0, 0);
  EXPECT_TRUE(cache.find(LineIndex{1})->dirty);
  cache.find(LineIndex{1})->mark_clean();
  EXPECT_FALSE(cache.find(LineIndex{1})->dirty);
}

TEST(HbmCacheTest, EvictionPrefersCleanVictim) {
  HbmCache cache(tiny());
  // Fill: line0 clean (oldest), lines 1-3 dirty.
  cache.insert(LineIndex{10}, patterned_line(0), true, 10, 0);
  cache.insert(LineIndex{11}, patterned_line(1), false, 0, 0);
  cache.insert(LineIndex{12}, patterned_line(2), true, 20, 0);
  cache.insert(LineIndex{13}, patterned_line(3), true, 30, 0);

  auto evicted = cache.insert(LineIndex{14}, patterned_line(4), true, 40, 0);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->line, LineIndex{11});  // the clean one, not LRU line 10
  EXPECT_FALSE(evicted->dirty);
  EXPECT_EQ(cache.stats().clean_evictions, 1u);
}

TEST(HbmCacheTest, EvictionPrefersDurableDirtyOverNonDurable) {
  HbmCache cache(tiny());
  // All dirty. Records end at 10,20,30,40; durable watermark = 25.
  cache.insert(LineIndex{10}, patterned_line(0), true, 10, 0);
  cache.insert(LineIndex{11}, patterned_line(1), true, 20, 0);
  cache.insert(LineIndex{12}, patterned_line(2), true, 30, 0);
  cache.insert(LineIndex{13}, patterned_line(3), true, 40, 0);

  auto evicted =
      cache.insert(LineIndex{14}, patterned_line(4), true, 50, /*durable=*/25);
  ASSERT_TRUE(evicted.has_value());
  // LRU among durable-logged dirty lines (ends 10 and 20) is line 10.
  EXPECT_EQ(evicted->line, LineIndex{10});
  EXPECT_EQ(cache.stats().durable_dirty_evictions, 1u);
  EXPECT_EQ(cache.stats().stall_evictions, 0u);
}

TEST(HbmCacheTest, StallEvictionWhenNothingIsDurable) {
  HbmCache cache(tiny());
  for (std::uint64_t i = 0; i < 4; ++i) {
    cache.insert(LineIndex{10 + i}, patterned_line(i), true, 100 + i, 0);
  }
  auto evicted =
      cache.insert(LineIndex{20}, patterned_line(9), true, 200, /*durable=*/0);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_TRUE(evicted->dirty);
  EXPECT_EQ(cache.stats().stall_evictions, 1u);
}

TEST(HbmCacheTest, PureLruModeIgnoresDurability) {
  HbmCache cache(tiny(/*prefer_durable=*/false));
  cache.insert(LineIndex{10}, patterned_line(0), true, 10, 0);   // LRU, dirty
  cache.insert(LineIndex{11}, patterned_line(1), false, 0, 0);   // clean
  cache.insert(LineIndex{12}, patterned_line(2), true, 30, 0);
  cache.insert(LineIndex{13}, patterned_line(3), true, 40, 0);
  auto evicted =
      cache.insert(LineIndex{14}, patterned_line(4), true, 50, /*durable=*/99);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->line, LineIndex{10});  // strict LRU, despite clean 11
}

TEST(HbmCacheTest, LruRefreshedByLookup) {
  HbmCache cache(tiny(/*prefer_durable=*/false));
  for (std::uint64_t i = 0; i < 4; ++i) {
    cache.insert(LineIndex{10 + i}, patterned_line(i), false, 0, 0);
  }
  cache.lookup(LineIndex{10});  // refresh the would-be victim
  auto evicted = cache.insert(LineIndex{20}, patterned_line(9), false, 0, 0);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->line, LineIndex{11});
}

TEST(HbmCacheTest, ForEachDirtyCleansInPlace) {
  HbmCache cache(tiny());
  for (std::uint64_t i = 0; i < 4; ++i) {
    cache.insert(LineIndex{10 + i}, patterned_line(i), i % 2 == 0, 10 + i, 0);
  }
  std::size_t visited = 0;
  cache.for_each_dirty([&](HbmCache::Entry& e) {
    EXPECT_TRUE(e.line == LineIndex{10} || e.line == LineIndex{12});
    e.mark_clean();
    ++visited;
  });
  EXPECT_EQ(visited, 2u);
  cache.for_each_dirty([](HbmCache::Entry& e) {
    ADD_FAILURE() << "line " << e.line.value << " still dirty";
  });
  EXPECT_EQ(cache.size(), 4u);
}

TEST(HbmCacheTest, FoundEntryIsUpdatedWithoutAnotherProbe) {
  HbmCache cache(tiny());
  cache.insert(LineIndex{1}, patterned_line(1), true, 77, 0);
  const std::uint64_t probes = cache.stats().probes;
  HbmCache::Entry* e = cache.find(LineIndex{1});
  ASSERT_NE(e, nullptr);
  e->data = patterned_line(2);
  e->mark_clean();
  EXPECT_EQ(cache.stats().probes, probes + 1);
  EXPECT_EQ(cache.lookup(LineIndex{1})->data, patterned_line(2));
  EXPECT_FALSE(cache.find(LineIndex{1})->dirty);
  // A miss allocates nothing.
  EXPECT_EQ(cache.find(LineIndex{99}), nullptr);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(HbmCacheTest, AllocateTakesAFreeWayWithoutProbing) {
  HbmCache cache(tiny());
  std::optional<EvictedLine> victim;
  HbmCache::Entry* e = cache.allocate(LineIndex{5}, 0, &victim);
  ASSERT_NE(e, nullptr);
  EXPECT_FALSE(victim.has_value());
  EXPECT_EQ(e->line, LineIndex{5});
  EXPECT_FALSE(e->dirty);
  EXPECT_EQ(cache.stats().probes, 0u);
  EXPECT_EQ(cache.stats().insertions, 1u);
  EXPECT_EQ(cache.find(LineIndex{5}), e);
}

TEST(HbmCacheTest, AllocateNeverEvictsPinnedWays) {
  HbmCache cache(tiny());
  // Line 10 is the LRU clean line — the natural victim — but pinned.
  cache.insert(LineIndex{10}, patterned_line(0), false, 0, 0);
  for (std::uint64_t i = 1; i < 4; ++i) {
    cache.insert(LineIndex{10 + i}, patterned_line(i), true, i, 0);
  }
  cache.find(LineIndex{10})->pinned = true;
  std::optional<EvictedLine> victim;
  ASSERT_NE(cache.allocate(LineIndex{20}, /*durable=*/99, &victim), nullptr);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->line, LineIndex{11});  // LRU among the unpinned
  EXPECT_NE(cache.find(LineIndex{10}), nullptr);
}

TEST(HbmCacheTest, AllocateFailsWhenEveryWayIsPinned) {
  HbmCache cache(tiny());
  for (std::uint64_t i = 0; i < 4; ++i) {
    cache.insert(LineIndex{10 + i}, patterned_line(i), false, 0, 0);
    cache.find(LineIndex{10 + i})->pinned = true;
  }
  std::optional<EvictedLine> victim;
  EXPECT_EQ(cache.allocate(LineIndex{20}, 0, &victim), nullptr);
  EXPECT_FALSE(victim.has_value());
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(HbmCacheTest, DropFreesTheWay) {
  HbmCache cache(tiny());
  cache.insert(LineIndex{1}, patterned_line(1), false, 0, 0);
  cache.drop(*cache.find(LineIndex{1}));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.lookup(LineIndex{1}), nullptr);
}

TEST(HbmCacheTest, SetAssociativityConfinesEvictionToSet) {
  // With many sets, inserting lines that map to different sets must not
  // evict each other even past nominal capacity of one set.
  HbmConfig c;
  c.capacity_lines = 64;
  c.ways = 4;
  HbmCache cache(c);
  std::size_t evictions = 0;
  for (std::uint64_t i = 0; i < 32; ++i) {
    if (cache.insert(LineIndex{i}, patterned_line(i), false, 0, 0)) {
      ++evictions;
    }
  }
  // 32 lines over 16 sets × 4 ways: overflow of any single set is unlikely
  // but possible with hashing; the total must stay far below 32.
  EXPECT_LT(evictions, 8u);
}

}  // namespace
}  // namespace pax::device
