// Tests for the open-addressed line table (pax/common/line_table.hpp):
// randomized operation sequences against a std::unordered_map oracle, plus
// targeted clusters that wrap past the last slot and lose a middle entry,
// which is where backward-shift erase can go wrong.
#include "pax/common/line_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "pax/common/rng.hpp"

namespace pax {
namespace {

using Oracle = std::unordered_map<std::uint64_t, std::uint64_t>;

// Every live key is visited exactly once, with its value, and nothing else.
void expect_same_contents(const LineTable<std::uint64_t>& table,
                          const Oracle& oracle) {
  ASSERT_EQ(table.size(), oracle.size());
  Oracle seen;
  table.for_each([&](LineIndex line, const std::uint64_t& value) {
    ASSERT_TRUE(seen.emplace(line.value, value).second)
        << "key " << line.value << " visited twice";
  });
  ASSERT_EQ(seen, oracle);
  for (const auto& [key, value] : oracle) {
    const std::uint64_t* found = table.find(LineIndex{key});
    ASSERT_NE(found, nullptr) << "key " << key;
    ASSERT_EQ(*found, value);
  }
}

struct RandomCase {
  std::uint64_t key_range;
  std::uint64_t seed;
};

class LineTableRandom : public ::testing::TestWithParam<RandomCase> {};

TEST_P(LineTableRandom, MatchesUnorderedMapOracle) {
  const RandomCase c = GetParam();
  Xoshiro256 rng(c.seed);
  LineTable<std::uint64_t> table;
  Oracle oracle;
  for (int op = 0; op < 40000; ++op) {
    const std::uint64_t key = rng.next_below(c.key_range);
    const double dice = rng.next_double();
    if (dice < 0.45) {
      const std::uint64_t value = rng.next();
      auto [slot, inserted] = table.try_emplace(LineIndex{key}, value);
      auto [it, oracle_inserted] = oracle.emplace(key, value);
      ASSERT_EQ(inserted, oracle_inserted) << "op " << op;
      ASSERT_EQ(*slot, it->second) << "op " << op;
      if (rng.next_bool(0.3)) *slot = it->second = rng.next();
    } else if (dice < 0.75) {
      ASSERT_EQ(table.erase(LineIndex{key}), oracle.erase(key) == 1)
          << "op " << op;
    } else if (dice < 0.999) {
      const std::uint64_t* found = table.find(LineIndex{key});
      auto it = oracle.find(key);
      ASSERT_EQ(found != nullptr, it != oracle.end()) << "op " << op;
      if (found != nullptr) {
        ASSERT_EQ(*found, it->second);
      }
    } else {
      table.clear();
      oracle.clear();
    }
    ASSERT_EQ(table.size(), oracle.size());
    if (op % 997 == 0) expect_same_contents(table, oracle);
  }
  expect_same_contents(table, oracle);
}

INSTANTIATE_TEST_SUITE_P(
    KeyRanges, LineTableRandom,
    ::testing::Values(RandomCase{16, 1}, RandomCase{64, 2},
                      RandomCase{1000, 3}, RandomCase{1u << 20, 4},
                      // Sequential-ish keys with a stride, like one PM
                      // shard's lines.
                      RandomCase{4096, 5}),
    [](const ::testing::TestParamInfo<RandomCase>& param) {
      return "case" + std::to_string(param.index);
    });

// Keys whose probe starts at `home` in a table of the given table's
// current capacity.
std::vector<std::uint64_t> keys_homed_at(const LineTable<std::uint64_t>& t,
                                         std::size_t home, std::size_t n,
                                         std::uint64_t start = 1000) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = start; keys.size() < n; ++k) {
    if (t.home_slot(LineIndex{k}) == home) keys.push_back(k);
  }
  return keys;
}

TEST(LineTableTest, WrappingClusterSurvivesEveryEraseOrder) {
  // One cluster in a 16-slot table: 1 key homed at slot 14, 3 at slot 15
  // (two of them wrap to slots 0 and 1), 2 homed at slot 0 (pushed to 2
  // and 3) and 1 at slot 1. Erasing any member must shift the rest back
  // so that every survivor stays reachable — including across the wrap.
  LineTable<std::uint64_t> probe;
  probe.try_emplace(LineIndex{0}, 0);
  ASSERT_EQ(probe.capacity(), 16u);
  std::vector<std::uint64_t> keys;
  for (auto [home, n] : {std::pair<std::size_t, std::size_t>{14, 1},
                         {15, 3},
                         {0, 2},
                         {1, 1}}) {
    auto homed = keys_homed_at(probe, home, n);
    keys.insert(keys.end(), homed.begin(), homed.end());
  }
  ASSERT_EQ(keys.size(), 7u);  // 7 live keys keep the table at 16 slots

  for (std::size_t first = 0; first < keys.size(); ++first) {
    // Erase every key, starting with a different cluster member each time
    // and alternating direction, checking the survivors after each erase.
    std::vector<std::uint64_t> order = keys;
    std::rotate(order.begin(), order.begin() + first, order.end());
    if (first % 2 == 1) std::reverse(order.begin() + 1, order.end());

    LineTable<std::uint64_t> table;
    Oracle oracle;
    for (std::uint64_t k : keys) {
      table.try_emplace(LineIndex{k}, k * 3);
      oracle.emplace(k, k * 3);
    }
    ASSERT_EQ(table.capacity(), 16u);
    expect_same_contents(table, oracle);
    for (std::uint64_t k : order) {
      ASSERT_TRUE(table.erase(LineIndex{k}));
      ASSERT_FALSE(table.erase(LineIndex{k}));
      oracle.erase(k);
      expect_same_contents(table, oracle);
    }
    EXPECT_TRUE(table.empty());
  }
}

TEST(LineTableTest, EraseFromMiddleOfClusterThenReinsert) {
  LineTable<std::uint64_t> probe;
  probe.try_emplace(LineIndex{0}, 0);
  const auto keys = keys_homed_at(probe, 15, 5);
  LineTable<std::uint64_t> table;
  Oracle oracle;
  for (std::uint64_t k : keys) {
    table.try_emplace(LineIndex{k}, k);
    oracle.emplace(k, k);
  }
  for (int round = 0; round < 50; ++round) {
    const std::uint64_t k = keys[(round * 3) % keys.size()];
    ASSERT_EQ(table.erase(LineIndex{k}), oracle.erase(k) == 1);
    expect_same_contents(table, oracle);
    table.try_emplace(LineIndex{k}, k + round);
    oracle.emplace(k, k + round);
    expect_same_contents(table, oracle);
  }
}

TEST(LineTableTest, GrowsWhileEntriesAreLive) {
  LineTable<std::uint64_t> table;
  Oracle oracle;
  for (std::uint64_t k = 0; k < 20000; ++k) {
    const std::size_t cap = table.capacity();
    table.try_emplace(LineIndex{k * 4 + 1}, k);
    oracle.emplace(k * 4 + 1, k);
    if (table.capacity() != cap) expect_same_contents(table, oracle);
  }
  EXPECT_LE(table.size() * 2, table.capacity());
  for (std::uint64_t k = 0; k < 20000; k += 2) {
    ASSERT_TRUE(table.erase(LineIndex{k * 4 + 1}));
    oracle.erase(k * 4 + 1);
  }
  expect_same_contents(table, oracle);
}

TEST(LineTableTest, ClearFitsTheTableToRepeatedSmallLoads) {
  LineTable<std::uint64_t> table;
  for (std::uint64_t k = 0; k < 10000; ++k) table.try_emplace(LineIndex{k}, k);
  const std::size_t big = table.capacity();
  table.clear();
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.capacity(), big);  // the load it held still fits
  EXPECT_EQ(table.find(LineIndex{5}), nullptr);

  // One small load does not shrink the table; a run of them does.
  for (std::uint64_t k = 0; k < 10; ++k) table.try_emplace(LineIndex{k}, k);
  table.clear();
  EXPECT_EQ(table.capacity(), big);
  for (int round = 1; round < 8; ++round) {
    for (std::uint64_t k = 0; k < 10; ++k) table.try_emplace(LineIndex{k}, k);
    table.clear();
  }
  EXPECT_LE(table.capacity(), 32u);  // small epochs no longer pay for it
  table.try_emplace(LineIndex{7}, 70);
  ASSERT_NE(table.find(LineIndex{7}), nullptr);
  EXPECT_EQ(*table.find(LineIndex{7}), 70u);
  EXPECT_EQ(table.size(), 1u);
}

TEST(LineTableTest, AlternatingLoadsKeepTheirCapacity) {
  // An XPLine window between fences: about 96 blocks, then nearly none.
  // The table must not shrink and regrow every cycle.
  LineTable<bool> table;
  for (std::uint64_t k = 0; k < 96; ++k) table.try_emplace(LineIndex{k * 7});
  const std::size_t cap = table.capacity();
  table.clear();
  for (int cycle = 0; cycle < 20; ++cycle) {
    table.try_emplace(LineIndex{3});
    table.clear();
    ASSERT_EQ(table.capacity(), cap) << "cycle " << cycle;
    for (std::uint64_t k = 0; k < 96; ++k) table.try_emplace(LineIndex{k * 7});
    ASSERT_EQ(table.size(), 96u);
    table.clear();
    ASSERT_EQ(table.capacity(), cap) << "cycle " << cycle;
  }
}

TEST(LineTableTest, TryEmplaceKeepsTheExistingValue) {
  LineTable<std::uint64_t> table;
  EXPECT_TRUE(table.try_emplace(LineIndex{3}, 30).second);
  auto [slot, inserted] = table.try_emplace(LineIndex{3}, 99);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(*slot, 30u);
  EXPECT_TRUE(table.contains(LineIndex{3}));
  EXPECT_FALSE(table.contains(LineIndex{4}));
}

}  // namespace
}  // namespace pax
