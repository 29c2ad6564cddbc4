// Property tests of the HBM buffer across configurations (TEST_P sweep):
// the properties crash consistency leans on, model-checked against a
// reference map over long random op sequences.
//
//   * value coherence: lookup always returns the most recently inserted data;
//   * capacity: live entries never exceed capacity;
//   * dirty-line conservation: a dirty line is never silently dropped — it
//     is either still in the buffer (dirty or cleaned by the caller) or was
//     handed back as an eviction victim carrying its latest data. Losing a
//     dirty line would lose committed-epoch data at persist time.
#include "pax/device/hbm_cache.hpp"

#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>

#include "pax/common/rng.hpp"
#include "test_util.hpp"

namespace pax::device {
namespace {

using testing::patterned_line;

struct HbmParam {
  std::size_t capacity;
  unsigned ways;
  bool prefer_durable;
  std::uint64_t seed;
};

class HbmProperty : public ::testing::TestWithParam<HbmParam> {};

TEST_P(HbmProperty, RandomOpsPreserveInvariants) {
  const HbmParam param = GetParam();
  HbmConfig cfg;
  cfg.capacity_lines = param.capacity;
  cfg.ways = param.ways;
  cfg.prefer_durable_eviction = param.prefer_durable;
  HbmCache cache(cfg);

  Xoshiro256 rng(param.seed);

  // Reference state: everything the cache must still answer for.
  struct Ref {
    LineData data;
    bool dirty;
  };
  std::unordered_map<LineIndex, Ref> resident;  // mirror of cache contents
  std::uint64_t durable_watermark = 0;
  std::uint64_t next_record_end = 1;

  for (int op = 0; op < 20000; ++op) {
    const LineIndex line{rng.next_below(param.capacity * 4)};
    const double dice = rng.next_double();

    if (dice < 0.55) {
      // Insert/update, dirty or clean.
      const bool dirty = rng.next_bool(0.5);
      const LineData data = patterned_line(rng.next());
      const std::uint64_t record_end = dirty ? next_record_end++ : 0;
      auto victim =
          cache.insert(line, data, dirty, record_end, durable_watermark);
      if (victim) {
        auto it = resident.find(victim->line);
        ASSERT_NE(it, resident.end()) << "evicted a line we never inserted";
        // Dirty-line conservation: the victim carries its latest data.
        ASSERT_EQ(victim->dirty, it->second.dirty);
        if (victim->dirty) {
          ASSERT_EQ(victim->data, it->second.data)
              << "evicted dirty line lost its newest data";
        }
        resident.erase(it);
      }
      auto& ref = resident[line];
      ref.data = data;
      ref.dirty = dirty || (ref.dirty && resident.contains(line));
      // insert() ORs dirtiness on update; recompute precisely:
      if (const HbmCache::Entry* found = cache.lookup(line)) {
        ref.dirty = found->dirty;
        ASSERT_EQ(found->data, data);
      } else {
        FAIL() << "line vanished immediately after insert";
      }
    } else if (dice < 0.75) {
      // Lookup must agree with the reference.
      const HbmCache::Entry* found = cache.lookup(line);
      auto it = resident.find(line);
      if (it == resident.end()) {
        ASSERT_EQ(found, nullptr);
      } else {
        ASSERT_NE(found, nullptr);
        ASSERT_EQ(found->data, it->second.data);
      }
    } else if (dice < 0.85) {
      if (HbmCache::Entry* e = cache.find(line)) e->mark_clean();
      if (auto it = resident.find(line); it != resident.end()) {
        it->second.dirty = false;
      }
      const HbmCache::Entry* e = cache.find(line);
      ASSERT_TRUE(e == nullptr || !e->dirty);
    } else if (dice < 0.92) {
      // Advance the durable watermark (the log flushed).
      durable_watermark = next_record_end;
    } else {
      if (HbmCache::Entry* e = cache.find(line)) cache.drop(*e);
      resident.erase(line);
      ASSERT_EQ(cache.lookup(line), nullptr);
    }

    ASSERT_LE(cache.size(), cache.capacity());
    ASSERT_EQ(cache.size(), resident.size());
  }

  // Final audit: every reference entry is still present with its data, and
  // the dirty sets agree exactly.
  std::size_t dirty_in_cache = 0;
  cache.for_each_dirty([&](HbmCache::Entry& e) {
    auto it = resident.find(e.line);
    ASSERT_NE(it, resident.end());
    ASSERT_TRUE(it->second.dirty);
    ASSERT_EQ(e.data, it->second.data);
    ++dirty_in_cache;
  });
  std::size_t dirty_in_ref = 0;
  for (const auto& [line, ref] : resident) dirty_in_ref += ref.dirty ? 1 : 0;
  ASSERT_EQ(dirty_in_cache, dirty_in_ref);
}

std::vector<HbmParam> hbm_params() {
  std::vector<HbmParam> params;
  std::uint64_t seed = 1000;
  for (std::size_t capacity : {16u, 64u, 256u}) {
    for (unsigned ways : {2u, 4u, 16u}) {
      if (ways > capacity) continue;
      for (bool durable : {true, false}) {
        params.push_back({capacity, ways, durable, ++seed});
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(Configs, HbmProperty,
                         ::testing::ValuesIn(hbm_params()),
                         [](const auto& param_info) {
                           const HbmParam& p = param_info.param;
                           return "cap" + std::to_string(p.capacity) + "w" +
                                  std::to_string(p.ways) +
                                  (p.prefer_durable ? "_durable" : "_lru");
                         });

}  // namespace
}  // namespace pax::device
