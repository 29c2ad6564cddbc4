// The headline black-box claim: *unmodified* standard containers become
// crash-consistent persistent structures through libpax (paper §1, §3.1,
// Listing 1). These tests put std::unordered_map / std::vector / std::list
// in vPM via PaxStlAllocator, crash the simulated PM at adversarial points,
// and verify snapshot semantics.
#include "pax/libpax/persistent.hpp"

#include <gtest/gtest.h>

#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "pax/libpax/stl_allocator.hpp"

namespace pax::libpax {
namespace {

constexpr std::size_t kPool = 32 << 20;

using MapAlloc =
    PaxStlAllocator<std::pair<const std::uint64_t, std::uint64_t>>;
using PMap = std::unordered_map<std::uint64_t, std::uint64_t,
                                std::hash<std::uint64_t>,
                                std::equal_to<std::uint64_t>, MapAlloc>;
using PVector = std::vector<std::uint64_t, PaxStlAllocator<std::uint64_t>>;
using PList = std::list<std::uint64_t, PaxStlAllocator<std::uint64_t>>;

RuntimeOptions options() {
  RuntimeOptions o;
  o.log_size = 2 << 20;
  o.device.log_flush_batch_bytes = 0;
  return o;
}

TEST(PersistentTest, UnorderedMapInsertPersistRecover) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  {
    auto rt = PaxRuntime::attach(pm.get(), options()).value();
    auto map = Persistent<PMap>::open(*rt).value();
    EXPECT_FALSE(map.recovered());
    for (std::uint64_t k = 0; k < 500; ++k) (*map)[k] = k * 100;
    ASSERT_TRUE(rt->persist().ok());
  }
  pm->crash(pmem::CrashConfig::drop_all());
  {
    auto rt = PaxRuntime::attach(pm.get(), options()).value();
    auto map = Persistent<PMap>::open(*rt).value();
    EXPECT_TRUE(map.recovered());
    ASSERT_EQ(map->size(), 500u);
    for (std::uint64_t k = 0; k < 500; ++k) {
      ASSERT_EQ(map->at(k), k * 100) << k;
    }
  }
}

TEST(PersistentTest, UnpersistedInsertsVanishPersistedOnesRemain) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  {
    auto rt = PaxRuntime::attach(pm.get(), options()).value();
    auto map = Persistent<PMap>::open(*rt).value();
    for (std::uint64_t k = 0; k < 100; ++k) (*map)[k] = 1;
    ASSERT_TRUE(rt->persist().ok());
    for (std::uint64_t k = 100; k < 200; ++k) (*map)[k] = 2;  // doomed
    (*map)[5] = 999;                                          // doomed update
    map->erase(7);                                            // doomed erase
    rt->sync_step();  // push doomed state toward PM: rollback must undo it
  }
  pm->crash(pmem::CrashConfig::drop_all());
  {
    auto rt = PaxRuntime::attach(pm.get(), options()).value();
    auto map = Persistent<PMap>::open(*rt).value();
    ASSERT_EQ(map->size(), 100u);
    EXPECT_EQ(map->at(5), 1u);
    EXPECT_EQ(map->count(7), 1u);
    EXPECT_EQ(map->count(150), 0u);
  }
}

TEST(PersistentTest, CrashBeforeFirstPersistGivesFreshInstance) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  {
    auto rt = PaxRuntime::attach(pm.get(), options()).value();
    auto map = Persistent<PMap>::open(*rt).value();
    for (std::uint64_t k = 0; k < 50; ++k) (*map)[k] = k;
    rt->sync_step();
    // No persist.
  }
  pm->crash(pmem::CrashConfig::drop_all());
  {
    auto rt = PaxRuntime::attach(pm.get(), options()).value();
    auto map = Persistent<PMap>::open(*rt).value();
    EXPECT_FALSE(map.recovered());  // §3.4: "a new, empty instance"
    EXPECT_TRUE(map->empty());
  }
}

TEST(PersistentTest, MultipleEpochsAccumulate) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  {
    auto rt = PaxRuntime::attach(pm.get(), options()).value();
    auto map = Persistent<PMap>::open(*rt).value();
    for (Epoch e = 0; e < 10; ++e) {
      for (std::uint64_t k = 0; k < 50; ++k) (*map)[e * 50 + k] = e;
      ASSERT_TRUE(rt->persist().ok());
    }
  }
  pm->crash(pmem::CrashConfig::drop_all());
  {
    auto rt = PaxRuntime::attach(pm.get(), options()).value();
    EXPECT_EQ(rt->committed_epoch(), 10u);
    auto map = Persistent<PMap>::open(*rt).value();
    ASSERT_EQ(map->size(), 500u);
    for (std::uint64_t k = 0; k < 500; ++k) EXPECT_EQ(map->at(k), k / 50);
  }
}

TEST(PersistentTest, VectorGrowthAcrossReallocations) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  {
    auto rt = PaxRuntime::attach(pm.get(), options()).value();
    auto vec = Persistent<PVector>::open(*rt).value();
    for (std::uint64_t i = 0; i < 10000; ++i) vec->push_back(i * 3);
    ASSERT_TRUE(rt->persist().ok());
  }
  pm->crash(pmem::CrashConfig::drop_all());
  {
    auto rt = PaxRuntime::attach(pm.get(), options()).value();
    auto vec = Persistent<PVector>::open(*rt).value();
    ASSERT_EQ(vec->size(), 10000u);
    for (std::uint64_t i = 0; i < 10000; ++i) ASSERT_EQ((*vec)[i], i * 3);
  }
}

TEST(PersistentTest, ListNodesScatteredAcrossHeap) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  {
    auto rt = PaxRuntime::attach(pm.get(), options()).value();
    auto list = Persistent<PList>::open(*rt).value();
    for (std::uint64_t i = 0; i < 1000; ++i) list->push_back(i);
    // Delete every other node: exercises free lists crossing epochs.
    auto it = list->begin();
    while (it != list->end()) {
      it = list->erase(it);
      if (it != list->end()) ++it;
    }
    ASSERT_TRUE(rt->persist().ok());
  }
  pm->crash(pmem::CrashConfig::drop_all());
  {
    auto rt = PaxRuntime::attach(pm.get(), options()).value();
    auto list = Persistent<PList>::open(*rt).value();
    ASSERT_EQ(list->size(), 500u);
    std::uint64_t expect = 1;
    for (std::uint64_t v : *list) {
      EXPECT_EQ(v, expect);
      expect += 2;
    }
  }
}

TEST(PersistentTest, TypeMismatchDetected) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  {
    auto rt = PaxRuntime::attach(pm.get(), options()).value();
    ASSERT_TRUE(Persistent<PMap>::open(*rt).ok());
    ASSERT_TRUE(rt->persist().ok());
  }
  {
    auto rt = PaxRuntime::attach(pm.get(), options()).value();
    auto wrong = Persistent<PVector>::open(*rt);
    EXPECT_FALSE(wrong.ok());
    EXPECT_EQ(wrong.status().code(), StatusCode::kFailedPrecondition);
  }
}

TEST(PersistentTest, HeapFreeListRollsBackWithData) {
  // An erase in a doomed epoch pushes nodes onto the heap free list; after
  // rollback those nodes must be live again — allocator metadata and data
  // roll back together because both live in vPM.
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  {
    auto rt = PaxRuntime::attach(pm.get(), options()).value();
    auto map = Persistent<PMap>::open(*rt).value();
    for (std::uint64_t k = 0; k < 100; ++k) (*map)[k] = k;
    ASSERT_TRUE(rt->persist().ok());
    for (std::uint64_t k = 0; k < 100; ++k) map->erase(k);  // doomed frees
    rt->sync_step();
  }
  pm->crash(pmem::CrashConfig::drop_all());
  {
    auto rt = PaxRuntime::attach(pm.get(), options()).value();
    auto map = Persistent<PMap>::open(*rt).value();
    ASSERT_EQ(map->size(), 100u);
    // And the structure stays fully usable for further mutation.
    for (std::uint64_t k = 100; k < 200; ++k) (*map)[k] = k;
    ASSERT_TRUE(rt->persist().ok());
    EXPECT_EQ(map->size(), 200u);
  }
}

TEST(PersistentTest, CustomFactorySeedsObject) {
  auto rt = PaxRuntime::create_in_memory(kPool, options()).value();
  struct Config {
    std::uint64_t a;
    double b;
  };
  auto cfg = Persistent<Config>::open(*rt, [](void* mem) {
    new (mem) Config{7, 2.5};
  }).value();
  EXPECT_EQ(cfg->a, 7u);
  EXPECT_EQ(cfg->b, 2.5);
}

}  // namespace
}  // namespace pax::libpax
