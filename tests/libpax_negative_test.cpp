// Negative paths and robustness: corrupted pools, bad geometry, occupied
// mapping hints, double-open, and an alternating persist/persist_async
// stress — failure must be an error (or a clean fallback), never UB.
#include <gtest/gtest.h>

#include <unordered_map>

#include "pax/libpax/persistent.hpp"

namespace pax::libpax {
namespace {

constexpr std::size_t kPool = 16 << 20;

TEST(NegativeTest, CorruptedHeaderSurfacesOnAttach) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  {
    auto rt = PaxRuntime::attach(pm.get());
    ASSERT_TRUE(rt.ok());
    ASSERT_TRUE(rt.value()->persist().ok());
  }
  // Durably flip a geometry byte behind the CRC's back.
  pm->atomic_durable_store_u64(24, pm->load_u64(24) ^ 0x10000);
  auto rt = PaxRuntime::attach(pm.get());
  EXPECT_FALSE(rt.ok());
  EXPECT_EQ(rt.status().code(), StatusCode::kCorruption);
}

TEST(NegativeTest, UnalignedLogSizeRejected) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  RuntimeOptions o;
  o.log_size = 4096 + 64;  // not page-aligned
  auto rt = PaxRuntime::attach(pm.get(), o);
  EXPECT_FALSE(rt.ok());
  EXPECT_EQ(rt.status().code(), StatusCode::kInvalidArgument);
}

TEST(NegativeTest, TinyPoolRejected) {
  auto rt = PaxRuntime::create_in_memory(8192);
  EXPECT_FALSE(rt.ok());
}

TEST(NegativeTest, OccupiedBaseHintFallsBackCleanly) {
  auto pm_a = pmem::PmemDevice::create_in_memory(kPool);
  auto pm_b = pmem::PmemDevice::create_in_memory(kPool);
  auto rt_a = PaxRuntime::attach(pm_a.get()).value();

  RuntimeOptions o;
  o.vpm_base_hint = reinterpret_cast<std::uintptr_t>(rt_a->vpm_base());
  auto rt_b = PaxRuntime::attach(pm_b.get(), o);
  ASSERT_TRUE(rt_b.ok());  // falls back to another address with a warning
  EXPECT_NE(rt_b.value()->vpm_base(), rt_a->vpm_base());
  // Both remain fully functional.
  rt_a->vpm_base()[4096] = std::byte{1};
  rt_b.value()->vpm_base()[4096] = std::byte{2};
  ASSERT_TRUE(rt_a->persist().ok());
  ASSERT_TRUE(rt_b.value()->persist().ok());
}

TEST(NegativeTest, SecondPersistentOpenReturnsSameRoot) {
  using PMap = std::unordered_map<
      std::uint64_t, std::uint64_t, std::hash<std::uint64_t>,
      std::equal_to<std::uint64_t>,
      PaxStlAllocator<std::pair<const std::uint64_t, std::uint64_t>>>;
  auto rt = PaxRuntime::create_in_memory(kPool).value();
  auto first = Persistent<PMap>::open(*rt).value();
  (*first)[1] = 11;
  auto second = Persistent<PMap>::open(*rt).value();
  EXPECT_TRUE(second.recovered());        // found the existing root
  EXPECT_EQ(second.get(), first.get());   // same object
  EXPECT_EQ(second->at(1), 11u);
}

TEST(NegativeTest, AlternatingPersistStress) {
  // Blocking persists alternate with persist_async() rounds, whose drain
  // pushes and commits a private snapshot while the next round already
  // stores into the live map; everything must stay consistent and shut
  // down cleanly.
  using PMap = std::unordered_map<
      std::uint64_t, std::uint64_t, std::hash<std::uint64_t>,
      std::equal_to<std::uint64_t>,
      PaxStlAllocator<std::pair<const std::uint64_t, std::uint64_t>>>;

  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  RuntimeOptions o;
  o.log_size = 4 << 20;
  Epoch last = 0;
  {
    auto rt = PaxRuntime::attach(pm.get(), o).value();
    auto map = Persistent<PMap>::open(*rt).value();
    for (std::uint64_t k = 0; k < 200; ++k) (*map)[k] = 0;
    ASSERT_TRUE(rt->persist().ok());
    for (std::uint64_t round = 1; round <= 20; ++round) {
      // Invariant per snapshot: all values equal.
      for (std::uint64_t k = 0; k < 200; ++k) map->at(k) = round;
      auto e = round % 2 == 0 ? rt->persist() : rt->persist_async();
      ASSERT_TRUE(e.ok()) << e.status().to_string();
      last = e.value();
    }
    ASSERT_TRUE(rt->wait_persisted(last).ok());
  }
  pm->crash(pmem::CrashConfig::drop_all());
  auto rt = PaxRuntime::attach(pm.get(), o).value();
  EXPECT_GE(rt->committed_epoch(), last);
  auto map = Persistent<PMap>::open(*rt).value();
  ASSERT_EQ(map->size(), 200u);
  const std::uint64_t v0 = map->at(0);
  EXPECT_EQ(v0, 20u);
  for (std::uint64_t k = 0; k < 200; ++k) {
    ASSERT_EQ(map->at(k), v0) << "torn snapshot at key " << k;
  }
}

TEST(NegativeTest, HeapExhaustionThrowsBadAlloc) {
  using PVec = std::vector<std::uint64_t, PaxStlAllocator<std::uint64_t>>;
  // 2 MiB data extent, 8 MiB log (4 MiB per bank ≈ 43k records): the whole
  // data extent can be dirtied and still persist in one epoch.
  RuntimeOptions o;
  o.log_size = 8 << 20;
  auto rt = PaxRuntime::create_in_memory(10 << 20, o).value();
  auto vec = Persistent<PVec>::open(*rt).value();
  EXPECT_THROW(
      {
        for (int i = 0; i < 1 << 22; ++i) vec->push_back(i);
      },
      std::bad_alloc);
  // The runtime survives; smaller work still succeeds after the throw.
  ASSERT_TRUE(rt->persist().ok());
}

}  // namespace
}  // namespace pax::libpax
