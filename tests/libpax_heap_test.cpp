#include "pax/libpax/heap.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

namespace pax::libpax {
namespace {

// Page-aligned zeroed window (the heap requires page alignment so that
// offset alignment implies pointer alignment).
struct AlignedWindow {
  explicit AlignedWindow(std::size_t n)
      : size(n),
        data(static_cast<std::byte*>(std::aligned_alloc(4096, n))) {
    std::memset(data, 0, n);
  }
  ~AlignedWindow() { std::free(data); }
  std::size_t size;
  std::byte* data;
};

struct HeapFixture : ::testing::Test {
  AlignedWindow window{1 << 20};
  PaxHeap heap{window.data, window.size};
};

TEST_F(HeapFixture, FreshWindowIsFormatted) {
  EXPECT_FALSE(heap.recovered());
  EXPECT_EQ(heap.root_offset(), 0u);
}

TEST_F(HeapFixture, AllocateReturnsAlignedDistinctBlocks) {
  std::set<void*> seen;
  for (int i = 0; i < 100; ++i) {
    void* p = heap.allocate(24);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 16, 0u);
    EXPECT_TRUE(seen.insert(p).second);
  }
}

TEST_F(HeapFixture, OveralignedAllocationHonoured) {
  for (std::size_t align : {32u, 64u, 256u, 4096u}) {
    void* p = heap.allocate(100, align);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u) << align;
  }
}

TEST_F(HeapFixture, FreeListRecyclesSameClass) {
  void* a = heap.allocate(48);  // class 64
  heap.deallocate(a);
  void* b = heap.allocate(60);  // same class
  EXPECT_EQ(a, b);
  EXPECT_EQ(heap.stats().freelist_hits, 1u);
}

TEST_F(HeapFixture, DifferentClassesDoNotCrossRecycle) {
  void* a = heap.allocate(48);  // class 64
  heap.deallocate(a);
  void* b = heap.allocate(200);  // class 256
  EXPECT_NE(a, b);
  EXPECT_EQ(heap.stats().freelist_hits, 0u);
}

TEST_F(HeapFixture, FreeListIsLifo) {
  void* a = heap.allocate(16);
  void* b = heap.allocate(16);
  heap.deallocate(a);
  heap.deallocate(b);
  EXPECT_EQ(heap.allocate(16), b);
  EXPECT_EQ(heap.allocate(16), a);
}

TEST_F(HeapFixture, WriteFullBlockDoesNotCorruptNeighbors) {
  void* a = heap.allocate(64);
  void* b = heap.allocate(64);
  std::memset(a, 0xaa, 64);
  std::memset(b, 0xbb, 64);
  heap.deallocate(a);
  heap.deallocate(b);
  // Reallocate and write again: headers must still be intact (deallocate
  // PAX_CHECKs the header).
  void* c = heap.allocate(64);
  std::memset(c, 0xcc, 64);
  heap.deallocate(c);
}

TEST_F(HeapFixture, ExhaustionReturnsNull) {
  // 1 MiB window: a few 256 KiB blocks fit, then nullptr (not a crash).
  std::size_t got = 0;
  while (heap.allocate(256 * 1024) != nullptr) ++got;
  EXPECT_GE(got, 2u);
  EXPECT_LE(got, 4u);
  // Small allocations may still fit afterwards or not; must not crash.
  (void)heap.allocate(16);
}

TEST_F(HeapFixture, LargeBlocksBumpOnlyAndDropOnFree) {
  // 512 KiB + 1 is within kMaxClassSize, but its 1 MiB class exceeds half
  // the window.
  void* p = heap.allocate((1 << 20) / 2 + 1);
  // With a 1 MiB window a 1 MiB-class reservation fails: accept either
  // outcome but exercise the large path with a smaller window case below.
  if (p != nullptr) heap.deallocate(p);

  AlignedWindow big_window(8 << 20);
  PaxHeap big(big_window.data, big_window.size);
  void* large = big.allocate((2 << 20));  // > kMaxClassSize: bump-only
  ASSERT_NE(large, nullptr);
  big.deallocate(large);
  EXPECT_EQ(big.stats().large_frees_dropped, 1u);
  void* next = big.allocate(2 << 20);
  EXPECT_NE(next, large);  // not recycled
}

TEST_F(HeapFixture, RootOffsetRoundTrips) {
  void* p = heap.allocate(128);
  heap.set_root_offset(heap.ptr_to_offset(p));
  EXPECT_EQ(heap.offset_to_ptr(heap.root_offset()), p);
}

TEST_F(HeapFixture, ReattachRecoversStateIncludingFreeLists) {
  void* a = heap.allocate(32);
  void* b = heap.allocate(32);
  std::memset(b, 0x7e, 32);
  heap.deallocate(a);
  heap.set_root_offset(heap.ptr_to_offset(b));

  // Reattach over the same bytes: everything persists (header is in-window).
  PaxHeap again(window.data, window.size);
  EXPECT_TRUE(again.recovered());
  EXPECT_EQ(again.offset_to_ptr(again.root_offset()), b);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(static_cast<std::byte*>(b)[i], std::byte{0x7e});
  }
  // The free list survived: class-32 allocation reuses a's slot.
  EXPECT_EQ(again.allocate(32), a);
}

TEST_F(HeapFixture, ZeroByteAllocationIsValid) {
  void* p = heap.allocate(0);
  EXPECT_NE(p, nullptr);
  heap.deallocate(p);
}

TEST_F(HeapFixture, DeallocateNullIsNoop) {
  heap.deallocate(nullptr);
  EXPECT_EQ(heap.stats().frees, 0u);
}

TEST(HeapDeathTest, ForeignPointerFreeAborts) {
  AlignedWindow window(1 << 20);
  PaxHeap heap(window.data, window.size);
  int x = 0;
  EXPECT_DEATH(heap.deallocate(&x), "outside the heap");
}

}  // namespace
}  // namespace pax::libpax
