// STL-compatible allocator over a PaxHeap, the piece that lets *unmodified*
// standard containers live in persistent memory (the paper's "Black-Box Code
// Reuse" property, §1; Listing 1 passes exactly such an allocator to an
// off-the-shelf hash map).
//
//   using Map = std::unordered_map<
//       K, V, std::hash<K>, std::equal_to<K>,
//       pax::libpax::PaxStlAllocator<std::pair<const K, V>>>;
//
// Containers embed a copy of their allocator, and that copy lives inside the
// persistent region — so the allocator must stay valid across process
// restarts. It therefore stores the vPM region's *base address* (stable
// across restarts thanks to the fixed mapping hint), not a pointer to the
// volatile PaxHeap object; the live heap is found through a process-global
// registry that PaxRuntime maintains (see heap registry in heap.hpp).
//
// Allocation failures surface as std::bad_alloc per the standard contract.
#pragma once

#include <cstddef>
#include <new>

#include "pax/common/check.hpp"
#include "pax/libpax/heap.hpp"

namespace pax::libpax {

template <typename T>
class PaxStlAllocator {
 public:
  using value_type = T;

  explicit PaxStlAllocator(PaxHeap* heap) {
    PAX_CHECK(heap != nullptr);
    base_ = heap->base();
  }

  template <typename U>
  PaxStlAllocator(const PaxStlAllocator<U>& other) : base_(other.base_) {}

  T* allocate(std::size_t n) {
    if (n > max_size()) throw std::bad_alloc();
    void* p =
        heap()->allocate(n * sizeof(T), alignof(T) > 16 ? alignof(T) : 16);
    if (p == nullptr) throw std::bad_alloc();
    return static_cast<T*>(p);
  }

  void deallocate(T* p, std::size_t /*n*/) noexcept { heap()->deallocate(p); }

  PaxHeap* heap() const {
    PaxHeap* h = find_registered_heap(base_);
    PAX_CHECK_MSG(h != nullptr,
                  "allocator used without a live PaxRuntime for its region");
    return h;
  }

  friend bool operator==(const PaxStlAllocator& a, const PaxStlAllocator& b) {
    return a.base_ == b.base_;
  }

 private:
  static constexpr std::size_t max_size() {
    return static_cast<std::size_t>(-1) / sizeof(T);
  }

  template <typename U>
  friend class PaxStlAllocator;

  std::byte* base_;  // region base: stable across restarts (fixed mapping)
};

}  // namespace pax::libpax
