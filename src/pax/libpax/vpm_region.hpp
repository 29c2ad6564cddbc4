// The vPM region: the application-visible window onto the pool's data extent.
//
// libpax maps an anonymous region at a fixed address hint (so raw pointers
// inside persistent structures stay valid across process restarts, the same
// trick PMDK's mmap hint plays), seeds it from PM, and write-protects it.
// This is the paging hybrid the paper proposes in §5.1: the first store to
// a page after its protection is the device's RdOwn-equivalent first-touch
// notification, after which libpax tracks the page's modifications at
// cache-line granularity by diffing against the device's copy (see
// PaxRuntime::push).
//
// Write protection is async userfaultfd write-protect (Linux >= 6.7): the
// region is registered in UFFDIO_REGISTER_MODE_WP on a userfaultfd with
// UFFD_FEATURE_WP_ASYNC, so the kernel resolves a first write itself by
// clearing the page's uffd-wp bit: the store never traps to user space.
// Reads of the written set go through ioctl(PAGEMAP_SCAN) on
// /proc/self/pagemap: take_written() returns the written pages and
// write-protects them again in the same walk; written_pages() only reads.
// Kernel-mode writes (read(2) into the region) are tracked like user
// stores. The region does not survive fork(): a child must map its own.
//
// Seeding: callers copy in the pages that hold data, then protect_all(),
// which maps every untouched page to the shared zero page before it
// write-protects; seed() does both from PM. No holes: a write-protected
// hole becomes a uffd-wp marker, and every scan walks markers several
// times slower than present pages. A store to the zero page is tracked
// like any first write.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "pax/common/status.hpp"
#include "pax/common/types.hpp"

namespace pax::pmem {
class PmemDevice;
}  // namespace pax::pmem

namespace pax::libpax {

class VpmRegion {
 public:
  /// Maps `size` bytes (page-aligned) and registers them for write
  /// tracking. The region starts unprotected (writable, every page counted
  /// as written); seed it, then call protect_all(). `fixed_hint`, if
  /// nonzero, requests a specific base address — PaxRuntime passes the
  /// address a pool was mapped at before, so that recovered raw pointers
  /// stay valid when the same pool is reopened. Returns
  /// failed_precondition, naming the missing feature and the running kernel
  /// release, when the kernel cannot track writes (Linux < 6.7, or
  /// userfaultfd blocked).
  static Result<std::unique_ptr<VpmRegion>> create(
      std::size_t size, std::uintptr_t fixed_hint = 0);

  ~VpmRegion();
  VpmRegion(const VpmRegion&) = delete;
  VpmRegion& operator=(const VpmRegion&) = delete;

  std::byte* base() const { return base_; }
  std::size_t size() const { return size_; }
  std::size_t page_count() const { return size_ / kPageSize; }

  std::span<std::byte> page_span(PageIndex page) const {
    return {base_ + page.byte_offset(), kPageSize};
  }

  /// Maps untouched pages to the zero page (MADV_POPULATE_READ), then
  /// write-protects every page (one UFFDIO_WRITEPROTECT) and forgets the
  /// written set: the state at an epoch boundary.
  Status protect_all();

  /// Copies the pages of PM [from, from + size()) that hold a nonzero byte,
  /// reading nothing past pm.written_end(), then protect_all().
  Status seed(const pmem::PmemDevice& pm, PoolOffset from);

  /// The seal: returns the pages written since their last protection, in
  /// index order, and write-protects them again in the same scan (one
  /// PAGEMAP_SCAN ioctl unless the written ranges overflow its buffer).
  /// The pages stay readable.
  Result<std::vector<PageIndex>> take_written();

  /// Pages written since their last protection, in index order, without
  /// re-protecting them: they stay writable and written.
  Result<std::vector<PageIndex>> written_pages() const;

  /// Pages found written by earlier take_written() calls plus the pages
  /// written now (one read-only scan). Exact when mutators are quiesced.
  std::uint64_t fault_count() const;

  /// Write-protect ioctls issued by protect_all() and take_written().
  std::uint64_t protect_syscall_count() const {
    return protect_syscalls_.load(std::memory_order_relaxed);
  }

 private:
  VpmRegion(std::byte* base, std::size_t size);
  /// One PAGEMAP_SCAN walk over the region; `calls` counts its ioctls.
  Result<std::vector<PageIndex>> scan(bool reprotect,
                                      std::uint64_t* calls) const;

  std::byte* base_;
  std::size_t size_;
  int uffd_ = -1;
  int pagemap_ = -1;  // /proc/self/pagemap, for PAGEMAP_SCAN
  std::atomic<std::uint64_t> taken_{0};
  std::atomic<std::uint64_t> protect_syscalls_{0};
};

}  // namespace pax::libpax
