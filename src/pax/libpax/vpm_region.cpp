#include "pax/libpax/vpm_region.hpp"

#include <fcntl.h>
#include <linux/fs.h>
#include <linux/userfaultfd.h>
#include <sys/ioctl.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string>

#include "pax/common/check.hpp"
#include "pax/common/log.hpp"
#include "pax/pmem/pmem_device.hpp"

// uapi additions of Linux 6.7 (async write-protect and PAGEMAP_SCAN), for
// builds against older kernel headers. Values are the kernel's ABI.
#ifndef UFFD_FEATURE_WP_UNPOPULATED
#define UFFD_FEATURE_WP_UNPOPULATED (1 << 13)
#endif
#ifndef UFFD_FEATURE_WP_ASYNC
#define UFFD_FEATURE_WP_ASYNC (1 << 15)
#endif
#ifndef PAGEMAP_SCAN
struct page_region {
  __u64 start;
  __u64 end;
  __u64 categories;
};
struct pm_scan_arg {
  __u64 size;
  __u64 flags;
  __u64 start;
  __u64 end;
  __u64 walk_end;
  __u64 vec;
  __u64 vec_len;
  __u64 max_pages;
  __u64 category_inverted;
  __u64 category_mask;
  __u64 category_anyof_mask;
  __u64 return_mask;
};
#define PAGEMAP_SCAN _IOWR('f', 16, struct pm_scan_arg)
#define PAGE_IS_WRITTEN (1 << 1)
#define PM_SCAN_WP_MATCHING (1 << 0)
#define PM_SCAN_CHECK_WPASYNC (1 << 1)
#endif

namespace pax::libpax {
namespace {

// Fixed mapping hint so persistent raw pointers survive restarts. Regions
// are placed sequentially from here (multiple pools in one process).
//
// TSan's x86-64 address layout reserves 0x0100'0000'0000-0x2000'0000'0000
// for shadow memory and its interposed mmap rejects mappings outside the
// app ranges, so TSan builds place regions in TSan's low app range
// (0x1000-0x0080'0000'0000) instead. Pointer stability across restarts
// holds within each build flavor, which is all the tests need.
#if defined(__SANITIZE_THREAD__)
#define PAX_VPM_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PAX_VPM_UNDER_TSAN 1
#endif
#endif
#ifdef PAX_VPM_UNDER_TSAN
constexpr std::uintptr_t kVpmBaseHint = 0x0040'0000'0000ULL;
#else
constexpr std::uintptr_t kVpmBaseHint = 0x2000'0000'0000ULL;
#endif

std::atomic<std::uintptr_t> g_next_hint{kVpmBaseHint};

// Written ranges returned per PAGEMAP_SCAN call; more ranges cost another
// call (the walk resumes at walk_end).
constexpr std::size_t kScanRanges = 512;

// PM bytes seed() reads per bulk load.
constexpr std::size_t kSeedChunk = 16 * pmem::PmemDevice::kBulkLoadBytes;

bool all_zero(const std::byte* page) {
  return page[0] == std::byte{0} &&
         std::memcmp(page, page + 1, kPageSize - 1) == 0;
}

Status unsupported(const char* what) {
  const int err = errno;
  struct utsname u {};
  ::uname(&u);
  return failed_precondition(
      std::string("vPM write tracking needs Linux >= 6.7: ") + what +
      " failed (" + std::strerror(err) + ") on kernel " + u.release);
}

}  // namespace

Result<std::unique_ptr<VpmRegion>> VpmRegion::create(
    std::size_t size, std::uintptr_t fixed_hint) {
  if (size == 0 || size % kPageSize != 0) {
    return invalid_argument("vPM region size must be page-aligned");
  }
  const std::uintptr_t hint =
      fixed_hint != 0
          ? fixed_hint
          : g_next_hint.fetch_add((size + (std::uintptr_t{1} << 30)) &
                                  ~((std::uintptr_t{1} << 30) - 1));
  void* base =
      ::mmap(reinterpret_cast<void*>(hint), size, PROT_READ | PROT_WRITE,
             MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED_NOREPLACE, -1, 0);
  if (base == MAP_FAILED) {
    // Hint occupied (unusual): fall back to any address. Persistent raw
    // pointers then only survive within this process lifetime.
    PAX_LOG_WARN("vPM fixed hint unavailable, falling back: %s",
                 std::strerror(errno));
    base = ::mmap(nullptr, size, PROT_READ | PROT_WRITE,
                  MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED) {
      return io_error(std::string("mmap vPM region: ") + std::strerror(errno));
    }
  }
  // The region owns the mapping and both descriptors from here, so a failed
  // check below unwinds them.
  auto region = std::unique_ptr<VpmRegion>(
      new VpmRegion(static_cast<std::byte*>(base), size));
  region->uffd_ = static_cast<int>(
      ::syscall(SYS_userfaultfd, UFFD_USER_MODE_ONLY | O_CLOEXEC));
  if (region->uffd_ < 0) {
    return unsupported("userfaultfd(UFFD_USER_MODE_ONLY)");
  }
  region->pagemap_ = ::open("/proc/self/pagemap", O_RDONLY | O_CLOEXEC);
  if (region->pagemap_ < 0) return unsupported("open(/proc/self/pagemap)");

  uffdio_api api{};
  api.api = UFFD_API;
  api.features = UFFD_FEATURE_WP_ASYNC | UFFD_FEATURE_WP_UNPOPULATED;
  if (::ioctl(region->uffd_, UFFDIO_API, &api) != 0) {
    return unsupported("UFFDIO_API(UFFD_FEATURE_WP_ASYNC|WP_UNPOPULATED)");
  }
  uffdio_register reg{};
  reg.range.start = reinterpret_cast<std::uintptr_t>(base);
  reg.range.len = size;
  reg.mode = UFFDIO_REGISTER_MODE_WP;
  if (::ioctl(region->uffd_, UFFDIO_REGISTER, &reg) != 0) {
    return unsupported("UFFDIO_REGISTER(UFFDIO_REGISTER_MODE_WP)");
  }
  if (auto probe = region->written_pages(); !probe.ok()) {
    return unsupported("ioctl(PAGEMAP_SCAN)");
  }
  return region;
}

VpmRegion::VpmRegion(std::byte* base, std::size_t size)
    : base_(base), size_(size) {}

VpmRegion::~VpmRegion() {
  ::munmap(base_, size_);
  if (uffd_ >= 0) ::close(uffd_);
  if (pagemap_ >= 0) ::close(pagemap_);
}

Status VpmRegion::protect_all() {
  if (::madvise(base_, size_, MADV_POPULATE_READ) != 0) {
    return io_error(std::string("madvise(MADV_POPULATE_READ): ") +
                    std::strerror(errno));
  }
  uffdio_writeprotect wp{};
  wp.range.start = reinterpret_cast<std::uintptr_t>(base_);
  wp.range.len = size_;
  wp.mode = UFFDIO_WRITEPROTECT_MODE_WP;
  protect_syscalls_.fetch_add(1, std::memory_order_relaxed);
  if (::ioctl(uffd_, UFFDIO_WRITEPROTECT, &wp) != 0) {
    return io_error(std::string("UFFDIO_WRITEPROTECT: ") +
                    std::strerror(errno));
  }
  return Status::ok();
}

Status VpmRegion::seed(const pmem::PmemDevice& pm, PoolOffset from) {
  PAX_CHECK(from + size_ <= pm.size());
  const std::size_t written = std::max<PoolOffset>(pm.written_end(), from) -
                              from;
  const std::size_t end =
      std::min(size_, (written + kPageSize - 1) & ~(kPageSize - 1));
  auto chunk = std::make_unique_for_overwrite<std::byte[]>(kSeedChunk);
  for (std::size_t at = 0; at < end; at += kSeedChunk) {
    const std::size_t n = std::min(kSeedChunk, end - at);
    pm.load(from + at, {chunk.get(), n});
    for (std::size_t p = 0; p < n; p += kPageSize) {
      if (!all_zero(chunk.get() + p)) {
        std::memcpy(base_ + at + p, chunk.get() + p, kPageSize);
      }
    }
  }
  return protect_all();
}

Result<std::vector<PageIndex>> VpmRegion::take_written() {
  std::uint64_t calls = 0;
  auto pages = scan(/*reprotect=*/true, &calls);
  protect_syscalls_.fetch_add(calls, std::memory_order_relaxed);
  if (pages.ok()) {
    taken_.fetch_add(pages.value().size(), std::memory_order_relaxed);
  }
  return pages;
}

Result<std::vector<PageIndex>> VpmRegion::written_pages() const {
  std::uint64_t calls = 0;
  return scan(/*reprotect=*/false, &calls);
}

std::uint64_t VpmRegion::fault_count() const {
  auto now = written_pages();
  return taken_.load(std::memory_order_relaxed) +
         (now.ok() ? now.value().size() : 0);
}

Result<std::vector<PageIndex>> VpmRegion::scan(bool reprotect,
                                               std::uint64_t* calls) const {
  // A page is written when it is present (or swapped) without its uffd-wp
  // bit; pages never touched since protection carry the bit or a marker.
  auto ranges = std::make_unique_for_overwrite<page_region[]>(kScanRanges);
  pm_scan_arg arg{};
  arg.size = sizeof(arg);
  arg.flags = reprotect ? PM_SCAN_WP_MATCHING | PM_SCAN_CHECK_WPASYNC : 0;
  arg.start = reinterpret_cast<std::uintptr_t>(base_);
  arg.end = arg.start + size_;
  arg.vec = reinterpret_cast<std::uintptr_t>(ranges.get());
  arg.vec_len = kScanRanges;
  arg.category_mask = PAGE_IS_WRITTEN;
  arg.return_mask = PAGE_IS_WRITTEN;
  std::vector<PageIndex> out;
  for (;;) {
    ++*calls;
    const int n = ::ioctl(pagemap_, PAGEMAP_SCAN, &arg);
    if (n < 0) {
      return io_error(std::string("PAGEMAP_SCAN: ") + std::strerror(errno));
    }
    for (int i = 0; i < n; ++i) {
      for (std::uintptr_t a = ranges[i].start; a < ranges[i].end;
           a += kPageSize) {
        out.push_back(PageIndex{
            (a - reinterpret_cast<std::uintptr_t>(base_)) / kPageSize});
      }
    }
    if (arg.walk_end >= arg.end) return out;
    arg.start = arg.walk_end;
  }
}

}  // namespace pax::libpax
