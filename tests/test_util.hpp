// Shared helpers for the pax test suites.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "pax/common/types.hpp"
#include "pax/pmem/pmem_device.hpp"
#include "pax/pmem/pool.hpp"

namespace pax::testing {

/// Concatenates `parts`: cat("k", std::to_string(i)). Spelled as appends
/// because GCC 12 at -O3 flags the inlined insert of
/// `"k" + std::to_string(i)` with a false -Wrestrict warning.
template <typename... Parts>
std::string cat(const Parts&... parts) {
  std::string out;
  (out.append(parts), ...);
  return out;
}

/// A line filled with a recognizable per-line pattern derived from `tag`.
inline LineData patterned_line(std::uint64_t tag) {
  LineData d;
  for (std::size_t i = 0; i < kCacheLineSize; ++i) {
    d.bytes[i] = static_cast<std::byte>((tag * 131 + i * 7 + 13) & 0xff);
  }
  return d;
}

/// In-memory device + freshly formatted pool, for unit tests.
struct TestPool {
  std::unique_ptr<pmem::PmemDevice> device;
  pmem::PmemPool pool;

  static TestPool create(std::size_t device_bytes = 1 << 20,
                         std::size_t log_bytes = 64 * 1024) {
    auto dev = pmem::PmemDevice::create_in_memory(device_bytes);
    auto pool = pmem::PmemPool::create(dev.get(), log_bytes);
    if (!pool.ok()) {
      std::abort();
    }
    return TestPool{std::move(dev), pool.value()};
  }

  /// First line index of the data extent.
  LineIndex data_line(std::uint64_t i) const {
    return LineIndex{pool.data_offset() / kCacheLineSize + i};
  }
};

}  // namespace pax::testing
