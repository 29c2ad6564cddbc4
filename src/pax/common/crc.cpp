#include "pax/common/crc.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace pax {
namespace {

// Slice-by-8 CRC32C tables, generated at static-init time from the
// Castagnoli polynomial (reflected form 0x82f63b78).
struct Crc32cTables {
  std::array<std::array<std::uint32_t, 256>, 8> t{};

  Crc32cTables() {
    constexpr std::uint32_t kPoly = 0x82f63b78u;
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int b = 0; b < 8; ++b) {
        crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
      }
      t[0][i] = crc;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = t[0][i];
      for (std::size_t k = 1; k < 8; ++k) {
        crc = t[0][crc & 0xff] ^ (crc >> 8);
        t[k][i] = crc;
      }
    }
  }
};

const Crc32cTables& tables() {
  static const Crc32cTables kTables;
  return kTables;
}

#if defined(__x86_64__)
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    const void* data, std::size_t size, std::uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t crc = ~seed;
  for (; size >= 8; p += 8, size -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<std::uint32_t>(crc);
  while (size-- > 0) crc32 = _mm_crc32_u8(crc32, *p++);
  return ~crc32;
}
#endif

crc_internal::Crc32cFn pick_crc32c() {
  if (auto hw = crc_internal::crc32c_hardware()) return hw;
  return crc_internal::crc32c_slice8;
}

}  // namespace

namespace crc_internal {

std::uint32_t crc32c_slice8(const void* data, std::size_t size,
                            std::uint32_t seed) {
  const auto& t = tables().t;
  std::uint32_t crc = ~seed;
  const auto* p = static_cast<const unsigned char*>(data);
  std::size_t n = size;

  // Process 8 bytes at a time (slice-by-8).
  while (n >= 8) {
    std::uint32_t lo;
    std::uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= crc;
    crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
          t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
          t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) crc = t[0][(crc ^ *p++) & 0xff] ^ (crc >> 8);
  return ~crc;
}

Crc32cFn crc32c_hardware() {
#if defined(__x86_64__)
  __builtin_cpu_init();  // may run before the runtime's own CPU probe
  if (__builtin_cpu_supports("sse4.2")) return crc32c_sse42;
#endif
  return nullptr;
}

}  // namespace crc_internal

std::uint32_t crc32c(const void* data, std::size_t size, std::uint32_t seed) {
  static const crc_internal::Crc32cFn kImpl = pick_crc32c();
  return kImpl(data, size, seed);
}

std::uint32_t crc32c(std::span<const std::byte> data, std::uint32_t seed) {
  return crc32c(data.data(), data.size(), seed);
}

}  // namespace pax
