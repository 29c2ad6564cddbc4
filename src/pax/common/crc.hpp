// CRC32C (Castagnoli) for framing persistent records.
//
// Every undo-log record and the pool header carry a CRC so that recovery can
// distinguish a torn (partially persisted) record from a complete one. CRC32C
// is the storage-industry standard polynomial (iSCSI, ext4, LevelDB). On
// x86-64 CPUs with SSE4.2 the `crc32` instruction computes it (8 bytes per
// instruction); elsewhere a slice-by-8 table-driven software CRC does. The
// choice is made once, at first use, from the running CPU's feature bits.
// Both compute the same function, so the on-media format never depends on
// the machine that wrote it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace pax {

/// Computes CRC32C over `data`, seeded with `seed` (pass the previous CRC to
/// chain multi-part computations; 0 for a fresh computation).
std::uint32_t crc32c(std::span<const std::byte> data, std::uint32_t seed = 0);

/// Convenience overload for raw buffers.
std::uint32_t crc32c(const void* data, std::size_t size,
                     std::uint32_t seed = 0);

namespace crc_internal {

using Crc32cFn = std::uint32_t (*)(const void* data, std::size_t size,
                                   std::uint32_t seed);

/// The portable slice-by-8 implementation.
std::uint32_t crc32c_slice8(const void* data, std::size_t size,
                            std::uint32_t seed);

/// The SSE4.2 `crc32` implementation, or nullptr when this CPU (or this
/// build's target) lacks the instruction.
Crc32cFn crc32c_hardware();

}  // namespace crc_internal

/// CRC mixed ("masked") so that a CRC stored adjacent to the data it covers
/// does not accidentally validate (LevelDB-style masking).
constexpr std::uint32_t mask_crc(std::uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8u;
}
constexpr std::uint32_t unmask_crc(std::uint32_t masked) {
  std::uint32_t rot = masked - 0xa282ead8u;
  return (rot << 15) | (rot >> 17);
}

}  // namespace pax
