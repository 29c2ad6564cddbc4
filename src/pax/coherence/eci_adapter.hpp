// ECI → CXL adapter: the paper's §4 "adapter layer".
//
// "The coherence messages observed by the FPGA [on Enzian] are at a lower
// level than what a CXL-enabled device would receive, and they are tightly
// coupled to the ThunderX's microarchitecture. Our plan is to implement an
// 'adapter' layer at the FPGA that filters and adapts the ThunderX's
// coherence messages to match the CXL specification so our implementation
// will be immediately portable to commodity machines when CXL devices
// arrive."
//
// This module implements that layer over a *simplified* ECI-like message
// vocabulary (the real ECI has dozens of VCs and message types; the subset
// here captures the semantics PAX needs — names follow the ThunderX victim/
// load conventions but are not a wire-accurate ECI encoding):
//
//   RLDD   remote load, data       → CXL RdShared
//   RLDX   remote load, exclusive  → CXL RdOwn (write-intent: undo-log)
//   RC2D   request change to dirty → CXL RdOwn upgrade (data stays remote)
//   VICD   victim dirty (data)     → CXL DirtyEvict
//   VICC   victim clean            → filtered (no device action; counted)
//   VICS   victim shared           → filtered
//
// Two genuine microarchitectural mismatches are adapted, not just renamed:
//   * ThunderX cache blocks are 128 B; CXL.cache lines are 64 B. Every ECI
//     block message fans out into operations on two adjacent lines.
//   * RC2D carries no data (the remote core already holds the block); the
//     adapter must not overwrite the device's buffered copy, only register
//     write intent — exactly the paper's "the message only notifies the
//     device that the CPU will modify the cache line, not what it will
//     change it to" (§3.3).
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "pax/common/status.hpp"
#include "pax/common/types.hpp"
#include "pax/device/pax_device.hpp"

namespace pax::coherence {

/// ThunderX-1 cache block size.
inline constexpr std::size_t kEciBlockSize = 128;
inline constexpr std::size_t kLinesPerEciBlock =
    kEciBlockSize / kCacheLineSize;

/// Index of a 128 B ECI block within the pool.
struct EciBlockIndex {
  std::uint64_t value = 0;
  LineIndex first_line() const { return LineIndex{value * kLinesPerEciBlock}; }
};

enum class EciOp : std::uint8_t {
  kRldd,  // load shared
  kRldx,  // load exclusive (will modify)
  kRc2d,  // upgrade shared → dirty, no data transfer
  kVicd,  // dirty victim, carries 128 B
  kVicc,  // clean victim
  kVics,  // shared victim
};

const char* eci_op_name(EciOp op);

/// One 128 B block payload.
struct EciBlockData {
  std::array<std::byte, kEciBlockSize> bytes{};
};

struct EciMessage {
  EciOp op;
  EciBlockIndex block;
  std::optional<EciBlockData> data;  // VICD only
};

/// Response to loads: the block contents (assembled from two CXL lines).
struct EciResponse {
  bool filtered = false;             // VICC/VICS: dropped at the adapter
  std::optional<EciBlockData> data;  // RLDD/RLDX
};

struct EciAdapterStats {
  std::uint64_t messages = 0;
  std::uint64_t filtered = 0;           // VICC/VICS dropped
  std::uint64_t cxl_reads = 0;          // RdShared issued
  std::uint64_t cxl_write_intents = 0;  // RdOwn issued
  std::uint64_t cxl_writebacks = 0;     // DirtyEvict issued
};

/// Stateless translator: ECI block messages in, CXL line operations out,
/// against a PaxDevice. The device neither knows nor cares that the host
/// speaks ECI — the paper's portability argument.
class EciAdapter {
 public:
  explicit EciAdapter(device::PaxDevice* device);

  /// Translates and executes one message. Load responses carry the block.
  Result<EciResponse> handle(const EciMessage& message);

  const EciAdapterStats& stats() const { return stats_; }

 private:
  EciBlockData read_block(EciBlockIndex block);

  device::PaxDevice* device_;
  EciAdapterStats stats_;
};

}  // namespace pax::coherence
