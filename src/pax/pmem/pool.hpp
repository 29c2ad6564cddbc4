// Pool layout on simulated PM, the equivalent of the paper's DAX pool file.
//
//   [page 0]   header: magic, version, extent geometry, CRC
//              + epoch cell   (own cache line, offset 64)
//              + root cell    (own cache line, offset 128)
//   [log extent]   epoch-tagged undo log (see device/undo_log.hpp)
//   [data extent]  the persistent structure (vPM) itself
//
// The epoch cell is the pool's commit record: persist() finishes by writing
// the new epoch number here with an 8-byte power-fail-atomic durable store
// (§3.3 "the device writes the current epoch number to a special location in
// the structure's pool file"). Recovery compares log-record epoch tags
// against this cell. The root cell stores the application/allocator root
// offset, also updated with an 8-byte atomic durable store.
#pragma once

#include <cstdint>

#include "pax/common/status.hpp"
#include "pax/common/types.hpp"
#include "pax/pmem/pmem_device.hpp"

namespace pax::pmem {

// "PAXPOOL1"
inline constexpr std::uint64_t kPoolMagic = 0x314c4f4f50584150ULL;
inline constexpr std::uint32_t kPoolVersion = 1;
inline constexpr PoolOffset kEpochCellOffset = 64;
inline constexpr PoolOffset kRootCellOffset = 128;
inline constexpr std::size_t kPoolHeaderSize = kPageSize;

/// Non-owning view of a formatted pool on a PmemDevice.
class PmemPool {
 public:
  /// Formats `device` with a fresh pool: a `log_size`-byte undo-log extent
  /// followed by a data extent filling the rest. Epoch starts at 0.
  static Result<PmemPool> create(PmemDevice* device, std::size_t log_size);

  /// Validates the header (magic, version, CRC, geometry) and opens an
  /// existing pool.
  static Result<PmemPool> open(PmemDevice* device);

  PmemDevice* device() const { return device_; }

  /// The most recently committed snapshot epoch (durable value).
  Epoch committed_epoch() const { return device_->load_u64(kEpochCellOffset); }

  /// Commits `epoch` as the newest durable snapshot (8 B atomic + flush +
  /// drain). Must be called only after every undo record and write-back of
  /// the epoch is durable.
  void commit_epoch(Epoch epoch) {
    device_->note_epoch_commit(epoch);
    device_->atomic_durable_store_u64(kEpochCellOffset, epoch);
  }

  /// Application/allocator root offset (within the data extent), durable.
  PoolOffset root() const { return device_->load_u64(kRootCellOffset); }
  void set_root(PoolOffset off) {
    device_->atomic_durable_store_u64(kRootCellOffset, off);
  }

  PoolOffset log_offset() const { return log_offset_; }
  std::size_t log_size() const { return log_size_; }
  PoolOffset data_offset() const { return data_offset_; }
  std::size_t data_size() const { return data_size_; }

 private:
  PmemPool(PmemDevice* device, PoolOffset log_offset, std::size_t log_size,
           PoolOffset data_offset, std::size_t data_size)
      : device_(device),
        log_offset_(log_offset),
        log_size_(log_size),
        data_offset_(data_offset),
        data_size_(data_size) {}

  PmemDevice* device_;
  PoolOffset log_offset_;
  std::size_t log_size_;
  PoolOffset data_offset_;
  std::size_t data_size_;
};

}  // namespace pax::pmem
