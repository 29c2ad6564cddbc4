// "PM Direct": a hash table placed in PM with no crash consistency at all —
// the upper-bound baseline in the paper's Figure 2b ("PM directly (not crash
// consistent)"). Stores go straight to the (simulated) PM with no logging,
// no snapshots, no fences; what survives a crash is whatever happened to be
// evicted, which is exactly why applications cannot use this mode and why
// PMDK/PAX exist.
//
// Open-addressing with linear probing over u64 key/value slots (key 0 is
// reserved as the empty marker).
#pragma once

#include <cstdint>
#include <optional>

#include "pax/common/status.hpp"
#include "pax/common/types.hpp"
#include "pax/pmem/pool.hpp"

namespace pax::baselines::direct {

class DirectHashMap {
 public:
  /// Formats `nslots` slots (power of two) at the start of `pool`'s data
  /// extent.
  static Result<DirectHashMap> create(pmem::PmemPool* pool,
                                      std::uint64_t nslots);

  /// Inserts or updates; kOutOfSpace when the table is full. Keys must be
  /// nonzero.
  Status put(std::uint64_t key, std::uint64_t value);

  std::optional<std::uint64_t> get(std::uint64_t key) const;

  std::uint64_t size() const { return count_; }
  std::uint64_t nslots() const { return nslots_; }

 private:
  DirectHashMap(pmem::PmemPool* pool, std::uint64_t nslots)
      : pool_(pool), pm_(pool->device()), nslots_(nslots) {}

  PoolOffset slot_at(std::uint64_t s) const {
    return pool_->data_offset() + s * 16;
  }

  pmem::PmemPool* pool_;
  pmem::PmemDevice* pm_;
  std::uint64_t nslots_;
  // Volatile: this structure makes no durability promises.
  std::uint64_t count_ = 0;
};

}  // namespace pax::baselines::direct
