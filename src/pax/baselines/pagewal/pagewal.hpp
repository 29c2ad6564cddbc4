// Page-granularity write-ahead logging — the mprotect/page-fault family of
// black-box crash-consistency systems the paper positions against (§1:
// NVthreads [12], Kelly [15], LibPM [20]). Same black-box property as PAX,
// but two structural costs PAX avoids:
//
//   * every first store to a page pays a write-protection trap (>1 µs on
//     modern x86 — modelled in simtime::InterconnectLatency::page_fault_trap)
//   * undo logging and write-back happen at 4 KiB page granularity, giving
//     up to 64× the write amplification of PAX's 64 B line records (§1, the
//     Abl 2 bench quantifies this).
//
// The implementation reuses the same substrates as libpax (VpmRegion for
// write tracking, PmemPool's epoch cell, the wal record format) so the two
// systems differ only in the property under study: logging granularity.
#pragma once

#include <memory>

#include "pax/common/status.hpp"
#include "pax/common/types.hpp"
#include "pax/libpax/vpm_region.hpp"
#include "pax/pmem/pool.hpp"
#include "pax/wal/wal.hpp"

namespace pax::baselines::pagewal {

struct PageWalStats {
  std::uint64_t persists = 0;
  std::uint64_t pages_logged = 0;
  std::uint64_t log_bytes = 0;
  std::uint64_t pages_written_back = 0;
};

class PageWalRuntime {
 public:
  /// Attaches to a (possibly fresh, possibly crashed) device: formats or
  /// opens the pool, rolls back any uncommitted epoch at page granularity,
  /// maps and protects the region.
  static Result<std::unique_ptr<PageWalRuntime>> attach(
      pmem::PmemDevice* pm, std::size_t log_size = 8 << 20);

  std::byte* base() const { return region_->base(); }
  std::size_t size() const { return region_->size(); }

  /// Snapshot commit: takes and re-protects the written pages, logs the
  /// pre-image of every one of them (whole *pages*), writes the pages back
  /// and commits the epoch cell.
  Result<Epoch> persist();

  Epoch committed_epoch() const { return pool_->committed_epoch(); }
  std::uint64_t fault_count() const { return region_->fault_count(); }
  const PageWalStats& stats() const { return stats_; }
  pmem::PmemPool& pool() { return *pool_; }

  /// Rolls an opened pool back to its committed epoch at page granularity
  /// (attach() runs this automatically; public for recovery benchmarks).
  static Status recover(pmem::PmemPool& pool);

 private:
  PageWalRuntime() = default;

  pmem::PmemDevice* pm_ = nullptr;
  std::optional<pmem::PmemPool> pool_;
  std::unique_ptr<libpax::VpmRegion> region_;
  std::unique_ptr<wal::LogWriter> writer_;
  Epoch epoch_ = 0;  // accumulating epoch
  PageWalStats stats_;
};

}  // namespace pax::baselines::pagewal
