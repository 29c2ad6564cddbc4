// PaxRuntime: the top of the libpax stack — the object Listing 1's
// HWSnapshotter::map_pool() returns in the paper.
//
// It assembles the full PAX pipeline for one pool:
//
//   pool file / in-memory PM  →  PmemPool  →  recovery (§3.4)
//        →  PaxDevice (undo logger, HBM buffer, write-back coordinator)
//        →  VpmRegion (write-fault tracking — the §5.1 paging frontend)
//        →  PaxHeap + PaxStlAllocator (unmodified std:: containers)
//
// The application mutates the region with plain loads and stores. First
// stores to a page fault once per epoch (the RdOwn-equivalent); persist()
// diffs dirty pages against the device's copy at cache-line granularity,
// undo-logs and writes back exactly the changed lines, commits the epoch
// cell, and re-arms the page protections. After a crash, map_pool() rolls
// the pool back to the last persist() — the application cannot observe a
// partially applied epoch.
//
// Thread safety: many application threads may mutate the region; persist()
// must be called while no thread is mutating (§3.5, the paper's contract).
// The optional background flusher thread performs the same work as
// sync_step() under an internal lock and respects the same contract
// (it only *adds* log/write-back progress; it never commits an epoch).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "pax/check/checker.hpp"
#include "pax/common/status.hpp"
#include "pax/common/thread_pool.hpp"
#include "pax/common/types.hpp"
#include "pax/device/pax_device.hpp"
#include "pax/device/recovery.hpp"
#include "pax/libpax/heap.hpp"
#include "pax/libpax/stl_allocator.hpp"
#include "pax/libpax/vpm_region.hpp"
#include "pax/pmem/pool.hpp"

namespace pax::libpax {

struct RuntimeOptions {
  /// Undo-log extent size (page-aligned). Bounds the per-epoch write set:
  /// ~96 B of log per first-touched line.
  std::size_t log_size = 4 << 20;
  device::DeviceConfig device = device::DeviceConfig::defaults();
  /// Start a background thread running sync_step() periodically: the
  /// "asynchronous logging and write back" of §3.2 without explicit calls.
  bool start_flusher_thread = false;
  std::chrono::microseconds flusher_interval{500};
  /// Map the vPM region at this exact base (0 = automatic). Needed when a
  /// pool replicated from another node/runtime must present recovered raw
  /// pointers at the address the origin used (replication failover).
  std::uintptr_t vpm_base_hint = 0;
  /// Max lines carried per batched device sync call. Dirty lines accumulate
  /// into per-worker buffers flushed through PaxDevice::sync_lines, which
  /// fuses write_intent + writeback_line and appends a stripe group's undo
  /// records under one log-mutex hold. 1 = one-line batches.
  std::size_t sync_batch_lines = 256;
  /// Parallelism of the dirty-page diff (caller participates; diff_workers
  /// total threads touch pages). 1 = diff on the calling thread only.
  unsigned diff_workers = 4;
  /// Don't fan out the diff below this many dirty pages — thread-pool
  /// handoff costs more than diffing a handful of pages inline.
  std::size_t diff_fanout_min_pages = 16;
  /// Pipelined epochs: persist_async() swaps the dirty set into an
  /// O(dirty-pages) snapshot, re-arms page protection, and returns
  /// immediately; a background drain worker runs diff → sync_lines → seal →
  /// commit per queued snapshot, overlapping persist(N) with mutation of
  /// N+1. The value bounds the drain queue (snapshots enqueued or in
  /// flight); persist_async back-pressures only when it is full. 0 keeps
  /// the non-pipelined behavior above, bit for bit.
  std::size_t pipeline_depth = 0;
  /// Lock-free undo-append ring (device.log_ring_slots passthrough): > 0
  /// switches each log bank's hot-path appends from the log mutex to a
  /// bounded MPMC ring of this many pre-framed slots (rounded up to a power
  /// of two). 0 keeps the mutex append path.
  std::size_t log_ring_slots = 0;

  /// `base` with every source of scheduling nondeterminism pinned: no
  /// flusher thread, single-threaded diff and device persist workers. A
  /// workload run under these options emits the identical device event
  /// sequence on every execution — the contract crash-point exploration (check/crashpoint.hpp)
  /// depends on. Byte-identical vPM snapshots additionally require a fixed
  /// vpm_base_hint, which the caller must choose.
  static RuntimeOptions deterministic(RuntimeOptions base);
};

struct RuntimeStats {
  /// Epochs sealed by persist() or persist_async(), pipelined or not; a
  /// pipelined persist() counts once. Equals PipelineStats::async_persists
  /// when pipeline_depth > 0.
  std::uint64_t persists = 0;
  std::uint64_t sync_steps = 0;
  /// Device API invocations made by the sync path: one peek_lines per page
  /// with candidate lines plus one sync_lines per batch.
  std::uint64_t device_calls = 0;
  /// Batched sync_lines flushes issued.
  std::uint64_t sync_batches = 0;
};

/// Where the sync path's line examinations went. pages_scanned counts dirty
/// pages diffed; lines_diffed counts lines memcmp'd against a fetched device
/// shadow; lines_skipped counts lines the line tracker proved clean
/// (candidate bit clear, digest match) without touching the shadow;
/// lines_synced counts lines actually pushed. Per page, lines_diffed +
/// lines_skipped == kLinesPerPage.
struct SyncStats {
  std::uint64_t pages_scanned = 0;
  std::uint64_t lines_diffed = 0;
  std::uint64_t lines_skipped = 0;
  std::uint64_t lines_synced = 0;
  /// Pages whose per-line digests were (re)seeded by a full-page compare —
  /// every page's first diff after map/attach goes through this.
  std::uint64_t digest_rebuilds = 0;
};

/// Epoch-pipeline observability (all zero unless pipeline_depth > 0).
struct PipelineStats {
  std::uint64_t async_persists = 0;   // snapshots enqueued
  std::uint64_t jobs_drained = 0;     // snapshots fully committed
  std::uint64_t pages_snapshotted = 0;
  /// persist_async calls that blocked because the drain queue was full.
  std::uint64_t backpressure_waits = 0;
  /// Drain-queue occupancy (queued + in flight, including the new
  /// snapshot) sampled at each enqueue: sum for the mean, and the
  /// high-water mark.
  std::uint64_t queue_occupancy_sum = 0;
  std::uint64_t queue_occupancy_max = 0;
};

class PaxRuntime {
 public:
  /// Opens (creating or recovering) a pool file of `pool_size` bytes.
  static Result<std::unique_ptr<PaxRuntime>> map_pool(
      const std::string& path, std::size_t pool_size,
      const RuntimeOptions& options = {});

  /// Pool on in-memory simulated PM owned by the runtime (for quick starts
  /// and tests that don't need files).
  static Result<std::unique_ptr<PaxRuntime>> create_in_memory(
      std::size_t pool_size, const RuntimeOptions& options = {});

  /// Attaches to an existing (borrowed) PM device — the crash-test hook:
  /// destroy the runtime, crash() the device, attach again, observe
  /// recovery. Reopening the same device reuses the same vPM base address
  /// so recovered raw pointers remain valid.
  static Result<std::unique_ptr<PaxRuntime>> attach(
      pmem::PmemDevice* pm, const RuntimeOptions& options = {});

  /// Tears down without any flush or commit — everything since the last
  /// persist() is discarded, exactly as a crash would.
  ~PaxRuntime();

  PaxRuntime(const PaxRuntime&) = delete;
  PaxRuntime& operator=(const PaxRuntime&) = delete;

  // --- Application surface ----------------------------------------------

  /// The persistent heap; combine with PaxStlAllocator<T> or allocate raw.
  PaxHeap& heap() { return *heap_; }

  template <typename T>
  PaxStlAllocator<T> allocator() {
    return PaxStlAllocator<T>(heap_.get());
  }

  std::byte* vpm_base() const { return region_->base(); }
  std::size_t vpm_size() const { return region_->size(); }

  /// Commits everything modified since the last persist() as one atomic
  /// snapshot (§3.3). Call only while no thread is mutating vPM. With
  /// pipeline_depth > 0 this is persist_async() + a wait for that epoch's
  /// drain to commit (earlier queued epochs commit first, in order).
  Result<Epoch> persist();

  /// Non-blocking persist (the paper's §6 extension): captures the epoch's
  /// modified lines into the device, re-arms page tracking, and returns the
  /// sealed epoch number without waiting for any durable work. The commit
  /// completes on the next sync_step() (the background flusher does this),
  /// complete_persist(), or persist(). Until then the sealed epoch is NOT
  /// yet crash-durable. Same quiescence contract as persist() — but only
  /// for the duration of the call: mutation of the next epoch may resume
  /// the moment it returns.
  ///
  /// With pipeline_depth > 0 the call does no device work at all: it swaps
  /// the dirty set (page snapshot + candidate bitmaps + digests) into a
  /// sealed-epoch snapshot in O(dirty pages), re-arms write protection, and
  /// hands the snapshot to the background drain worker, which runs the
  /// diff → sync_lines → undo-durable → seal → commit sequence while the
  /// application mutates epoch N+1. Blocks only when pipeline_depth
  /// snapshots are already outstanding (back-pressure), or to surface a
  /// sticky drain error.
  Result<Epoch> persist_async();

  /// Completes a pending non-blocking persist; returns the now-committed
  /// epoch (or the last committed epoch if nothing was pending). With
  /// pipeline_depth > 0 this waits for the OLDEST outstanding snapshot's
  /// commit (one queue head, not the whole queue).
  Result<Epoch> complete_persist();

  /// Blocks until `epoch` (a value previously returned by persist_async())
  /// is durably committed, surfacing any sticky drain error. The group-
  /// commit hook: a coordinator seals one epoch per shard runtime with
  /// persist_async(), lets the drains overlap, then waits on each sealed
  /// epoch here (group_commit.hpp). With pipeline_depth > 0 this parks on
  /// the pipeline CVs only — it is safe concurrently with persist_async()
  /// calls from other threads; otherwise it completes the sealed epoch
  /// like complete_persist().
  Result<Epoch> wait_persisted(Epoch epoch);

  /// Snapshot-isolated read: copies [offset, offset+out.size()) of the vPM
  /// region *as of the last committed epoch*, concurrently with writers —
  /// mutations since the last persist are invisible, whether the device
  /// has already staged them (their undo pre-image is returned) or they
  /// still live only in the region (the device's view IS the committed
  /// value). See PaxDevice::read_committed_line.
  void read_snapshot(PoolOffset region_offset, std::span<std::byte> out);

  /// The most recent durable snapshot epoch.
  Epoch committed_epoch() const { return pool_->committed_epoch(); }

  /// One deterministic unit of background work: diff currently-dirty pages,
  /// stage undo records, let the device flush/write back (§3.2). persist()
  /// does all of this itself; sync_step() just moves work off its path.
  void sync_step();

  // --- Introspection ------------------------------------------------------

  device::PaxDevice& device() { return *device_; }
  VpmRegion& region() { return *region_; }
  pmem::PmemDevice& pm() { return *pm_; }
  pmem::PmemPool& pool() { return *pool_; }
  const device::RecoveryReport& recovery_report() const {
    return recovery_report_;
  }
  RuntimeStats stats() const;
  SyncStats sync_stats() const;
  PipelineStats pipeline_stats() const;

 private:
  PaxRuntime() = default;

  static Result<std::unique_ptr<PaxRuntime>> build(
      std::unique_ptr<pmem::PmemDevice> owned_pm, pmem::PmemDevice* pm,
      const RuntimeOptions& options);

  /// Diffs the given pages against the device view at cache-line
  /// granularity and pushes changed lines into the device. Partitions
  /// `pages` across the diff worker pool (diff_workers threads including
  /// the caller); each shard diffs its pages with the TSan-safe line capture
  /// and flushes dirty lines through PaxDevice::sync_lines in
  /// sync_batch_lines-sized batches. A page whose digests are valid peeks
  /// only its candidate lines (bitmap | digest mismatch); otherwise the full
  /// page shadow is fetched and the digests (re)seeded. Returns the first
  /// error. Caller must hold sync_mu_.
  Status sync_pages(const std::vector<PageIndex>& pages);

  // --- Epoch pipeline (pipeline_depth > 0) --------------------------------
  //
  // Double-buffered dirty sets: persist_async snapshots the active dirty
  // set (page bytes, want-bitmaps, digests advanced to the snapshot) into a
  // PipelineJob and re-arms protection; the region's live bitmaps then
  // track epoch N+1 while the drain worker replays the snapshot against the
  // device. Lock order: sync_mu_ (app side) > pipe_mu_ (queue state); the
  // drain worker takes ONLY pipe_mu_, so an app thread may block on the
  // pipeline CVs while holding sync_mu_ without deadlocking it.

  struct PipelinePageSnap {
    PageIndex page{0};
    /// Lines to examine against the device shadow: candidate bits plus
    /// snapshot-vs-digest mismatches (all lines when digests were invalid).
    std::uint64_t want = 0;
    std::unique_ptr<std::byte[]> bytes;  // kPageSize copy, quiesced
  };
  struct PipelineJob {
    Epoch epoch = 0;
    std::vector<PipelinePageSnap> pages;
  };

  /// persist_async body once sync_mu_ is held and pipelining is on.
  Result<Epoch> persist_async_pipelined();
  /// Waits (pipe_mu_ CVs) until `epoch` committed or the pipeline failed.
  Result<Epoch> wait_for_pipeline_epoch(Epoch epoch);
  void drain_worker_loop();
  /// Diff snapshot vs device shadow, push, seal (pulling from the
  /// snapshot), commit. Runs on the drain worker; takes no runtime locks.
  Status drain_one(const PipelineJob& job);

  /// PaxCheck discipline event for sync_mu_ (construct right after locking
  /// it). The id distinguishes runtimes sharing one checker.
  check::LockToken sync_lock_token() const {
    return check::LockToken(
        pm_->checker(), check::LockClass::kSyncMu,
        static_cast<std::uint32_t>(reinterpret_cast<std::uintptr_t>(this) >>
                                   4),
        /*shared=*/false);
  }

  PoolOffset page_pool_offset(PageIndex page) const {
    return pool_->data_offset() + page.byte_offset();
  }
  LineIndex region_line_to_pool_line(PageIndex page, std::size_t line) const {
    return LineIndex{(page_pool_offset(page) / kCacheLineSize) + line};
  }

  std::unique_ptr<pmem::PmemDevice> owned_pm_;
  pmem::PmemDevice* pm_ = nullptr;
  std::optional<pmem::PmemPool> pool_;
  device::RecoveryReport recovery_report_;
  std::unique_ptr<device::PaxDevice> device_;
  std::unique_ptr<VpmRegion> region_;
  std::unique_ptr<PaxHeap> heap_;

  mutable std::mutex sync_mu_;  // serializes sync_step/persist internals
  RuntimeStats stats_;
  SyncStats sync_stats_;

  // Sync-path tuning, frozen at build() (validated there).
  std::size_t sync_batch_lines_ = 1;
  unsigned diff_workers_ = 1;
  std::size_t diff_fanout_min_pages_ = 16;
  std::unique_ptr<common::ThreadPool> diff_pool_;  // diff_workers - 1

  // Epoch pipeline. All fields below pipe_mu_ are guarded by it; the drain
  // worker never takes sync_mu_ (see the lock-order note above).
  std::size_t pipeline_depth_ = 0;
  mutable std::mutex pipe_mu_;
  std::condition_variable pipe_cv_;       // producers + commit waiters
  std::condition_variable pipe_work_cv_;  // wakes the drain worker
  std::deque<PipelineJob> pipe_queue_;
  bool pipe_inflight_ = false;     // worker holds a popped job
  Epoch pipe_next_epoch_ = 0;      // epoch the next snapshot will seal
  Epoch pipe_committed_ = 0;       // last epoch committed via the pipeline
  Status pipe_error_ = Status::ok();  // sticky first drain failure
  PipelineStats pipe_stats_;
  // Drain-side stat deltas, folded into stats()/sync_stats() on read.
  RuntimeStats pipe_rt_delta_;
  SyncStats pipe_sync_delta_;
  std::thread drain_thread_;
  bool stop_drain_ = false;  // under pipe_mu_

  std::thread flusher_;
  std::atomic<bool> stop_flusher_{false};
  // The flusher parks on flusher_cv_ between sync_steps; the destructor
  // notifies it so shutdown costs one wakeup, not a full interval sleep.
  std::mutex flusher_mu_;
  std::condition_variable flusher_cv_;
};

}  // namespace pax::libpax
