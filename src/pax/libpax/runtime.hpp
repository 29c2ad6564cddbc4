// PaxRuntime: the top of the libpax stack — the object Listing 1's
// HWSnapshotter::map_pool() returns in the paper.
//
// It assembles the full PAX pipeline for one pool:
//
//   pool file / in-memory PM  →  PmemPool  →  recovery (§3.4)
//        →  PaxDevice (undo logger, HBM buffer, write-back coordinator)
//        →  VpmRegion (write tracking — the §5.1 paging frontend)
//        →  PaxHeap + PaxStlAllocator (unmodified std:: containers)
//
// The application mutates the region with plain loads and stores. The
// kernel records the first store to a page once per epoch (the RdOwn-
// equivalent); persist() diffs the written pages against the device's copy
// at cache-line granularity, undo-logs and writes back exactly the changed
// lines, commits the epoch cell, and re-arms the page protections. After a
// crash, map_pool() rolls the pool back to the last persist() — the
// application cannot observe a partially applied epoch.
//
// Thread safety: many application threads may mutate the region; persist(),
// persist_async() and sync_step() must be called while no thread is
// mutating (§3.5, the paper's contract). The only work that overlaps the
// mutators is persist_async()'s drain worker, and it reads a private copy
// of the sealed pages, never the live region.
#pragma once

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
#include "pax/common/types.hpp"
#include "pax/device/pax_device.hpp"
#include "pax/device/recovery.hpp"
#include "pax/libpax/heap.hpp"
#include "pax/libpax/stl_allocator.hpp"
#include "pax/libpax/vpm_region.hpp"
#include "pax/pmem/pool.hpp"

namespace pax::libpax {

/// The diff's line filter: a 64-bit digest of one cache line. Any change
/// confined to one 8-byte word changes it; other changes slip through with
/// probability about 2^-64.
std::uint64_t line_digest(const std::byte* line);

struct RuntimeOptions {
  /// Undo-log extent size (page-aligned). Bounds the per-epoch write set:
  /// ~96 B of log per first-touched line.
  std::size_t log_size = 4 << 20;
  device::DeviceConfig device = device::DeviceConfig::defaults();
  /// Map the vPM region at this exact base (0 = automatic). Needed when a
  /// pool replicated from another node/runtime must present recovered raw
  /// pointers at the address the origin used (replication failover).
  std::uintptr_t vpm_base_hint = 0;
  /// Max lines carried per batched device sync call. Dirty lines accumulate
  /// into a buffer flushed through PaxDevice::sync_lines, which fuses
  /// write_intent + writeback_line and appends a stripe group's undo records
  /// under one log-mutex hold. 1 = one-line batches.
  std::size_t sync_batch_lines = 256;
  /// Lock-free undo-append ring (device.log_ring_slots passthrough): > 0
  /// switches the undo log's hot-path appends from the log mutex to a
  /// bounded MPMC ring of this many pre-framed slots (rounded up to a power
  /// of two). 0 keeps the mutex append path.
  std::size_t log_ring_slots = 0;
};

struct RuntimeStats {
  /// Epochs sealed by persist() or persist_async(). Equals
  /// PipelineStats::async_persists when only persist_async() is used.
  std::uint64_t persists = 0;
  std::uint64_t sync_steps = 0;
  /// Device API invocations made by the sync path: one peek_lines per
  /// digest-rebuilt page with want-lines plus one sync_lines per batch.
  std::uint64_t device_calls = 0;
  /// Batched sync_lines flushes issued.
  std::uint64_t sync_batches = 0;
};

/// Where the sync path's line examinations went. pages_scanned counts dirty
/// pages diffed; lines_diffed counts lines the digest did not skip (on a
/// page whose digests were just rebuilt they are compared with a peeked
/// device copy, elsewhere the changed digest proves them changed);
/// lines_skipped counts lines whose digest still matched; lines_synced
/// counts lines actually pushed. Per page, lines_diffed + lines_skipped ==
/// kLinesPerPage.
struct SyncStats {
  std::uint64_t pages_scanned = 0;
  std::uint64_t lines_diffed = 0;
  std::uint64_t lines_skipped = 0;
  std::uint64_t lines_synced = 0;
  /// Pages whose per-line digests were (re)seeded by a full-page compare —
  /// every page's first diff after map/attach goes through this.
  std::uint64_t digest_rebuilds = 0;
};

/// Epoch-pipeline observability: the persist_async() queue and its drain
/// worker. Blocking persist() and sync_step() move none of these.
struct PipelineStats {
  std::uint64_t async_persists = 0;   // snapshots enqueued
  std::uint64_t jobs_drained = 0;     // snapshots fully committed
  /// Pages copied into persist_async() snapshots (persist() copies none).
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
  /// snapshot (§3.3). Call only while no thread is mutating vPM. Waits for
  /// every queued persist_async() epoch to commit first, then diffs, pushes
  /// and commits this epoch on the calling thread. The job reads the live
  /// pages without copying them — the caller's quiescence keeps them still.
  Result<Epoch> persist();

  /// Snapshots queued or in flight before persist_async() back-pressures.
  static constexpr std::size_t kPipelineDepth = 2;

  /// Non-blocking persist (the paper's §6 extension): copies the dirty
  /// pages into an epoch snapshot in O(dirty pages), re-arms write
  /// protection, and hands the snapshot to the background drain worker,
  /// which diffs, pushes and commits it while the application mutates the
  /// next epoch. Returns the epoch number the snapshot will commit as; it
  /// is NOT crash-durable until wait_persisted() (or complete_persist(), or
  /// a later persist()) returns for it. Blocks only while kPipelineDepth
  /// snapshots are outstanding (back-pressure). Same quiescence contract as
  /// persist(), but only for the duration of the call.
  Result<Epoch> persist_async();

  /// Waits for the OLDEST outstanding persist_async() snapshot to commit and
  /// returns its epoch (the last committed epoch if nothing is queued).
  Result<Epoch> complete_persist();

  /// Blocks until `epoch` (a value returned by persist_async() or persist())
  /// is durably committed. The group-commit hook: a coordinator seals one
  /// epoch per shard runtime with persist_async(), lets the drains overlap,
  /// then waits on each sealed epoch here (group_commit.hpp). Parks on the
  /// pipeline only, so it is safe concurrently with persist_async() calls
  /// from other threads.
  Result<Epoch> wait_persisted(Epoch epoch);

  // Failure model (every entry point): the first failed push or commit is
  // sticky. The epoch it belonged to never commits; persist(),
  // persist_async(), complete_persist() and wait_persisted() return that
  // error from then on (for any epoch not already committed) and
  // sync_step() does nothing. Destroy the runtime and attach again to
  // recover to the last committed epoch.

  /// Snapshot-isolated read: copies [offset, offset+out.size()) of the vPM
  /// region *as of the last committed epoch*, concurrently with writers —
  /// mutations since the last persist are invisible, whether the device
  /// has already staged them (their undo pre-image is returned) or they
  /// still live only in the region (the device's view IS the committed
  /// value). See PaxDevice::read_committed_line.
  void read_snapshot(PoolOffset region_offset, std::span<std::byte> out);

  /// The most recent durable snapshot epoch. Advances together with the
  /// pipeline's bookkeeping, so once it reaches an epoch, wait_persisted()
  /// and pipeline_stats() already reflect that epoch's commit.
  Epoch committed_epoch() const;

  /// Explicit pre-staging (§3.2): diffs the currently-written pages and
  /// pushes them into the device without committing, then lets the device
  /// flush its log and write back. Same quiescence contract as persist():
  /// the job reads the live pages. The pages stay writable and written, so
  /// the next persist re-examines them; sync_step() only moves work off its
  /// path. Does nothing while persist_async() snapshots are outstanding.
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

  // --- One persist implementation: snapshot → push → commit --------------
  //
  // Every entry point turns the dirty set into an EpochJob (snapshot()),
  // pushes its changed lines to the device (push()), and — unless it is
  // sync_step()'s pre-staging — commits it with PaxDevice::persist
  // (push_and_commit()). persist() runs the job on the calling thread;
  // persist_async() queues it for the drain worker. Lock order: sync_mu_
  // (app side) > pipe_mu_ (queue state and stats); the drain worker takes
  // ONLY pipe_mu_, so an app thread may block on the pipeline CVs while
  // holding sync_mu_ without deadlocking it.

  struct JobPage {
    PageIndex page{0};
    /// Snapshot-vs-digest mismatches (all lines when digests were invalid).
    std::uint64_t want = 0;
    /// The page's digests were rebuilt by this snapshot, so its want-lines
    /// may still equal the device copy and push() compares them with it.
    /// Otherwise a changed digest already proves the line differs.
    bool rebuilt = false;
    const std::byte* bytes = nullptr;  // kPageSize: live page or job copy
  };
  struct EpochJob {
    Epoch epoch = 0;                    // 0 for sync_step()'s pre-staging
    std::vector<JobPage> pages;         // ascending page order
    std::unique_ptr<std::byte[]> copy;  // page copies, when copied
  };

  /// Builds the job for `dirty` (ascending) and advances each page's
  /// digests to the snapshot. `copy` copies every page into the job, so the
  /// mutators may resume once the caller returns; otherwise the job points
  /// at the live pages and the caller must stay quiesced until it is
  /// pushed. Caller holds sync_mu_.
  EpochJob snapshot(const std::vector<PageIndex>& dirty, bool copy);
  /// Takes and re-protects the written pages (a failure is sticky),
  /// snapshots them, numbers the job, and announces it to PaxCheck.
  Result<EpochJob> seal(bool copy);
  /// The one diff loop: pushes the want-lines that differ from the device
  /// copy through sync_lines in sync_batch_lines batches. Only rebuilt
  /// pages peek the device copy to find them.
  Status push(const EpochJob& job);
  /// push() + PaxDevice::persist, which needs no pull: the push delivered
  /// every line of the job. The caller records the outcome: the committed
  /// cursor advances, or the failure sticks.
  Status push_and_commit(const EpochJob& job);
  /// Records the sticky failure and wakes every waiter; returns `st`.
  Status fail(Status st);
  void drain_worker_loop();

  /// PaxCheck discipline event for sync_mu_ (construct right after locking
  /// it).
  check::LockToken sync_lock_token() const {
    return check::LockToken(pm_->checker(), check::LockClass::kSyncMu,
                            check_id_, /*shared=*/false);
  }

  PoolOffset page_pool_offset(PageIndex page) const {
    return pool_->data_offset() + page.byte_offset();
  }
  LineIndex region_line_to_pool_line(PageIndex page, std::size_t line) const {
    return LineIndex{(page_pool_offset(page) / kCacheLineSize) + line};
  }

  // Names this runtime in its PaxCheck events: unique within the process,
  // so a re-attached runtime or another one sharing the checker never
  // inherits this one's state.
  std::uint32_t check_id_ = 0;
  std::unique_ptr<pmem::PmemDevice> owned_pm_;
  pmem::PmemDevice* pm_ = nullptr;
  std::optional<pmem::PmemPool> pool_;
  device::RecoveryReport recovery_report_;
  std::unique_ptr<device::PaxDevice> device_;
  std::unique_ptr<VpmRegion> region_;
  std::unique_ptr<PaxHeap> heap_;
  // line_digest() of each line's last-snapshotted contents, kLinesPerPage
  // per page, meaningful once the page's digests_valid_ flag is set (each
  // page's first snapshot after attach seeds them). Under sync_mu_.
  std::unique_ptr<std::uint64_t[]> digests_;
  std::vector<bool> digests_valid_;

  mutable std::mutex sync_mu_;  // serializes sync_step/persist internals
  std::size_t sync_batch_lines_ = 1;  // frozen at build() (validated there)

  // Epoch pipeline and stats. All fields below pipe_mu_ are guarded by it;
  // the drain worker never takes sync_mu_ (see the lock-order note above).
  mutable std::mutex pipe_mu_;
  std::condition_variable pipe_cv_;       // producers + commit waiters
  std::condition_variable pipe_work_cv_;  // wakes the drain worker
  std::deque<EpochJob> pipe_queue_;
  bool pipe_inflight_ = false;     // worker holds a popped job
  Epoch pipe_next_epoch_ = 0;      // epoch the next snapshot will seal
  Epoch pipe_committed_ = 0;       // last epoch committed by this runtime
  Status pipe_error_ = Status::ok();  // sticky first push/commit failure
  PipelineStats pipe_stats_;
  RuntimeStats stats_;
  SyncStats sync_stats_;
  std::thread drain_thread_;
  bool stop_drain_ = false;  // under pipe_mu_
};

}  // namespace pax::libpax
