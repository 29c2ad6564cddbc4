// Simulated persistent-memory DIMM with an explicit persistence domain.
//
// On real PM hardware (Optane with ADR), a store becomes durable only once
// its cache line leaves the CPU caches and reaches the memory controller's
// write-pending queue. Everything still sitting in CPU caches at power loss
// is gone. PmemDevice models exactly that visibility split:
//
//   store()       — data enters the *pending* overlay (≈ CPU caches).
//   load()        — sees pending ∪ media (a core observes its own stores).
//   flush_line()  — CLWB: pending line → media (≈ ADR persistence domain).
//   drain()       — SFENCE: ordering point; counted for cost models.
//   crash()       — discards the pending overlay, optionally letting a random
//                   subset of lines (or 8-byte words within lines: the x86
//                   power-fail atomicity unit) reach media first, which is
//                   how tests produce torn records for recovery to handle.
//
// The media can live in DRAM (unit tests) or in a file mapping (examples and
// kill-based crash tests, where losing the in-DRAM pending overlay on process
// death is a *real* crash of the simulated persistence domain).
//
// All mutating entry points are internally synchronized, and the pending
// overlay is *sharded* by 256 B internal block (the XPLine), so the striped
// PAX device's data-path threads touch disjoint lines without
// convoying on one device-wide mutex. Counters are plain per-shard fields,
// updated under the shard mutex the operation already holds (drain() keeps
// one atomic); only drain(), crash() and the stats calls sweep every shard
// (serialized-tail, test-only and reporting paths).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "pax/common/line_table.hpp"
#include "pax/common/status.hpp"
#include "pax/common/types.hpp"
#include "pax/pmem/mmap_file.hpp"

namespace pax::check {
class Checker;
}  // namespace pax::check

namespace pax::pmem {

/// Counters for persistence-cost accounting and write-amplification studies.
struct PmemStats {
  std::uint64_t stores = 0;            // store() calls
  std::uint64_t bytes_stored = 0;      // logical bytes written by the app
  std::uint64_t loads = 0;             // load() calls
  std::uint64_t line_flushes = 0;      // flush_line() with pending data
  std::uint64_t empty_flushes = 0;     // flush_line() finding nothing pending
  std::uint64_t drains = 0;            // drain() calls (SFENCE count)
  std::uint64_t media_bytes_written = 0;  // bytes that reached media
  /// Optane's internal 256 B write granularity ("XPLine", Yang et al.
  /// FAST'20 §4.1): distinct 256 B internal blocks written, where flushes
  /// that land in the same block between two drains combine (the XPBuffer).
  /// xpline_blocks_written × 256 / media_bytes_written is the device's
  /// internal write amplification — 1× for sequential flush patterns, up
  /// to 4× for random 64 B flushes.
  std::uint64_t xpline_blocks_written = 0;
};

/// How a simulated crash treats the pending overlay.
struct CrashConfig {
  /// Probability that a whole pending line reached media before the crash.
  double line_survival_probability = 0.0;
  /// If true, a "surviving" line may itself be torn: each 8-byte word
  /// independently reaches media with probability 0.5.
  bool tear_within_lines = false;
  /// Seed for the crash lottery; same seed → same torn state.
  std::uint64_t seed = 1;

  static CrashConfig drop_all() { return {}; }
  static CrashConfig random(double p, std::uint64_t seed) {
    return {p, false, seed};
  }
  static CrashConfig torn(double p, std::uint64_t seed) {
    return {p, true, seed};
  }
};

/// A consistent cut of the device captured after the N-th persistence event
/// (arm_crash_point): the media image plus every line still in the pending
/// overlay at that instant. resolve() runs the crash lottery over the cut,
/// yielding the post-crash media image for any CrashConfig — one captured
/// cut serves drop_all, random, and torn without re-running the workload.
struct CrashCut {
  std::uint64_t after_events = 0;
  std::vector<std::byte> media;
  /// Pending overlay at the cut, sorted by line index.
  std::vector<std::pair<LineIndex, LineData>> pending;

  std::vector<std::byte> resolve(const CrashConfig& config) const;
};

class PmemDevice;

/// Interception points for the automated-repair layer (check/repair.hpp):
/// a shim attached to the device gets a callback immediately before the
/// actions a RepairPlan can patch — the epoch-commit note (where "insert
/// flush_line(L)+drain before commit" lands) and a line flush (where
/// "hoist log_flush above the write-back of L" lands). Implementations may
/// call back into the device (flush_line/flush_range/drain); they must
/// guard against the recursion those calls cause.
class PmemRepairShim {
 public:
  virtual ~PmemRepairShim() = default;
  virtual void before_epoch_commit(PmemDevice& dev, std::uint64_t epoch) = 0;
  virtual void before_flush(PmemDevice& dev, LineIndex line) = 0;
};

class PmemDevice {
 public:
  /// Zeroed DRAM media, resident only where written; gone with the object.
  static std::unique_ptr<PmemDevice> create_in_memory(std::size_t bytes);

  /// Media backed by a file mapping (the DAX-pool stand-in).
  static Result<std::unique_ptr<PmemDevice>> open_file(const std::string& path,
                                                       std::size_t bytes,
                                                       bool create);

  /// In-memory device whose media is `media`, adopted without a copy —
  /// typically a CrashCut::resolve image: the post-crash reincarnation
  /// crash-point exploration recovers and audits (check/crashpoint.hpp).
  static std::unique_ptr<PmemDevice> create_in_memory_from(
      std::vector<std::byte> media);

  std::size_t size() const { return size_; }
  std::size_t num_lines() const { return size_ / kCacheLineSize; }

  /// Every byte at or past this offset reads zero: 0 on a fresh
  /// create_in_memory device, size() on adopted or file-backed media.
  /// store()/store_line() raise it; nothing lowers it, crash() included.
  std::size_t written_end() const {
    return written_end_.load(std::memory_order_relaxed);
  }

  // --- CPU-visible data path -------------------------------------------

  /// Writes `data` at byte offset `off` (may span lines) into the pending
  /// overlay.
  void store(PoolOffset off, std::span<const std::byte> data);

  /// Reads the CPU-visible value (pending overlay over media). A read of
  /// kBulkLoadBytes or more copies media under all shard locks, then the
  /// pending lines over it, instead of a lock and probe per line.
  void load(PoolOffset off, std::span<std::byte> out) const;
  static constexpr std::size_t kBulkLoadBytes = 64 * 1024;

  /// Whole-line variants used by the device model and the undo logger.
  void store_line(LineIndex line, const LineData& data);
  LineData load_line(LineIndex line) const;

  /// Convenience 64-bit accessors (offset need not be line-aligned but must
  /// be 8-byte aligned, the power-fail atomicity unit).
  void store_u64(PoolOffset off, std::uint64_t value);
  std::uint64_t load_u64(PoolOffset off) const;

  // --- Persistence path -------------------------------------------------

  /// CLWB: makes the pending contents of `line` durable.
  void flush_line(LineIndex line);

  /// Flushes every line overlapping [off, off+len).
  void flush_range(PoolOffset off, std::size_t len);

  /// SFENCE. In this synchronous model flush_line already reached media, so
  /// drain is an accounting/ordering marker only — but callers must still
  /// place it correctly: crash tests verify durability only via flush+drain
  /// sequences.
  void drain();

  /// store_u64 + flush + drain: the 8-byte power-fail-atomic write used for
  /// epoch-cell commits.
  void atomic_durable_store_u64(PoolOffset off, std::uint64_t value);

  // --- Crash machinery (tests and harnesses) ----------------------------

  /// Simulates power loss: resolves the pending overlay per `config`, then
  /// clears it. The device remains usable and now shows post-crash media.
  /// The lottery draws per line from (config.seed, line index) alone, so
  /// the same seed produces the same torn state no matter how the overlay
  /// is sharded or iterated.
  void crash(const CrashConfig& config);

  /// Count of crash-countable persistence events executed so far: one per
  /// line a store() touches, one per flush_line (empty or not), one per
  /// drain(). Deterministic workloads replay to identical counts, which is
  /// what makes "crash after event N" a stable name for a machine state
  /// across re-executions (check/crashpoint.hpp).
  std::uint64_t crash_events() const {
    return crash_events_.load(std::memory_order_relaxed);
  }

  /// Arms a one-shot consistent-cut capture: when crash_events() reaches
  /// `after_events` the media image and pending overlay are snapshotted
  /// (all shard locks held, taken after the triggering operation released
  /// its own) into the cut retrievable with take_crash_cut(). Equivalent to
  /// a crash between device operations — the only granularity at which a
  /// single-threaded workload can crash.
  void arm_crash_point(std::uint64_t after_events);

  /// The cut captured by an armed crash point, if the workload ran that
  /// far. Each arm yields at most one cut; taking it clears the slot.
  std::optional<CrashCut> take_crash_cut();

  /// Number of lines with not-yet-durable data.
  std::size_t pending_line_count() const;

  /// Reads what media alone holds (ignoring the pending overlay) — what a
  /// post-crash observer would see. For test assertions.
  LineData durable_line(LineIndex line) const;

  /// Bulk durable read of [off, off+out.size()): media bytes only, no
  /// pending overlay. Unlocked — call from a quiesced point (concurrent
  /// flushes could tear the copy).
  void read_durable(PoolOffset off, std::span<std::byte> out) const;

  PmemStats stats() const;
  void reset_stats();

  // --- PaxCheck attach point --------------------------------------------

  /// Attaches (or detaches, with nullptr) a PaxCheck observer. The device is
  /// the root of the instrumented stack: upper layers (undo logger, PAX
  /// device, libpax runtime) discover the checker through their PmemDevice.
  /// The checker must outlive all use of this device; attach before
  /// concurrent traffic starts or quiesce first.
  void set_checker(check::Checker* checker) {
    checker_.store(checker, std::memory_order_release);
  }
  check::Checker* checker() const {
    return checker_.load(std::memory_order_acquire);
  }

  /// Attaches (or detaches, with nullptr) a repair shim. Same lifetime and
  /// quiescence contract as set_checker. The shim fires on every
  /// flush_line and note_epoch_commit, *before* the underlying action and
  /// before its checker event — inserted ops are therefore ordered ahead
  /// of the action they repair, in the trace and on the media.
  void set_repair_shim(PmemRepairShim* shim) {
    repair_shim_.store(shim, std::memory_order_release);
  }
  PmemRepairShim* repair_shim() const {
    return repair_shim_.load(std::memory_order_acquire);
  }

  /// Tells an attached checker that the caller is about to commit `epoch`
  /// via the 8-byte power-fail-atomic store (pool.hpp). Emitted *before*
  /// that store so the epoch cell's own store/flush/drain are not flagged
  /// as unflushed-at-commit.
  void note_epoch_commit(std::uint64_t epoch);

 private:
  PmemDevice(std::size_t size, std::size_t written_end)
      : size_(size), written_end_(written_end) {}

  // The overlay is partitioned by 256 B internal block (XPLine), i.e. four
  // consecutive cache lines share a shard — which keeps each shard's
  // XPBuffer write-combining window self-contained. Media bytes themselves
  // need no lock: concurrent flushes of different lines touch disjoint
  // ranges. Both per-shard sets are flat line tables sized to what is live
  // (pending lines; blocks flushed since the last drain), never to the pool.
  static constexpr std::size_t kShards = 16;
  struct alignas(64) Shard {
    mutable std::mutex mu;
    LineTable<LineData> pending;
    // 256 B blocks of this shard written since the last drain, keyed by
    // block number.
    LineTable<bool> xpline_window;
    // This shard's share of the counters (drains is device-wide). An op
    // spanning several shards counts its call on the first one.
    PmemStats stats;
  };

  Shard& shard_for(LineIndex line) const {
    return shards_[(line.value / kLinesPerXpline) % kShards];
  }
  static constexpr std::uint64_t kLinesPerXpline = 256 / kCacheLineSize;

  std::span<std::byte> media() { return {base_, size_}; }
  std::span<const std::byte> media() const { return {base_, size_}; }

  using AllShardLocks = std::array<std::unique_lock<std::mutex>, kShards>;
  AllShardLocks lock_all_shards() const;  // stop-the-world, in shard order

  void flush_line_locked(Shard& shard, LineIndex line);

  void note_written(std::size_t end);  // atomic max into written_end_

  /// Advances the crash-event counter; captures the armed cut when the
  /// counter hits it. Called with no shard lock held.
  void bump_crash_event();
  void capture_crash_cut(std::uint64_t at_event);

  struct Free {
    void operator()(std::byte* p) const { std::free(p); }
  };
  // Exactly one of these holds the media bytes base_ points at.
  std::unique_ptr<std::byte, Free> zeroed_media_;  // create_in_memory
  std::vector<std::byte> image_media_;             // create_in_memory_from
  std::unique_ptr<MmapFile> file_;                 // open_file
  std::byte* base_ = nullptr;
  std::size_t size_;
  std::atomic<std::size_t> written_end_;

  mutable std::array<Shard, kShards> shards_;

  std::atomic<std::uint64_t> drains_{0};

  // Crash-point machinery: the counter always runs (one relaxed add per
  // countable event); the arm/cut slots are touched only by harnesses.
  std::atomic<std::uint64_t> crash_events_{0};
  std::atomic<std::uint64_t> crash_arm_{0};  // 0 = disarmed
  std::mutex crash_cut_mu_;
  std::optional<CrashCut> crash_cut_;

  std::atomic<check::Checker*> checker_{nullptr};
  std::atomic<PmemRepairShim*> repair_shim_{nullptr};
};

}  // namespace pax::pmem
