// The device's asynchronous undo logger (Figure 1, "Undo Logger").
//
// Whenever the host signals intent to modify a cache line (the first time in
// an epoch), the logger captures the line's epoch-boundary pre-image into an
// epoch-tagged undo record. Records are *staged* immediately but become
// durable lazily: the write-back coordinator flushes the log in batches off
// the application's critical path (§3.2), and data-line write-back is gated
// on each record's end offset falling below the durable watermark (§3.3).
//
// Threading (striped device): all mutating entry points (log_line, flush,
// reset_after_commit) must be serialized by the caller — the PaxDevice holds
// its log mutex around them. The watermarks (staged(), durable(),
// is_durable()) are published through atomics so the striped data path can
// gate write-backs without touching the log mutex.
//
// ── Lock-free append ring (optional) ───────────────────────────────────────
//
// With enable_ring(), the hot-path append entry points (ring_append /
// ring_append_batch) bypass the log mutex entirely: producers reserve a
// ticket with one fetch_add, wait for their pre-framed slot to free, fill
// it, and publish it with a per-slot release store (a Vyukov-style bounded
// MPMC ring). Because every ring record is a fixed-size LineUndoPayload
// frame and all appends in ring mode flow through the ring, ticket t's
// record *end offset* is known at reservation time: (t + 1) × frame — so
// producers get back the same durability watermark the mutex path returns,
// without serializing. A single consumer (drain_ring, serialized by an
// internal leaf mutex) later replays published slots into the LogWriter in
// ticket order, checking that each precomputed end matches the real append
// cursor. flush() drains before flushing, so the durable watermark still
// only ever covers records that are physically in the extent.
//
// Out-of-space: a reservation whose end exceeds the extent publishes its
// slot as *aborted* (the consumer skips it) and returns kOutOfSpace.
// Capacity is monotone in the ticket, so aborted slots always form a suffix
// until reset_after_commit() — no live record's precomputed end can drift.
//
// Memory ordering: the producer's release store of slot.seq = ticket + 1
// publishes the filled payload; the consumer's acquire load of seq pairs
// with it; the consumer's release store of seq = ticket + slots frees the
// slot for the next generation, paired with the next producer's acquire
// wait. A producer that finds the ring full (consumer lagging) self-drains
// under the leaf mutex instead of spinning unboundedly.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "pax/common/status.hpp"
#include "pax/common/types.hpp"
#include "pax/wal/wal.hpp"

namespace pax::device {

struct UndoLoggerStats {
  std::uint64_t records = 0;
  std::uint64_t bytes_staged = 0;
  std::uint64_t flushes = 0;
  std::uint64_t group_appends = 0;   // batched log_lines() calls
  std::uint64_t ring_appends = 0;    // records staged via the lock-free ring
  std::uint64_t ring_full_stalls = 0;  // producer waits for a free slot
  std::uint64_t ring_aborts = 0;     // reservations past extent capacity
};

class UndoLogger {
 public:
  UndoLogger(pmem::PmemDevice* device, PoolOffset extent_offset,
             std::size_t extent_size)
      : writer_(device, extent_offset, extent_size),
        pm_(device),
        id_(extent_offset) {}

  /// Stable identifier for PaxCheck events (the extent offset).
  std::uint64_t id() const { return id_; }

  /// Stages an undo record holding `old_data`, the pre-image of `line` at
  /// the current epoch boundary. Returns the record end offset (the
  /// watermark write-back of the new data must wait for). Caller must hold
  /// the device's log mutex.
  Result<std::uint64_t> log_line(Epoch epoch, LineIndex line,
                                 const LineData& old_data);

  /// Batched variant: stages one undo record per (line, pre-image) pair in
  /// a single framing pass with one backing store (wal append_batch), so a
  /// whole stripe group costs one log-mutex hold instead of one per line.
  /// All-or-nothing on kOutOfSpace. Per-record end offsets are appended to
  /// `ends_out` in input order. Caller must hold the device's log mutex.
  Status log_lines(Epoch epoch,
                   std::span<const std::pair<LineIndex, LineData>> items,
                   std::vector<std::uint64_t>* ends_out);

  /// Makes all staged records durable. Caller must hold the log mutex.
  /// In ring mode this first drains every published ring slot into the
  /// writer, so the durable watermark covers them too.
  void flush();

  // --- Lock-free append ring ----------------------------------------------

  /// Switches the append hot path to the MPMC ring (`slots` is rounded up
  /// to a power of two, minimum 2). Must be called before any append and at
  /// most once. While the ring is enabled, ALL line-undo appends must go
  /// through ring_append/ring_append_batch — mixing in log_line/log_lines
  /// would corrupt the precomputed end offsets.
  void enable_ring(std::size_t slots);
  bool ring_enabled() const { return ring_ != nullptr; }

  /// Lock-free equivalent of log_line: reserves a ticket, publishes the
  /// pre-framed record into the ring, and returns its (precomputed) end
  /// offset. Callers need NOT hold the log mutex. kOutOfSpace when the
  /// reservation exceeds the extent.
  Result<std::uint64_t> ring_append(Epoch epoch, LineIndex line,
                                    const LineData& old_data);

  /// Lock-free equivalent of log_lines: one ticket reservation covers the
  /// whole batch; per-record end offsets are appended to `ends_out` in
  /// input order. All-or-nothing on kOutOfSpace (the whole batch's slots
  /// are published aborted). Callers need NOT hold the log mutex.
  Status ring_append_batch(
      Epoch epoch, std::span<const std::pair<LineIndex, LineData>> items,
      std::vector<std::uint64_t>* ends_out);

  /// Replays every published ring slot into the LogWriter in ticket order
  /// (serialized on an internal leaf mutex — safe from any thread).
  void drain_ring();

  /// Lock-free ring counter reads (safe concurrently with producers).
  std::uint64_t ring_appends() const {
    return ring_append_count_.load(std::memory_order_relaxed);
  }
  std::uint64_t ring_full_stalls() const {
    return ring_stall_count_.load(std::memory_order_relaxed);
  }

  /// Lock-free watermark reads (safe concurrently with log_line/flush).
  /// In ring mode, staged() reports reserved ring bytes (records may still
  /// be in slots, not yet replayed into the writer).
  std::uint64_t staged() const {
    if (ring_enabled()) {
      const std::uint64_t reserved =
          ring_tickets_.load(std::memory_order_acquire) * kRingFrame;
      return std::min<std::uint64_t>(reserved, writer_.extent_size());
    }
    return staged_.load(std::memory_order_acquire);
  }
  std::uint64_t durable() const {
    return durable_.load(std::memory_order_acquire);
  }

  /// True if `record_end` (a value returned by log_line) is durable.
  bool is_durable(std::uint64_t record_end) const {
    return record_end <= durable();
  }

  /// Restarts the log after an epoch commit made all records stale. Caller
  /// must hold the log mutex AND have quiesced the data path (no write-back
  /// may be gating on a record of this log).
  void reset_after_commit();

  /// Caller must hold the log mutex (the non-atomic fields are mutated by
  /// appends and the ring drain); the ring counters are folded in from
  /// atomics.
  UndoLoggerStats stats() const {
    UndoLoggerStats s = stats_;
    s.ring_appends = ring_append_count_.load(std::memory_order_relaxed);
    s.ring_full_stalls = ring_stall_count_.load(std::memory_order_relaxed);
    s.ring_aborts = ring_abort_count_.load(std::memory_order_relaxed);
    return s;
  }
  std::size_t extent_size() const { return writer_.extent_size(); }

 private:
  // Every ring record is a line-undo frame of this fixed size — the basis
  // for precomputing end offsets at reservation time.
  static constexpr std::uint64_t kRingFrame =
      wal::record_frame_size(sizeof(wal::LineUndoPayload));

  // One pre-framed record slot. seq drives the Vyukov protocol: == ticket
  // means free for that ticket's producer; == ticket + 1 means published;
  // == ticket + ring_slots_ means consumed (free for the next generation).
  struct alignas(64) RingSlot {
    std::atomic<std::uint64_t> seq{0};
    Epoch epoch = 0;
    std::uint64_t line = 0;
    std::uint64_t end = 0;
    bool aborted = false;
    LineData old_data{};
  };

  // Waits for ticket's slot, fills it, and publishes it.
  void fill_and_publish(std::uint64_t ticket, Epoch epoch, LineIndex line,
                        const LineData& old_data, std::uint64_t end,
                        bool aborted);
  // Caller holds ring_drain_mu_.
  void drain_ring_locked();

  wal::LogWriter writer_;
  pmem::PmemDevice* pm_;
  std::uint64_t id_;
  std::atomic<std::uint64_t> staged_{0};
  std::atomic<std::uint64_t> durable_{0};
  UndoLoggerStats stats_;

  // Ring state. ring_ is null until enable_ring(). The drain mutex is a
  // LEAF: it is taken with the device's log mutex and/or a stripe mutex
  // held (producer self-drain), and nothing is acquired under it.
  std::unique_ptr<RingSlot[]> ring_;
  std::uint64_t ring_slots_ = 0;
  std::uint64_t ring_mask_ = 0;
  std::atomic<std::uint64_t> ring_tickets_{0};  // next ticket to hand out
  std::mutex ring_drain_mu_;
  std::uint64_t ring_consumed_ = 0;  // next ticket to consume; under drain mu
  std::atomic<std::uint64_t> ring_append_count_{0};
  std::atomic<std::uint64_t> ring_stall_count_{0};
  std::atomic<std::uint64_t> ring_abort_count_{0};
};

}  // namespace pax::device
