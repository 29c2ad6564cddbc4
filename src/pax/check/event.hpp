// Typed events for the PaxCheck analysis subsystem (docs/ANALYSIS.md).
//
// Every persistence-relevant action in the stack — PM stores/flushes/drains,
// undo-log appends/flushes/resets, device write-backs, epoch seals/commits,
// the libpax sync batching, and lock acquisitions — is describable as one
// fixed-size Event. Components emit events through pax::check::Checker (an
// opt-in pointer on PmemDevice); the rule engines in checker.hpp replay the
// totally-ordered stream against the persist-order and lock-discipline
// models. Events are plain data so a per-thread ring can hold them without
// allocation.
#pragma once

#include <cstdint>
#include <string>

#include "pax/common/types.hpp"

namespace pax::check {

enum class EventType : std::uint8_t {
  // PmemDevice data/persistence path.
  kStore,        // line := line written into the pending overlay
  kFlush,        // line := CLWB'd; flag kFlagEmptyFlush if nothing pending
  kDrain,        // SFENCE ordering point
  kCrash,        // simulated power loss (pending overlay resolved + cleared)
  // Undo logger.
  kLogAppend,    // line, a := logger id, b := record end offset
  kLogFlush,     // a := logger id, b := new durable watermark
  kLogReset,     // a := logger id (log reclaimed after its epoch committed)
  // PAX device.
  kWriteback,    // line written to PM media; a := logger id, b := record end
  kEpochCommit,  // a := epoch number; emitted just before the epoch-cell
                 // store, so the cell's own store/flush/drain follow it
  kPullInvoke,   // line := host pull (RdShared) about to be invoked
  // libpax host sync path.
  kSyncPush,      // line queued into a sync_lines batch
  kSyncBatchOk,   // the emitting thread's in-flight batch succeeded
  kSyncBatchFail, // ... or failed (nothing from it reached the device)
  // Lock discipline.
  kLockAcquire,  // a := LockClass, b := instance id; flag kFlagSharedLock
  kLockRelease,  // a := LockClass, b := instance id
  // Epoch pipeline (none of these is crash-countable).
  kPipelineSeal,  // runtime sealed a dirty-set snapshot; a := epoch,
                  // b := snapshotted page count
  kPipelinePage,  // one page of that snapshot; line := the page's first
                  // pool line, a := epoch
  kEpochSubmit,   // a runtime hands a pushed snapshot to the device for
                  // commit; a := epoch
};

/// Lock classes in their required acquisition order (LOCK ORDER comment in
/// pax_device.hpp, plus the libpax sync mutex that sits above it all).
/// Rank grows inward: holding a higher rank while acquiring a lower one is
/// an order inversion.
enum class LockClass : std::uint8_t {
  kSyncMu = 0,     // libpax runtime sync path serialization
  kEpochGate = 1,  // PaxDevice epoch_mu_ (shared_mutex)
  kStripe = 2,     // one PaxDevice stripe mutex (id = stripe index)
  kLogMu = 3,      // PaxDevice log_mu_
};

inline constexpr std::uint8_t kFlagEmptyFlush = 1u << 0;
inline constexpr std::uint8_t kFlagSharedLock = 1u << 1;
/// On kWriteback: the emitting thread checked the logger's
/// durable watermark (an acquire load that returned >= the record end)
/// before writing the line back. The offline analyzer turns this into a
/// happens-before edge from the covering kLogFlush, mirroring the real
/// synchronization through UndoLogger's atomic watermark.
inline constexpr std::uint8_t kFlagGateObserved = 1u << 2;

/// Sentinel for events that are not about a particular line.
inline constexpr std::uint64_t kNoLine = ~0ull;

struct Event {
  std::uint64_t seq = 0;      // global order (per-checker atomic counter)
  std::uint64_t line = kNoLine;
  std::uint64_t a = 0;        // type-specific (see EventType comments)
  std::uint64_t b = 0;
  EventType type = EventType::kStore;
  std::uint8_t flags = 0;
  std::uint16_t tid = 0;      // ring id of the emitting thread
  // Id of the libpax runtime that emitted a sync or pipeline event
  // (kSyncPush, the batch outcomes, kPipelineSeal/Page, kEpochSubmit);
  // 0 for every other event.
  std::uint32_t runtime = 0;
};

const char* event_type_name(EventType t);
const char* lock_class_name(LockClass c);

/// "class #instance" label for one end of a lock edge, e.g. "stripe #5" or
/// "log-mu #1". Online violations and the offline lock-graph report use the
/// same spelling so the two read identically.
std::string describe_lock(LockClass cls, std::uint64_t id);

/// True for the event types PmemDevice counts toward crash_events(): the
/// device-level persistence actions a crash point is named after. Exactly
/// one such event is emitted per counter increment, which lets the crash
/// explorer cut a recorded stream at the device's "crash after event N"
/// boundary (crashpoint.hpp).
inline constexpr bool is_crash_countable(EventType t) {
  return t == EventType::kStore || t == EventType::kFlush ||
         t == EventType::kDrain;
}

}  // namespace pax::check
